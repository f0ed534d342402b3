// Ambient execution context propagated across scheduled events.
//
// A discrete-event simulation loses the call stack at every schedule_at():
// the client's "cause" (which lookup am I part of?) is gone by the time the
// packet-delivery or processing-delay event runs. TraceToken is the minimal
// fix: an opaque (pointer, id) pair that the Simulator captures when an
// event is scheduled and restores while it runs — the simulated analogue of
// async-context propagation. The observability layer (obs::TraceSink) is
// the only producer/consumer of tokens; simnet itself never dereferences
// the pointer, so this header stays dependency-free.
//
// When no tracing is active the token is two null words: capturing and
// restoring it is a handful of instructions per event, which is what makes
// the tracer zero-overhead-when-disabled. Span names and tag values are
// passed to obs as callables and built only under an active token, so an
// untraced query does not pay for its label strings either.
#pragma once

#include <cstdint>

namespace mecdns::simnet {

struct TraceToken {
  void* sink = nullptr;     ///< owning obs::TraceSink (opaque to simnet)
  std::uint64_t span = 0;   ///< current span id within that sink

  bool active() const { return sink != nullptr; }
};

/// The token for the currently executing event (thread-local).
TraceToken current_trace_token();
void set_current_trace_token(TraceToken token);

/// RAII: installs `token` as the ambient token, restoring the previous one
/// on destruction. Used by transports that must run callbacks under the
/// *caller's* context rather than the responder's.
class TraceTokenGuard {
 public:
  explicit TraceTokenGuard(TraceToken token)
      : saved_(current_trace_token()) {
    set_current_trace_token(token);
  }
  ~TraceTokenGuard() { set_current_trace_token(saved_); }

  TraceTokenGuard(const TraceTokenGuard&) = delete;
  TraceTokenGuard& operator=(const TraceTokenGuard&) = delete;

 private:
  TraceToken saved_;
};

}  // namespace mecdns::simnet
