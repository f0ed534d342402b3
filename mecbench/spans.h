// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded from the benchmark's own files, around its calls into
// each layer's public functions: a span has a name, start and end
// (steady_clock nanoseconds), the span open on the same thread when it
// began (its parent) and a request id. Recording is a push into a vector
// reserved up front, so the traced run does not allocate per span; once the
// vector is full further spans are counted as dropped, never resized.
//
// Spans are written to a CSV file after the measured window; per-layer
// self times are then computed by reading that file back (self time =
// span duration minus the duration of its direct children).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "dns/zone.h"

namespace mecbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Span names, one per wrapped layer call. The string form is what the
/// span file carries.
enum class SpanName : std::uint8_t {
  kSimStep,       ///< simnet::Simulator::step
  kStubIssue,     ///< the generator's resolve / resolve_and_fetch call
  kRecvHandler,   ///< netio socket receive handler
  kTimer,         ///< netio timer callback
  kSend,          ///< netio::DatagramSocket::send
  kPluginZone,    ///< dns::ZonePlugin::serve
  kPluginRefuse,  ///< dns::RefusePlugin::serve
  kWireDecode,    ///< dns::decode (replay)
  kWireEncode,    ///< dns::encode_view (replay)
  kZoneLookup,    ///< dns::Zone::lookup (replay)
};

const char* to_string(SpanName name);

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  SpanName name = SpanName::kSimStep;
  std::uint64_t request = 0;
};

/// Records spans of one thread. Not thread-safe: each thread that records
/// owns its recorder.
class SpanRecorder {
 public:
  explicit SpanRecorder(std::size_t capacity) { spans_.reserve(capacity); }

  /// Opens a span under the innermost open one. Returns its index, or -1
  /// when the recorder is full.
  std::int32_t begin(SpanName name, std::uint64_t request = 0) {
    const std::int32_t parent = stack_.empty() ? -1 : stack_.back();
    std::int32_t id = -1;
    if (spans_.size() < spans_.capacity()) {
      id = static_cast<std::int32_t>(spans_.size());
      if (request == 0 && parent >= 0) request = spans_[parent].request;
      spans_.push_back(Span{now_ns(), 0, parent, name, request});
    } else {
      ++dropped_;
    }
    stack_.push_back(id);
    return id;
  }

  void end(std::int32_t id) {
    stack_.pop_back();
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  }

  const std::vector<Span>& spans() const { return spans_; }
  std::uint64_t dropped() const { return dropped_; }

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
  std::uint64_t dropped_ = 0;
};

/// Scoped begin/end on a recorder; a null recorder records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, SpanName name, std::uint64_t request = 0)
      : recorder_(recorder),
        id_(recorder ? recorder->begin(name, request) : -1) {}
  ~ScopedSpan() {
    if (recorder_) recorder_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  std::int32_t id_;
};

/// Writes `spans` as CSV (id,parent,name,start_ns,end_ns,request) to
/// `path`. Spans still open are left out.
bool write_spans(const std::string& path, const std::vector<Span>& spans);

struct SpanTotals {
  std::uint64_t count = 0;
  double self_ns = 0.0;  ///< sum of durations minus direct children's
};

/// Reads a span file back and totals it per span name. Fails (returns
/// false) on an unreadable or malformed file.
bool read_span_totals(const std::string& path,
                      std::map<std::string, SpanTotals>& out);

/// Mean self time of the spans called `name` (0 when there are none).
double mean_self_ns(const std::map<std::string, SpanTotals>& totals,
                    const char* name);

/// Replays wire messages through dns::decode and dns::encode_view, and the
/// question of each through `zone`'s Zone::lookup, one span per call.
void replay_wire(const std::vector<std::vector<std::uint8_t>>& messages,
                 const mecdns::dns::Zone& zone, SpanRecorder& recorder);

}  // namespace mecbench
