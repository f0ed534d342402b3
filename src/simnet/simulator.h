// Discrete-event simulator core: a clock and an ordered event queue.
#pragma once

#include <cstddef>

#include "simnet/event_queue.h"
#include "simnet/time.h"

namespace mecdns::simnet {

/// Executes scheduled callbacks in timestamp order. Events scheduled for the
/// same instant run in scheduling order (a monotonic sequence number breaks
/// ties), so runs are fully deterministic.
///
/// Each event captures the ambient TraceToken at scheduling time and runs
/// under it, so a trace context follows a request across packet deliveries
/// and processing delays without any per-component plumbing. While a
/// simulator exists it also registers itself as the util::log clock, so log
/// lines carry the simulated time.
///
/// The callback type is a move-only inline function with a 192-byte buffer:
/// the lambdas the dns/simnet layers schedule (a TraceToken, an alive-flag,
/// a Packet or a couple of values) fit in place, so the steady-state event
/// costs zero heap allocations where std::function allocated nearly every
/// time. Events wait in an EventQueue (event_queue.h): the heap orders
/// 16-byte (time, seq|slot) keys while each callback sits still in a slab
/// slot, moved in once when scheduled and out once when it runs.
class Simulator {
 public:
  using Callback = EventQueue::Callback;

  Simulator();
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }

  /// Schedules `fn` to run at absolute time `at`. Scheduling in the past is
  /// clamped to "immediately after the current event".
  void schedule_at(SimTime at, Callback fn);

  /// Schedules `fn` to run `delay` after the current time.
  void schedule_after(SimTime delay, Callback fn) {
    schedule_at(now_ + delay, std::move(fn));
  }

  /// Runs until the queue drains. Returns the number of events executed.
  std::size_t run();

  /// Runs events with timestamp <= `until` (the clock ends at `until` if the
  /// queue drained earlier). Returns the number of events executed.
  std::size_t run_until(SimTime until);

  /// Runs at most one event. Returns false if the queue was empty.
  bool step();

  bool empty() const { return queue_.empty(); }
  std::size_t pending() const { return queue_.size(); }
  std::size_t executed() const { return executed_; }
  /// Highest number of simultaneously pending events seen so far — the
  /// event-queue analogue of a server's queue-depth high-water mark.
  std::size_t max_queue_depth() const { return max_queue_depth_; }

 private:
  SimTime now_ = SimTime::zero();
  std::size_t executed_ = 0;
  std::size_t max_queue_depth_ = 0;
  EventQueue queue_;
};

}  // namespace mecdns::simnet
