// Indirect event queue: the one timer queue behind both runtimes.
//
// The binary heap orders 16-byte POD keys (deadline, seq|slot); the
// callbacks live in a slab of slots indexed by the key, with a free list of
// slot indices. A heap sift therefore moves 16 bytes instead of a
// 200-byte InlineFunction through its relocate thunk: each callback is
// moved once into its slot when scheduled and once out when it fires.
//
// Order is exactly (deadline, seq): seq is a per-queue counter stamped at
// push time, packed above the slot index, so equal deadlines fire in
// scheduling order. Every sim artifact depends on this order.
//
// Cancellation is lazy. cancel() destroys the callback and bumps the slot's
// generation at once, so a stale ticket (the timer fired, or was cancelled
// and its slot reused) cancels nothing; the dead key stays in the heap until
// it reaches the head, where next_at()/pop() discard it, so a cancelled
// deadline is never reported.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "simnet/context.h"
#include "simnet/time.h"
#include "util/inline_function.h"

namespace mecdns::simnet {

class EventQueue {
 public:
  using Callback = util::InlineFunction<void(), 192>;

  /// Names one scheduled event for cancel(): the slot index in the low 32
  /// bits, the slot's generation (never 0) in the high 32. Never 0 itself.
  using Ticket = std::uint64_t;

  /// An event taken off the queue. Its slot is already free and its ticket
  /// stale, so running `fn` may schedule, cancel and grow the slab.
  struct Event {
    SimTime at;
    TraceToken trace;
    Callback fn;
  };

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Live (scheduled, not fired, not cancelled) events.
  bool empty() const { return live_ == 0; }
  std::size_t size() const { return live_; }

  Ticket push(SimTime at, TraceToken trace, Callback&& fn) {
    std::uint32_t slot;
    if (free_.empty()) {
      if (slots_.size() > kSlotMask) {
        throw std::length_error("EventQueue: more than 2^24 pending events");
      }
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    } else {
      slot = free_.back();
      free_.pop_back();
    }
    if (next_seq_ > kMaxSeq) {
      throw std::overflow_error("EventQueue: sequence space exhausted");
    }
    Slot& s = slots_[slot];
    s.trace = trace;
    s.fn = std::move(fn);
    s.armed = true;
    heap_.push_back(Key{at.count_nanos(), next_seq_++ << kSlotBits | slot});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    ++live_;
    return static_cast<Ticket>(s.generation) << 32 | slot;
  }

  /// Cancels the event `ticket` names. Returns false (and does nothing) if
  /// it already fired or was cancelled.
  bool cancel(Ticket ticket) {
    const auto slot = static_cast<std::uint32_t>(ticket);
    if (slot >= slots_.size()) return false;
    Slot& s = slots_[slot];
    if (!s.armed || s.generation != static_cast<std::uint32_t>(ticket >> 32)) {
      return false;
    }
    disarm(s);
    // The slot stays taken until its key leaves the heap. The callback is
    // destroyed after the queue is consistent again, so a destructor that
    // re-enters the queue is safe.
    Callback dead = std::move(s.fn);
    return true;
  }

  /// Deadline of the earliest live event. Requires !empty().
  SimTime next_at() {
    drop_cancelled_head();
    return SimTime::nanos(heap_.front().at);
  }

  /// Removes and returns the earliest live event. Requires !empty().
  Event pop() {
    drop_cancelled_head();
    const Key top = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
    const auto slot = static_cast<std::uint32_t>(top.order & kSlotMask);
    Slot& s = slots_[slot];
    disarm(s);
    free_.push_back(slot);
    return Event{SimTime::nanos(top.at), s.trace, std::move(s.fn)};
  }

 private:
  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (std::uint64_t{1} << kSlotBits) - 1;
  static constexpr std::uint64_t kMaxSeq = ~std::uint64_t{0} >> kSlotBits;

  struct Key {
    std::int64_t at;      ///< deadline, ns
    std::uint64_t order;  ///< seq << kSlotBits | slot: orders like seq
  };
  static_assert(sizeof(Key) == 16);

  /// Min-heap order for push_heap/pop_heap: the later key sinks.
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.order > b.order;
    }
  };

  struct Slot {
    TraceToken trace;
    Callback fn;
    std::uint32_t generation = 1;
    bool armed = false;  ///< false once fired or cancelled
  };

  void disarm(Slot& s) {
    s.armed = false;
    if (++s.generation == 0) s.generation = 1;
    --live_;
  }

  /// Frees the slots of cancelled keys at the head of the heap.
  void drop_cancelled_head() {
    while (true) {
      const auto slot = static_cast<std::uint32_t>(heap_.front().order & kSlotMask);
      if (slots_[slot].armed) return;
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      heap_.pop_back();
      free_.push_back(slot);
    }
  }

  std::vector<Key> heap_;  ///< binary min-heap ordered by Later
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;  ///< free slot indices, reused LIFO
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;
};

}  // namespace mecdns::simnet
