// Discrete-event loop with support for nested pumping.
//
// Blocking RPC on a single-threaded simulator works by "pumping": the caller
// schedules the request and then runs the loop until its reply arrives
// (EventLoop::run_until). Handlers may themselves issue blocking calls,
// which re-enter run_until; events keep draining from the same queue, so a
// server that calls another server mid-request behaves like a nested message
// loop. This mirrors how a CORBA ORB's work queue behaves for collocated
// re-entrant invocations.
//
// Every pending event owns one slot in a table; a single binary heap of
// slot indices orders them by (when, seq), and each slot records its heap
// position. cancel() therefore removes an event outright in O(log n) —
// every blocking call arms a reply timeout and cancels it when the reply
// lands, so nothing dead is left behind for later pops to skip. Freed
// slots are reused, so the table only grows to the most events ever
// pending at once. A handler is moved out of its slot once, when it runs.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/clock.hpp"

namespace maqs::sim {

/// Identifies a scheduled event so it can be cancelled: the slot index in
/// the low 32 bits, the slot's generation in the high 32. Generations
/// start at 1, so 0 never names an event.
using EventId = std::uint64_t;

class EventLoop {
 public:
  using Handler = std::function<void()>;

  EventLoop() = default;
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Current virtual time.
  TimePoint now() const noexcept { return now_; }

  /// Schedules `fn` to run `delay` from now (delay < 0 is clamped to 0).
  EventId schedule(Duration delay, Handler fn);

  /// Schedules `fn` at an absolute virtual time (past times run "now").
  EventId schedule_at(TimePoint when, Handler fn);

  /// Cancels a pending event. Returns false, changing nothing, if the
  /// event already ran or was cancelled, or the id never named one.
  /// Cancelling during execution of the event itself is such a no-op.
  bool cancel(EventId id);

  /// Number of pending (scheduled, not yet run, not cancelled) events.
  std::size_t pending() const noexcept { return heap_.size(); }

  /// Size of the slot table: the most events ever pending at once.
  std::size_t slot_count() const noexcept { return slots_.size(); }

  /// Runs events until the queue is empty. Returns the number executed.
  std::size_t run_until_idle();

  /// Installs a hook consulted when the queue is about to drain empty
  /// (nullptr uninstalls). The hook returns true when it scheduled new
  /// work, in which case the loop keeps running instead of going idle.
  /// Schedulers that park requests for deferred dispatch use this as a
  /// backstop: no parked work can be stranded by a draining loop.
  void set_drain_hook(std::function<bool()> hook) {
    drain_hook_ = std::move(hook);
  }

  /// Runs events until `pred()` is true or the queue drains.
  /// Returns true if the predicate was satisfied. Re-entrant.
  bool run_until(const std::function<bool()>& pred);

  /// Runs events with timestamps <= now + duration; virtual time ends up
  /// advanced by exactly `duration` even if the queue drains earlier.
  void run_for(Duration duration);

 private:
  /// heap_pos of a slot that holds no pending event.
  static constexpr std::uint32_t kFree = UINT32_MAX;

  struct Slot {
    TimePoint when = 0;
    std::uint64_t seq = 0;  // FIFO tie-break for simultaneous events
    Handler fn;
    std::uint32_t generation = 1;  // bumped each time the slot is freed
    std::uint32_t heap_pos = kFree;
  };

  /// True when slot `a`'s event runs before slot `b`'s.
  bool before(std::uint32_t a, std::uint32_t b) const noexcept;
  /// Stores `slot` at heap position `pos` and records the position.
  void place(std::size_t pos, std::uint32_t slot) noexcept;
  void sift_up(std::size_t pos) noexcept;
  void sift_down(std::size_t pos) noexcept;

  /// Unlinks `slot` from the heap and frees it for reuse, handing back
  /// its handler; the caller runs or drops the handler afterwards.
  Handler take(std::uint32_t slot);

  /// Runs the earliest pending event; the heap must not be empty.
  void run_next();

  /// Runs the earliest event; returns false if the queue is empty.
  bool step();

  TimePoint now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> heap_;  // slot indices, min-heap on (when, seq)
  std::vector<std::uint32_t> free_slots_;
  std::function<bool()> drain_hook_;
  bool in_drain_hook_ = false;
};

}  // namespace maqs::sim
