#include "sim/event_loop.hpp"

#include <utility>

namespace maqs::sim {

EventId EventLoop::schedule(Duration delay, Handler fn) {
  if (delay < 0) delay = 0;
  return schedule_at(now_ + delay, std::move(fn));
}

EventId EventLoop::schedule_at(TimePoint when, Handler fn) {
  if (when < now_) when = now_;
  std::uint32_t index;
  if (free_slots_.empty()) {
    index = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    index = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& slot = slots_[index];
  slot.when = when;
  slot.seq = next_seq_++;
  slot.fn = std::move(fn);
  heap_.push_back(index);
  sift_up(heap_.size() - 1);
  return (EventId{slot.generation} << 32) | index;
}

bool EventLoop::cancel(EventId id) {
  const auto index = static_cast<std::uint32_t>(id);
  if (index >= slots_.size()) return false;
  const Slot& slot = slots_[index];
  // A run or cancelled event's slot is free or carries a newer generation.
  if (slot.heap_pos == kFree || slot.generation != id >> 32) return false;
  // Dropped at the end of this scope, once the loop is consistent again.
  const Handler dropped = take(index);
  return true;
}

EventLoop::Handler EventLoop::take(std::uint32_t index) {
  Slot& slot = slots_[index];
  const std::size_t pos = slot.heap_pos;
  const std::uint32_t last = heap_.back();
  heap_.pop_back();
  if (pos < heap_.size()) {
    place(pos, last);
    if (pos > 0 && before(last, heap_[(pos - 1) / 2])) {
      sift_up(pos);
    } else {
      sift_down(pos);
    }
  }
  slot.heap_pos = kFree;
  if (++slot.generation == 0) slot.generation = 1;
  free_slots_.push_back(index);
  return std::move(slot.fn);
}

bool EventLoop::before(std::uint32_t a, std::uint32_t b) const noexcept {
  const Slot& x = slots_[a];
  const Slot& y = slots_[b];
  return x.when != y.when ? x.when < y.when : x.seq < y.seq;
}

void EventLoop::place(std::size_t pos, std::uint32_t slot) noexcept {
  heap_[pos] = slot;
  slots_[slot].heap_pos = static_cast<std::uint32_t>(pos);
}

void EventLoop::sift_up(std::size_t pos) noexcept {
  const std::uint32_t index = heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (!before(index, heap_[parent])) break;
    place(pos, heap_[parent]);
    pos = parent;
  }
  place(pos, index);
}

void EventLoop::sift_down(std::size_t pos) noexcept {
  const std::uint32_t index = heap_[pos];
  const std::size_t size = heap_.size();
  for (;;) {
    std::size_t child = 2 * pos + 1;
    if (child >= size) break;
    if (child + 1 < size && before(heap_[child + 1], heap_[child])) ++child;
    if (!before(heap_[child], index)) break;
    place(pos, heap_[child]);
    pos = child;
  }
  place(pos, index);
}

void EventLoop::run_next() {
  const std::uint32_t index = heap_.front();
  now_ = slots_[index].when;
  // Freed before it runs: the handler may schedule into its own slot, and
  // cancelling its own id from inside is then a stale no-op.
  const Handler fn = take(index);
  fn();
}

bool EventLoop::step() {
  if (heap_.empty()) {
    // The queue is about to drain: give the owner one chance to flush
    // deferred work. The guard keeps a hook that pumps the loop itself
    // (e.g. a blocking dispatch) from re-entering its own flush.
    if (!drain_hook_ || in_drain_hook_) return false;
    in_drain_hook_ = true;
    const bool flushed = drain_hook_();
    in_drain_hook_ = false;
    if (!flushed || heap_.empty()) return false;
  }
  run_next();
  return true;
}

std::size_t EventLoop::run_until_idle() {
  std::size_t executed = 0;
  while (step()) ++executed;
  return executed;
}

bool EventLoop::run_until(const std::function<bool()>& pred) {
  while (!pred()) {
    if (!step()) return pred();
  }
  return true;
}

void EventLoop::run_for(Duration duration) {
  const TimePoint deadline = now_ + duration;
  while (!heap_.empty() && slots_[heap_.front()].when <= deadline) {
    run_next();
  }
  now_ = deadline;
}

}  // namespace maqs::sim
