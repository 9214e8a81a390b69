#include "util/buffer_pool.hpp"

#include <algorithm>
#include <bit>
#include <utility>

namespace maqs::util {

namespace {

/// Size class of a capacity (or request) >= 1: floor(log2(n)).
int class_of(std::size_t n) noexcept {
  return std::bit_width(n) - 1;
}

}  // namespace

BufferPool& BufferPool::instance() {
  static thread_local BufferPool pool;
  return pool;
}

BufferPool::BufferPool() noexcept { clear(); }

Bytes BufferPool::take(int c, std::uint8_t prev, std::uint8_t slot) noexcept {
  if (prev == kNone) {
    head_[c] = next_[slot];
  } else {
    next_[prev] = next_[slot];
  }
  if (head_[c] == kNone) nonempty_ &= ~(std::uint64_t{1} << c);
  next_[slot] = unused_;
  unused_ = slot;
  --pooled_;
  ++hits_;
  return std::move(slots_[slot]);
}

Bytes BufferPool::acquire(std::size_t size_hint) {
  // Why not newest-first capacity-fit: it hands the largest buffers to the
  // smallest requests, so on a request cycle whose one big acquire runs
  // *after* several small ones, the big buffers are always checked out by
  // the time the big acquire arrives and it mallocs afresh every request.
  //
  // The class holding size_hint itself mixes capacities below and above
  // it, so its list is searched for one that fits (in steady state its
  // newest entry does). Every class above holds only fitting capacities,
  // all within a factor of two of each other: the lowest non-empty one
  // serves the request from its head.
  const int c = class_of(std::max<std::size_t>(size_hint, 1));
  std::uint8_t prev = kNone;
  for (std::uint8_t slot = head_[c]; slot != kNone; slot = next_[slot]) {
    if (slots_[slot].capacity() >= size_hint) return take(c, prev, slot);
    prev = slot;
  }
  const std::uint64_t above =
      c + 1 < kClasses ? nonempty_ & (~std::uint64_t{0} << (c + 1)) : 0;
  if (above != 0) {
    const int fit = std::countr_zero(above);
    return take(fit, kNone, head_[fit]);
  }
  ++misses_;
  Bytes out;
  out.reserve(std::max(size_hint, kMinUseful));
  return out;
}

void BufferPool::release(Bytes&& buf) noexcept {
  if (buf.capacity() < kMinUseful || unused_ == kNone) {
    Bytes dropped = std::move(buf);
    return;
  }
  buf.clear();
  const int c = class_of(buf.capacity());
  const std::uint8_t slot = unused_;
  unused_ = next_[slot];
  slots_[slot] = std::move(buf);
  next_[slot] = head_[c];
  head_[c] = slot;
  nonempty_ |= std::uint64_t{1} << c;
  ++pooled_;
}

void BufferPool::clear() noexcept {
  for (std::size_t i = 0; i < kMaxPooled; ++i) {
    Bytes().swap(slots_[i]);
    next_[i] = static_cast<std::uint8_t>(i + 1 < kMaxPooled ? i + 1 : kNone);
  }
  head_.fill(kNone);
  unused_ = 0;
  nonempty_ = 0;
  pooled_ = 0;
  hits_ = 0;
  misses_ = 0;
}

}  // namespace maqs::util
