// Per-thread recycling pool for byte buffers.
//
// The invocation hot path creates and destroys one util::Bytes per layer
// crossing (wire frames, decoded bodies, transform arena slabs, HTTP
// bodies and response frames). Payload sizes are stable in steady state,
// so a small pool turns nearly all of that churn into capacity reuse.
// instance() is thread-local: each simulation shard is its own
// single-threaded world, so pools need no locks and buffers never migrate
// between shards.
//
// Pooled buffers sit in power-of-two size classes (class c holds
// capacities in [2^c, 2^(c+1))), one newest-first list per class, with a
// bitmask of the non-empty classes. acquire() looks in the class of the
// requested size first, then takes the newest buffer of the lowest
// non-empty class above it, found with one mask lookup: a hit returns
// less than twice the smallest pooled capacity that fits, so large
// capacities stay available for large requests.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "util/bytes.hpp"

namespace maqs::util {

class BufferPool {
 public:
  /// This thread's pool (one per thread — see file comment).
  static BufferPool& instance();

  /// Returns an empty buffer with capacity >= size_hint. It is recycled
  /// exactly when some pooled buffer is big enough, and then its capacity
  /// is under twice the smallest pooled capacity that is; otherwise it is
  /// freshly reserved, never below kMinUseful so that it can come back.
  Bytes acquire(std::size_t size_hint);

  /// Donates a dead buffer's storage back to the pool, leaving `buf`
  /// empty. Buffers under kMinUseful and overflow beyond kMaxPooled are
  /// freed.
  void release(Bytes&& buf) noexcept;

  // Observability (bench + tests).
  std::size_t pooled() const noexcept { return pooled_; }
  std::uint64_t hits() const noexcept { return hits_; }
  std::uint64_t misses() const noexcept { return misses_; }

  /// Drops all pooled storage (test isolation between scenarios).
  void clear() noexcept;

  static constexpr std::size_t kMaxPooled = 32;
  static constexpr std::size_t kMinUseful = 64;

 private:
  BufferPool() noexcept;

  static constexpr int kClasses = 64;
  static constexpr std::uint8_t kNone = 0xFF;

  /// Unlinks `slot` (whose predecessor in class `c`'s list is `prev`, or
  /// kNone at the head) and hands its buffer out.
  Bytes take(int c, std::uint8_t prev, std::uint8_t slot) noexcept;

  std::array<Bytes, kMaxPooled> slots_;
  /// Next slot in the same class list, or in the list of unused slots.
  std::array<std::uint8_t, kMaxPooled> next_;
  /// First slot of each class list; kNone when the class is empty.
  std::array<std::uint8_t, kClasses> head_;
  std::uint8_t unused_ = 0;     ///< first unused slot, kNone when full
  std::uint64_t nonempty_ = 0;  ///< bit c set iff class c holds a buffer
  std::size_t pooled_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace maqs::util
