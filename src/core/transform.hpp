// Streaming zero-copy payload transform pipeline.
//
// The characteristic transforms (compress, encrypt, ...) originally moved
// the marshaled body through one fresh util::Bytes per stage and per
// direction — for a woven Compression+Encryption pair that is four full
// materializations per request plus the codec's own scratch. This layer
// replaces the copy-per-stage shape with borrowed buffers:
//
//   - TransformArena: a per-chain bump allocator over slabs recycled via
//     util::BufferPool. reset() retains capacity, so steady-state requests
//     allocate nothing.
//   - ChainBuf: the payload cursor handed from stage to stage. It borrows
//     the caller's body, an arena region, or a stage-owned scratch buffer;
//     stages transform in place, prepend headers into pre-reserved
//     headroom, or emit into a fresh arena region — never into a
//     temporary vector.
//   - StreamingTransform: one characteristic's forward (outbound) and
//     reverse (inbound) transform over a ChainBuf: the one form a mediator
//     or QoS implementation gives its payload transform. Implemented by
//     the compression/encryption characteristics; wire bytes are identical
//     to the copy-per-stage frames they replaced.
//   - TransformChain: runs the stages (forward in installation order,
//     reverse reversed — the paper's mediator/skeleton nesting), computes
//     per-stage headroom so every downstream header prepends in place,
//     and materializes the result back into the caller's body, reusing
//     its capacity or swapping storage outright.
//
// Client mediators, server QoS skeletons and the network-centered QoS
// modules all run their transforms through this one pipeline: a composite
// mediator and a QoS skeleton each keep their delegates in a DelegateSet
// (core/delegate.hpp), which fuses the members' stages into one chain,
// and each module runs its own.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/characteristic.hpp"
#include "util/bytes.hpp"

namespace maqs::core {

/// Per-invocation facts a transform may key on (nonces, direction).
struct TransformContext {
  std::uint64_t request_id = 0;
  bool reply = false;
  /// Agreement version the inbound frame was sealed under, published by
  /// the first reverse stage that learns it (the encryption stage reads
  /// it out of the [epoch|mac] header) for downstream stages that rebind
  /// per version (e.g. the compression codec). -1 = unknown: stages use
  /// their current binding. Mutable: the context is shared read-mostly
  /// across a chain run and this is the one cross-stage channel.
  mutable std::int64_t frame_version = -1;
};

/// Bump allocator over BufferPool-recycled slabs. Regions are stable for
/// the lifetime of one chain run; reset() recycles them wholesale.
class TransformArena {
 public:
  TransformArena() = default;
  ~TransformArena();
  TransformArena(const TransformArena&) = delete;
  TransformArena& operator=(const TransformArena&) = delete;

  std::span<std::uint8_t> allocate(std::size_t n);
  void reset() noexcept;

 private:
  static constexpr std::size_t kMinSlab = 16 * 1024;

  std::vector<util::Bytes> slabs_;
  std::size_t active_ = 0;
  std::size_t used_ = 0;
};

/// The payload as it travels down/up a transform chain: a view plus
/// headroom bookkeeping over storage the buffer does not own.
class ChainBuf {
 public:
  ChainBuf(TransformArena& arena, std::size_t reserve_front) noexcept
      : arena_(&arena), reserve_front_(reserve_front) {}

  /// Storage for further allocations (fresh output regions).
  TransformArena& arena() noexcept { return *arena_; }

  /// Headroom stages after the current one still need in front of any
  /// region the current stage creates (sum of their header sizes). Set by
  /// the chain before each stage runs.
  std::size_t reserve_front() const noexcept { return reserve_front_; }
  void set_reserve_front(std::size_t n) noexcept { reserve_front_ = n; }

  /// Rebinds to an external body (offset 0, no headroom).
  void borrow(util::Bytes& body) noexcept;
  /// Rebinds to an arena region; payload is [offset, offset + size).
  void adopt(std::span<std::uint8_t> region, std::size_t offset,
             std::size_t size) noexcept;
  /// Rebinds to a stage-owned buffer wholesale (enables swap on
  /// materialize; `owner` must outlive the chain run).
  void adopt_bytes(util::Bytes& owner) noexcept;

  util::BytesView view() const noexcept { return {data() + offset_, size_}; }
  std::span<std::uint8_t> mutable_span() noexcept {
    return {data() + offset_, size_};
  }
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  /// Writable bytes available in front of the payload.
  std::size_t headroom() const noexcept { return offset_; }

  /// Grows the payload `n` bytes to the front (requires headroom() >= n);
  /// returns the new front for the caller to fill.
  std::uint8_t* prepend(std::size_t n);
  /// Drops `n` bytes off the front (requires size() >= n).
  void drop_front(std::size_t n);

  /// Copies the payload into `body` (or swaps storage when the payload
  /// already owns a whole stage buffer), reusing capacity where possible.
  void materialize_into(util::Bytes& body);

 private:
  enum class Storage : std::uint8_t { kBorrowed, kArena, kStageBytes };

  std::uint8_t* data() const noexcept {
    return storage_ == Storage::kArena ? region_ : bytes_->data();
  }

  TransformArena* arena_;
  std::size_t reserve_front_ = 0;
  Storage storage_ = Storage::kBorrowed;
  util::Bytes* bytes_ = nullptr;   // borrowed body or stage-owned scratch
  std::uint8_t* region_ = nullptr;  // arena region
  std::size_t offset_ = 0;
  std::size_t size_ = 0;
};

/// One characteristic's streaming payload transform. forward() is the
/// outbound direction (what the client mediator does to requests and the
/// server skeleton to results); reverse() undoes it.
class StreamingTransform {
 public:
  virtual ~StreamingTransform() = default;

  /// Characteristic name, used as trace-span detail.
  virtual const std::string& label() const = 0;

  /// Upper bound on bytes forward() prepends in front of its input (its
  /// header); the chain pre-reserves this as headroom upstream.
  virtual std::size_t forward_overhead() const noexcept = 0;

  virtual void forward(ChainBuf& buf, const TransformContext& ctx) = 0;
  virtual void reverse(ChainBuf& buf, const TransformContext& ctx) = 0;
};

/// An ordered set of streaming transforms plus the arena they share.
/// Stage pointers are non-owning: stages live in the mediator / QoS impl /
/// module that contributed them, which outlives the chain.
class TransformChain {
 public:
  /// Span names emitted per stage (nullptr = no tracing): the mediator
  /// chain uses "mediator.outbound"/"mediator.inbound", the skeleton chain
  /// "skeleton.transform_result"/"skeleton.transform_args".
  TransformChain(const char* forward_span, const char* reverse_span) noexcept
      : forward_span_(forward_span), reverse_span_(reverse_span) {}
  TransformChain() noexcept : TransformChain(nullptr, nullptr) {}

  void add(StreamingTransform* stage);
  void clear() noexcept;
  bool empty() const noexcept { return stages_.empty(); }

  /// Applies every stage to `body` in installation order and materializes
  /// the result back into `body`.
  void run_forward(util::Bytes& body, const TransformContext& ctx);
  /// Undoes the stages in reverse installation order.
  void run_reverse(util::Bytes& body, const TransformContext& ctx);

 private:
  const char* forward_span_;
  const char* reverse_span_;
  std::vector<StreamingTransform*> stages_;
  /// headroom_after_[i] = sum of forward_overhead() of stages after i.
  std::vector<std::size_t> headroom_after_;
  TransformArena arena_;
};

}  // namespace maqs::core
