// LZ77 with a hash-chain match finder.
//
// Token stream format (compact CDR-free, self-delimiting):
//   0x00 len:u16 <len literal bytes>      -- literal run, len >= 1
//   0x01 offset:u16 len:u16               -- back-reference, offset >= 1,
//                                            len >= kMinMatch, may overlap
// Window size 64 KiB (offset is u16). Greedy parse; match finder keeps
// hash chains over 3-byte prefixes, bounded probe depth.
//
// The match finder pays per token, not per position:
//  - One literal scan. Each position enters its hash bucket (head/chain)
//    and only then is probed, from the bucket's previous head; a position
//    whose previous head is empty, stale or out of the window costs just
//    that insert. Inserting first changes no stream: the probe could reach
//    the position's own chain slot only through a candidate 64 KiB back,
//    which the window check stops first.
//  - The 3-byte hash comes from one 4-byte load masked to 24 bits; every
//    scanned position has the kMinMatch (4) bytes a match needs.
//  - Matches extend through the first kernel of a short list the host can
//    run (lz77_kernels.hpp), picked once at start-up as XTEA's block
//    kernels are: AVX2 compares 32 bytes per step through a byte-compare
//    mask, and the portable last entry compares 8-byte words.
//
// Worst-case expansion is bounded: whenever the greedy token stream would
// reach the stored form's size, compress emits the stored form instead
// (pure literal runs), so output never exceeds n + 3 * ceil(n / 65535)
// bytes. compress_into caps the greedy stream at min(budget, stored form)
// and stops matching as soon as a token would reach that cap.
//
// The match-finder hash tables are one scratch per thread, shared by every
// codec instance on it and kept across calls: positions live in a rolling
// per-thread coordinate space, so entries from earlier calls (of any
// instance) are recognized as stale by range instead of by a 384 KiB
// memset per call or per instance. A stream therefore depends only on the
// input and max_probes. This makes compress() non-reentrant per thread;
// the simulator runs each world on one thread.
#pragma once

#include "compress/codec.hpp"

namespace maqs::compress {

class Lz77Codec final : public Codec {
 public:
  /// max_probes bounds match-finder effort (compression level knob).
  explicit Lz77Codec(int max_probes = 32) : max_probes_(max_probes) {}

  const std::string& name() const override;

  /// Stored-form bound: n + 3 bytes of framing per 64 KiB literal run.
  std::size_t max_compressed_size(std::size_t n) const override;
  std::size_t compress_into(util::BytesView input,
                            std::span<std::uint8_t> out) const override;
  void decompress_append(util::BytesView input,
                         util::Bytes& out) const override;

 private:
  /// Greedy token stream into out[0..cap); returns bytes written, or `cap`
  /// as a sentinel when the stream would reach/exceed `cap`.
  std::size_t try_compress(util::BytesView input, std::uint8_t* out,
                           std::size_t cap) const;

  int max_probes_;
};

}  // namespace maqs::compress
