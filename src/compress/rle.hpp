// Byte-oriented run-length encoding.
//
// Format: a stream of (count:u8, byte) pairs for runs of length >= 1;
// count is the run length (1..255). Chosen for simplicity and worst-case
// predictability: expansion is bounded at 2x.
//
// compress_into first bounds the stream from below: every byte that
// differs from its successor ends a run, so the stream holds at least
// 2 * (transitions + 1) bytes. One vector pass counts transitions and
// stops once that bound reaches the budget, or once it no longer can; an
// incompressible input is then rejected before a byte of it is written.
#pragma once

#include "compress/codec.hpp"

namespace maqs::compress {

class RleCodec final : public Codec {
 public:
  const std::string& name() const override;

  /// Exact worst case: one (count, byte) pair per input byte.
  std::size_t max_compressed_size(std::size_t n) const override;
  std::size_t compress_into(util::BytesView input,
                            std::span<std::uint8_t> out) const override;
  void decompress_append(util::BytesView input,
                         util::Bytes& out) const override;
};

}  // namespace maqs::compress
