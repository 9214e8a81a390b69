// Byte-oriented run-length encoding.
//
// Format: a stream of (count:u8, byte) pairs for runs of length >= 1;
// count is the run length (1..255). Chosen for simplicity and worst-case
// predictability: expansion is bounded at 2x.
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
