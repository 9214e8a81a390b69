// Lossless codecs for the compression QoS characteristic.
//
// The paper evaluates "compression for channels with small bandwidth"; we
// implement the codecs from scratch (offline build, DESIGN.md §2): RLE for
// highly redundant data and LZ77 as the general-purpose codec. Both are
// exact round-trip codecs; compress() never fails, decompress() throws
// CodecError on corrupt input.
//
// Each codec implements one call shape, the streaming one
// (compress_into/decompress_append) the zero-copy transform chain uses:
// the caller provides the output storage, so the hot path never
// materializes an intermediate vector per stage. compress_into treats
// that storage as a budget and gives up as soon as the stream cannot come
// in under it, so a stage that only keeps streams shorter than the
// payload never pays for one it would discard (rle gives up before
// writing anything when a lower bound on its stream already reaches the
// budget). compress()/decompress() return fresh Bytes for tools and
// tests; they are fixed wrappers over the streaming calls, so both
// shapes produce the same stream.
#pragma once

#include <memory>
#include <span>
#include <string>

#include "util/bytes.hpp"
#include "util/error.hpp"

namespace maqs::compress {

class CodecError : public Error {
 public:
  using Error::Error;
};

class Codec {
 public:
  virtual ~Codec() = default;
  virtual const std::string& name() const = 0;

  /// The whole stream in a fresh vector.
  util::Bytes compress(util::BytesView input) const;
  /// The decompressed input in a fresh vector.
  util::Bytes decompress(util::BytesView input) const;

  /// Upper bound on the stream length for `n` input bytes: a budget of
  /// max_compressed_size(n) + 1 always holds the whole stream.
  virtual std::size_t max_compressed_size(std::size_t n) const = 0;

  /// Compresses `input` into caller-owned storage `out`, whose size is the
  /// budget; nothing is written past it. Returns the stream length when
  /// the stream is shorter than the budget, else `out.size()` (the
  /// content of `out` is then unspecified), as early as the codec can
  /// tell.
  virtual std::size_t compress_into(util::BytesView input,
                                    std::span<std::uint8_t> out) const = 0;

  /// Decompresses `input`, appending to `out` (existing content is
  /// preserved; back-references never reach across the append point).
  virtual void decompress_append(util::BytesView input,
                                 util::Bytes& out) const = 0;
};

/// Identity codec (baseline: "no compression" with the same call shape).
class IdentityCodec final : public Codec {
 public:
  const std::string& name() const override;
  std::size_t max_compressed_size(std::size_t n) const override;
  std::size_t compress_into(util::BytesView input,
                            std::span<std::uint8_t> out) const override;
  void decompress_append(util::BytesView input,
                         util::Bytes& out) const override;
};

/// Factory by codec name: "identity", "rle", "lz77".
/// Throws CodecError for unknown names.
std::unique_ptr<Codec> make_codec(const std::string& name);

}  // namespace maqs::compress
