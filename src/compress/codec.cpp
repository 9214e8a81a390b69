#include "compress/codec.hpp"

#include <cstring>

#include "compress/lz77.hpp"
#include "compress/rle.hpp"

namespace maqs::compress {

util::Bytes Codec::compress(util::BytesView input) const {
  util::Bytes out(max_compressed_size(input.size()) + 1);
  out.resize(compress_into(input, out));
  return out;
}

util::Bytes Codec::decompress(util::BytesView input) const {
  util::Bytes out;
  decompress_append(input, out);
  return out;
}

const std::string& IdentityCodec::name() const {
  static const std::string kName = "identity";
  return kName;
}

std::size_t IdentityCodec::max_compressed_size(std::size_t n) const {
  return n;
}

std::size_t IdentityCodec::compress_into(util::BytesView input,
                                         std::span<std::uint8_t> out) const {
  if (input.size() >= out.size()) return out.size();
  if (!input.empty()) std::memcpy(out.data(), input.data(), input.size());
  return input.size();
}

void IdentityCodec::decompress_append(util::BytesView input,
                                      util::Bytes& out) const {
  out.insert(out.end(), input.begin(), input.end());
}

std::unique_ptr<Codec> make_codec(const std::string& name) {
  if (name == "identity") return std::make_unique<IdentityCodec>();
  if (name == "rle") return std::make_unique<RleCodec>();
  if (name == "lz77") return std::make_unique<Lz77Codec>();
  throw CodecError("unknown codec: " + name);
}

}  // namespace maqs::compress
