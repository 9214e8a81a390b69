#include "compress/rle.hpp"

#include <bit>
#include <cstring>

namespace maqs::compress {

namespace {

// GCC/Clang vector extensions, as in crypto/xtea.cpp: the same source
// compiles to SSE2 (baseline x86-64), NEON, or scalar code elsewhere.
typedef std::uint8_t u8x16 __attribute__((vector_size(16)));
typedef std::int8_t i8x16 __attribute__((vector_size(16)));
typedef std::uint16_t u16x16 __attribute__((vector_size(32)));

/// True when the stream for non-empty `input` cannot come in under
/// `budget`. Every byte that differs from its successor ends a run and
/// every run is a 2-byte pair, so the stream is at least
/// 2 * (transitions + 1) bytes. Transitions are counted 16 at a time in
/// byte lanes, which are summed every 128 bytes (at most 8 per lane) to
/// stop as soon as the bound reaches the budget, or can no longer reach
/// it even if every byte left ended a run (so a compressible input is
/// counted only about halfway at budget n).
bool over_budget(util::BytesView input, std::size_t budget) noexcept {
  const std::uint8_t* p = input.data();
  const std::size_t n = input.size();
  std::size_t runs = 1;
  std::size_t i = 0;
  while (n - i >= 17) {
    i8x16 counts{};
    for (int block = 0; block < 8 && n - i >= 17; ++block, i += 16) {
      u8x16 here{};
      u8x16 next{};
      std::memcpy(&here, p + i, 16);
      std::memcpy(&next, p + i + 1, 16);
      counts -= here != next;  // lanes of -1 where a run ends
    }
    std::uint64_t halves[2] = {};
    std::memcpy(halves, &counts, 16);
    runs += ((halves[0] + halves[1]) * 0x0101010101010101ULL) >> 56;
    if (2 * runs >= budget) return true;
    if (2 * (runs + n - 1 - i) < budget) return false;
  }
  for (; i + 1 < n; ++i) runs += p[i] != p[i + 1];
  return 2 * runs >= budget;
}

/// Writes the (1, byte) pairs for the leading bytes of p[0..16) that
/// differ from their successor (p[16] must be readable) into out[0..32)
/// and returns how many there are, 0..16. Little-endian only: lane k of
/// the u16 vector lands as the bytes {1, p[k]}.
std::size_t emit_singletons(const std::uint8_t* p, std::uint8_t* out) noexcept {
  u8x16 here{};
  u8x16 next{};
  std::memcpy(&here, p, 16);
  std::memcpy(&next, p + 1, 16);
  const auto equal = here == next;
  std::uint64_t lanes[2] = {};
  std::memcpy(lanes, &equal, 16);
  const u16x16 pairs = (__builtin_convertvector(here, u16x16) << 8) | 1;
  std::memcpy(out, &pairs, 32);
  if (lanes[0] != 0) {
    return static_cast<std::size_t>(std::countr_zero(lanes[0])) >> 3;
  }
  if (lanes[1] != 0) {
    return 8 + (static_cast<std::size_t>(std::countr_zero(lanes[1])) >> 3);
  }
  return 16;
}

}  // namespace

const std::string& RleCodec::name() const {
  static const std::string kName = "rle";
  return kName;
}

std::size_t RleCodec::max_compressed_size(std::size_t n) const { return 2 * n; }

std::size_t RleCodec::compress_into(util::BytesView input,
                                    std::span<std::uint8_t> out) const {
  const std::size_t n = input.size();
  if (n != 0 && over_budget(input, out.size())) return out.size();
  std::size_t w = 0;
  std::size_t i = 0;
  while (i < n) {
    // Bulk path: stretches of runs of one, 16 input bytes per step, while
    // a full 32-byte store still leaves the stream under budget.
    if constexpr (std::endian::native == std::endian::little) {
      while (i + 17 <= n && out.size() - w > 32) {
        const std::size_t singles =
            emit_singletons(input.data() + i, out.data() + w);
        w += 2 * singles;
        i += singles;
        if (singles < 16) break;
      }
    }
    const std::uint8_t byte = input[i];
    std::size_t run = 1;
    while (run < 255 && i + run < n && input[i + run] == byte) {
      ++run;
    }
    // A pair that would bring the stream to the budget means it cannot
    // come in under it.
    if (out.size() - w <= 2) return out.size();
    out[w++] = static_cast<std::uint8_t>(run);
    out[w++] = byte;
    i += run;
  }
  return w;
}

void RleCodec::decompress_append(util::BytesView input, util::Bytes& out) const {
  if (input.size() % 2 != 0) {
    throw CodecError("rle: truncated stream");
  }
  for (std::size_t i = 0; i < input.size(); i += 2) {
    const std::uint8_t run = input[i];
    if (run == 0) throw CodecError("rle: zero-length run");
    out.insert(out.end(), run, input[i + 1]);
  }
}

}  // namespace maqs::compress
