#include "crypto/xtea.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "crypto/mac.hpp"
#include "crypto/xtea_kernels.hpp"
#include "util/bytes.hpp"

namespace maqs::crypto {

Key128 derive_key(util::BytesView secret) {
  // Stretch the FNV hash over four lanes with distinct tweaks.
  Key128 key{};
  for (std::uint32_t lane = 0; lane < 4; ++lane) {
    std::uint64_t h = 0xcbf29ce484222325ULL ^ (0x9E3779B9ULL * (lane + 1));
    for (std::uint8_t byte : secret) {
      h ^= byte;
      h *= 0x100000001b3ULL;
    }
    key[lane] = static_cast<std::uint32_t>(h ^ (h >> 32));
  }
  return key;
}

std::uint64_t XteaCtr::encrypt_block(std::uint64_t block,
                                     const Key128& key) noexcept {
  std::uint32_t v0 = static_cast<std::uint32_t>(block);
  std::uint32_t v1 = static_cast<std::uint32_t>(block >> 32);
  std::uint32_t sum = 0;
  constexpr std::uint32_t kDelta = 0x9E3779B9;
  for (int round = 0; round < 32; ++round) {
    v0 += (((v1 << 4) ^ (v1 >> 5)) + v1) ^ (sum + key[sum & 3]);
    sum += kDelta;
    v1 += (((v0 << 4) ^ (v0 >> 5)) + v0) ^ (sum + key[(sum >> 11) & 3]);
  }
  return static_cast<std::uint64_t>(v0) |
         (static_cast<std::uint64_t>(v1) << 32);
}

util::Bytes XteaCtr::apply(util::BytesView input) const {
  util::Bytes out(input.begin(), input.end());
  apply_in_place(out);
  return out;
}

namespace {

constexpr std::uint32_t kDelta = 0x9E3779B9;

// Keystream words are little-endian on the wire.
std::uint64_t load_le64(const std::uint8_t* p) noexcept {
  std::uint64_t w = 0;
  std::memcpy(&w, p, 8);
  if constexpr (std::endian::native == std::endian::big) {
    w = __builtin_bswap64(w);
  }
  return w;
}

void store_le64(std::uint8_t* p, std::uint64_t w) noexcept {
  if constexpr (std::endian::native == std::endian::big) {
    w = __builtin_bswap64(w);
  }
  std::memcpy(p, &w, 8);
}

// ---- 32-block (256-byte) kernels ----
//
// One call makes 32 CTR blocks. A block's round chain is strictly serial
// (~4-cycle latency per half-round), so one vector of lanes leaves the
// ALU ports mostly idle; the 32 blocks split into independent lane groups
// (8x4 generic, 4x8 AVX2, 2x16 AVX-512) whose chains interleave and fill
// the gaps. The MAC's two multiply chains are serial as well and run
// beside them, one word per round, so authenticating a chunk costs no
// pass of its own. Lane k produces exactly encrypt_block(in[k], key), so
// the keystream matches the scalar path bit for bit.
//
// GCC/Clang vector extensions rather than intrinsics: the generic kernel
// compiles to SSE2 (baseline x86-64), NEON, or scalar code elsewhere; the
// wider ones are compiled for their ISA by a per-function target
// attribute and picked at run time.
typedef std::uint32_t u32x4 __attribute__((vector_size(16)));

template <typename V>
[[gnu::always_inline]] inline void rounds32(
    const Key128& key, const std::uint64_t* in, std::uint64_t* out,
    Mac64& mac, const std::uint8_t* words, std::size_t n_words) noexcept {
  constexpr int kLanes = sizeof(V) / sizeof(std::uint32_t);
  constexpr int kGroups = 32 / kLanes;
  V v0[kGroups] = {};
  V v1[kGroups] = {};
  for (int g = 0; g < kGroups; ++g) {
    for (int l = 0; l < kLanes; ++l) {
      v0[g][l] = static_cast<std::uint32_t>(in[g * kLanes + l]);
      v1[g][l] = static_cast<std::uint32_t>(in[g * kLanes + l] >> 32);
    }
  }
  Mac64 m = mac;
  std::uint32_t sum = 0;
  for (std::size_t round = 0; round < 32; ++round) {
    const std::uint32_t k0 = sum + key[sum & 3];
    for (int g = 0; g < kGroups; ++g) {
      v0[g] += (((v1[g] << 4) ^ (v1[g] >> 5)) + v1[g]) ^ k0;
    }
    sum += kDelta;
    const std::uint32_t k1 = sum + key[(sum >> 11) & 3];
    for (int g = 0; g < kGroups; ++g) {
      v1[g] += (((v0[g] << 4) ^ (v0[g] >> 5)) + v0[g]) ^ k1;
    }
    if (round < n_words) m.absorb(words + 8 * round);
  }
  mac = m;
  for (int g = 0; g < kGroups; ++g) {
    for (int l = 0; l < kLanes; ++l) {
      out[g * kLanes + l] = static_cast<std::uint64_t>(v0[g][l]) |
                            (static_cast<std::uint64_t>(v1[g][l]) << 32);
    }
  }
}

void block32_generic(const Key128& key, const std::uint64_t* in,
                     std::uint64_t* out, Mac64& mac,
                     const std::uint8_t* words,
                     std::size_t n_words) noexcept {
  rounds32<u32x4>(key, in, out, mac, words, n_words);
}

bool always() noexcept { return true; }

#if defined(__x86_64__) && defined(__GNUC__)
typedef std::uint32_t u32x8 __attribute__((vector_size(32)));
typedef std::uint32_t u32x16 __attribute__((vector_size(64)));

__attribute__((target("avx2"))) void block32_avx2(
    const Key128& key, const std::uint64_t* in, std::uint64_t* out,
    Mac64& mac, const std::uint8_t* words, std::size_t n_words) noexcept {
  rounds32<u32x8>(key, in, out, mac, words, n_words);
}

__attribute__((target("avx512f"))) void block32_avx512(
    const Key128& key, const std::uint64_t* in, std::uint64_t* out,
    Mac64& mac, const std::uint8_t* words, std::size_t n_words) noexcept {
  rounds32<u32x16>(key, in, out, mac, words, n_words);
}

bool has_avx2() noexcept { return __builtin_cpu_supports("avx2") != 0; }
bool has_avx512f() noexcept { return __builtin_cpu_supports("avx512f") != 0; }
#endif

constexpr detail::Block32Kernel kKernels[] = {
#if defined(__x86_64__) && defined(__GNUC__)
    {"avx512f", block32_avx512, has_avx512f},
    {"avx2", block32_avx2, has_avx2},
#endif
    {"generic", block32_generic, always},
};

detail::Block32Fn pick_block32() noexcept {
  for (const detail::Block32Kernel& kernel : kKernels) {
    if (kernel.supported()) return kernel.run;
  }
  return block32_generic;
}

const detail::Block32Fn g_block32 = pick_block32();

/// XORs the first `len` bytes of the keystream words ks[] into p[].
void xor_keystream(std::uint8_t* p, const std::uint64_t* ks,
                   std::size_t len) noexcept {
  std::size_t w = 0;
  for (; 8 * w + 8 <= len; ++w) {
    store_le64(p + 8 * w, load_le64(p + 8 * w) ^ ks[w]);
  }
  for (std::size_t b = 8 * w; b < len; ++b) {
    p[b] ^= static_cast<std::uint8_t>(ks[w] >> (8 * (b - 8 * w)));
  }
}

}  // namespace

std::span<const detail::Block32Kernel> detail::block32_kernels() noexcept {
  return kKernels;
}

void XteaCtr::walk(std::span<std::uint8_t> data, Mac64* mac,
                   bool sealing) const noexcept {
  const detail::Block32Fn kernel = g_block32;
  Mac64 unused(0);
  Mac64& m = mac != nullptr ? *mac : unused;
  std::uint8_t* const p = data.data();
  const std::size_t n = data.size();
  std::size_t absorbed = 0;  // [0, absorbed) is in the MAC
  const auto absorb_to = [&](std::size_t end) noexcept {
    if (mac != nullptr) {
      m.update({p + absorbed, end - absorbed});
      absorbed = end;
    }
  };
  // Not zeroed: `in` is filled before every kernel call and `ks` by the
  // kernel; clearing 512 bytes is a visible share of a short frame's cost.
  std::uint64_t in[32];
  std::uint64_t ks[32];
  std::uint64_t counter = 0;
  std::size_t i = 0;
  // Every chunk of up to 256 bytes takes one kernel call, a ragged last
  // one too: CTR output is positional, so its surplus keystream is simply
  // dropped. A call costs about two serial scalar blocks, so only a
  // remainder of one block or less runs the scalar cipher.
  while (n - i > 8) {
    const std::size_t len = std::min<std::size_t>(n - i, 256);
    for (std::uint64_t l = 0; l < 32; ++l) in[l] = nonce_ ^ (counter + l);
    // Whole ciphertext words ride the rounds: the previous chunk's when
    // sealing, this chunk's own (before its XOR) when opening.
    const std::size_t words =
        mac == nullptr
            ? 0
            : std::min<std::size_t>(
                  ((sealing ? i : i + len) - absorbed) / 8, 32);
    kernel(key_, in, ks, m, p + absorbed, words);
    absorbed += 8 * words;
    if (!sealing) absorb_to(i + len);
    xor_keystream(p + i, ks, len);
    counter += 32;
    i += len;
  }
  if (i < n) {
    const std::uint64_t last = encrypt_block(nonce_ ^ counter, key_);
    if (!sealing) absorb_to(n);
    xor_keystream(p + i, &last, n - i);
  }
  absorb_to(n);
}

void XteaCtr::apply_in_place(std::span<std::uint8_t> data) const noexcept {
  walk(data, nullptr, false);
}

std::uint64_t XteaCtr::seal(std::span<std::uint8_t> data,
                            std::uint64_t mac_key) const noexcept {
  Mac64 mac(mac_key);
  walk(data, &mac, true);
  return mac.finish(data.size());
}

bool XteaCtr::open(std::span<std::uint8_t> data, std::uint64_t mac_key,
                   std::uint64_t tag) const noexcept {
  Mac64 mac(mac_key);
  walk(data, &mac, false);
  if (mac.finish(data.size()) == tag) return true;
  // Release nothing unverified: re-encrypt to the bytes as passed in.
  walk(data, nullptr, false);
  return false;
}

}  // namespace maqs::crypto
