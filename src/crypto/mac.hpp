// Keyed message authentication (simulation-grade).
//
// A keyed FNV-based tag detects payload tampering/corruption in the
// encryption characteristic's integrity mode. It is not a cryptographic
// MAC; DESIGN.md §2 records the substitution.
//
// The tag is a word-wide state (Mac64) that takes the message as
// little-endian 8-byte words. mac64() runs it over a whole buffer;
// XteaCtr::seal/open feed the same state from inside the cipher kernel's
// rounds, so their tag is mac64's. open reads a frame once; seal re-reads
// only its last chunk (up to 256 bytes) for the MAC.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>

#include "util/bytes.hpp"

namespace maqs::crypto {

/// Incremental mac64: absorb the message's words in order, then finish
/// with its length.
class Mac64 {
 public:
  explicit Mac64(std::uint64_t key) noexcept
      : h1_(0xcbf29ce484222325ULL ^ key),
        h2_(0x84222325cbf29ce4ULL ^ (key * kP1)) {}

  /// One message word: the little-endian 8 bytes at p. The two multiply
  /// chains are independent and overlap their latency; each step is
  /// injective in the word, so any single-word difference changes that
  /// chain's state.
  void absorb(const std::uint8_t* p) noexcept {
    std::uint64_t word = 0;
    std::memcpy(&word, p, 8);
    if constexpr (std::endian::native == std::endian::big) {
      word = __builtin_bswap64(word);  // std::byteswap is C++23
    }
    h1_ = (h1_ ^ word) * kP1;
    h2_ = (h2_ + word) * kP2 + 1;
  }

  /// Absorbs `bytes` word by word, zero-padding a final partial word, so
  /// only the message's last piece may end mid-word.
  void update(util::BytesView bytes) noexcept;

  /// The tag for a message of `length` bytes.
  std::uint64_t finish(std::size_t length) const noexcept;

 private:
  static constexpr std::uint64_t kP1 = 0x9E3779B97F4A7C15ULL;
  static constexpr std::uint64_t kP2 = 0xC2B2AE3D27D4EB4FULL;

  std::uint64_t h1_;
  std::uint64_t h2_;
};

/// 64-bit authentication tag over (key, data).
std::uint64_t mac64(std::uint64_t key, util::BytesView data) noexcept;

}  // namespace maqs::crypto
