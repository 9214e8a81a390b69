// The compiled 32-block XTEA kernels (internal; xtea.hpp does not include
// this header).
//
// XteaCtr runs the first kernel in this list that the host can run. Tests
// walk the whole list so that every kernel this host supports is checked,
// not only the one it selects.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "crypto/mac.hpp"
#include "crypto/xtea.hpp"

namespace maqs::crypto::detail {

/// Encrypts the 32 blocks in[] into out[] (lane k is
/// XteaCtr::encrypt_block(in[k], key)) and, one per round, absorbs the
/// little-endian words at words[0, 8 * n_words) into `mac`, n_words <= 32.
using Block32Fn = void (*)(const Key128& key, const std::uint64_t* in,
                           std::uint64_t* out, Mac64& mac,
                           const std::uint8_t* words,
                           std::size_t n_words) noexcept;

struct Block32Kernel {
  const char* name;
  Block32Fn run;
  bool (*supported)() noexcept;
};

/// Best first; the last entry runs on every host.
std::span<const Block32Kernel> block32_kernels() noexcept;

}  // namespace maqs::crypto::detail
