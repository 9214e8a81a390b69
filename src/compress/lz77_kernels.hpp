// The compiled lz77 match-extension kernels (internal; lz77.hpp does not
// include this header).
//
// Lz77Codec extends matches with the first kernel in this list that the
// host can run. Tests walk the whole list so that every kernel this host
// supports is checked, not only the one it selects.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace maqs::compress::detail {

/// Length of the common prefix of a[0, limit) and b[0, limit). Reads no
/// byte at or past a + limit or b + limit.
using MatchLengthFn = std::size_t (*)(const std::uint8_t* a,
                                      const std::uint8_t* b,
                                      std::size_t limit) noexcept;

struct MatchKernel {
  const char* name;
  MatchLengthFn run;
  bool (*supported)() noexcept;
};

/// Best first; the last entry runs on every host.
std::span<const MatchKernel> match_kernels() noexcept;

}  // namespace maqs::compress::detail
