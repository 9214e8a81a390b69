// Heap accounting for tests that bound what a parser or decoder may
// allocate. A test binary that links heap_meter.cpp routes the global
// operator new/delete through these counters: bytes live now (as
// malloc_usable_size reports them), the peak since the last reset, and
// the number of allocations.
#pragma once

#include <cstddef>
#include <cstdint>

namespace maqs::testing::heap {

std::size_t live_bytes() noexcept;
/// Highest live_bytes() since the last reset_peak().
std::size_t peak_bytes() noexcept;
/// Restarts peak tracking from the bytes live now.
void reset_peak() noexcept;
std::uint64_t allocations() noexcept;

}  // namespace maqs::testing::heap
