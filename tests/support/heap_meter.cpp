#include "support/heap_meter.hpp"

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<std::size_t> g_live{0};
std::atomic<std::size_t> g_peak{0};
std::atomic<std::uint64_t> g_allocations{0};

void* allocate(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const std::size_t live =
      g_live.fetch_add(malloc_usable_size(p), std::memory_order_relaxed) +
      malloc_usable_size(p);
  std::size_t peak = g_peak.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_peak.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
  }
  return p;
}

void deallocate(void* p) noexcept {
  if (p == nullptr) return;
  g_live.fetch_sub(malloc_usable_size(p), std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

void* operator new(std::size_t size) { return allocate(size); }
void* operator new[](std::size_t size) { return allocate(size); }
void operator delete(void* p) noexcept { deallocate(p); }
void operator delete[](void* p) noexcept { deallocate(p); }
void operator delete(void* p, std::size_t) noexcept { deallocate(p); }
void operator delete[](void* p, std::size_t) noexcept { deallocate(p); }

namespace maqs::testing::heap {

std::size_t live_bytes() noexcept {
  return g_live.load(std::memory_order_relaxed);
}

std::size_t peak_bytes() noexcept {
  return g_peak.load(std::memory_order_relaxed);
}

void reset_peak() noexcept {
  g_peak.store(g_live.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
}

std::uint64_t allocations() noexcept {
  return g_allocations.load(std::memory_order_relaxed);
}

}  // namespace maqs::testing::heap
