#include "util/buffer_pool.hpp"

#include <gtest/gtest.h>

#include <iterator>
#include <set>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace maqs::util {
namespace {

/// The pool is a process-wide singleton; every test starts it empty and
/// with zeroed counters.
class BufferPoolTest : public ::testing::Test {
 protected:
  void SetUp() override { BufferPool::instance().clear(); }
  void TearDown() override { BufferPool::instance().clear(); }
};

TEST_F(BufferPoolTest, RecyclesReleasedStorage) {
  BufferPool& pool = BufferPool::instance();
  Bytes a = pool.acquire(256);
  EXPECT_TRUE(a.empty());
  EXPECT_GE(a.capacity(), 256u);
  a.assign(200, 0x7E);
  const std::uint8_t* storage = a.data();

  pool.release(std::move(a));
  EXPECT_EQ(pool.pooled(), 1u);

  // A smaller request reuses the same storage, handed back cleared.
  Bytes b = pool.acquire(100);
  EXPECT_EQ(b.data(), storage);
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(pool.pooled(), 0u);
  EXPECT_EQ(pool.hits(), 1u);
}

TEST_F(BufferPoolTest, MissesWhenNothingFits) {
  BufferPool& pool = BufferPool::instance();
  Bytes small = pool.acquire(128);
  pool.release(std::move(small));
  const std::uint64_t misses_before = pool.misses();

  // The pooled 128-capacity buffer cannot serve a 64K request.
  Bytes big = pool.acquire(64 * 1024);
  EXPECT_GE(big.capacity(), 64u * 1024u);
  EXPECT_EQ(pool.misses(), misses_before + 1);
  // The unusable pooled buffer stays for future smaller requests.
  EXPECT_EQ(pool.pooled(), 1u);
}

TEST_F(BufferPoolTest, TinyBuffersAreDroppedNotPooled) {
  BufferPool& pool = BufferPool::instance();
  Bytes tiny;
  tiny.reserve(16);  // below the minimum useful capacity
  pool.release(std::move(tiny));
  EXPECT_EQ(pool.pooled(), 0u);
}

TEST_F(BufferPoolTest, PoolSizeIsBounded) {
  BufferPool& pool = BufferPool::instance();
  for (int i = 0; i < 100; ++i) {
    Bytes buf;
    buf.reserve(128);
    pool.release(std::move(buf));
  }
  EXPECT_LE(pool.pooled(), 32u);
}

TEST_F(BufferPoolTest, SmallRequestsReserveTheFloorAndComeBack) {
  BufferPool& pool = BufferPool::instance();
  // A ~36-byte frame is reserved at the pool's floor, so its storage is
  // pooled on release and serves the next small frame.
  Bytes frame = pool.acquire(36);
  EXPECT_GE(frame.capacity(), BufferPool::kMinUseful);
  const std::uint8_t* storage = frame.data();
  pool.release(std::move(frame));
  EXPECT_TRUE(frame.empty());
  EXPECT_EQ(pool.pooled(), 1u);
  Bytes again = pool.acquire(36);
  EXPECT_EQ(again.data(), storage);
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(pool.misses(), 1u);
}

TEST_F(BufferPoolTest, LargeBuffersStayForLargeRequests) {
  BufferPool& pool = BufferPool::instance();
  // Small requests take the small buffers even when a large one was
  // pooled last, so the large request after them still hits.
  for (const std::size_t cap : {4096u, 100u, 120u}) {
    Bytes buf;
    buf.reserve(cap);
    pool.release(std::move(buf));
  }
  const Bytes a = pool.acquire(90);
  const Bytes b = pool.acquire(90);
  EXPECT_LT(a.capacity(), 4096u);
  EXPECT_LT(b.capacity(), 4096u);
  const Bytes big = pool.acquire(4000);
  EXPECT_EQ(big.capacity(), 4096u);
  EXPECT_EQ(pool.misses(), 0u);
}

/// Log-uniform size in [1, 2^max_bits].
std::size_t random_size(Rng& rng, std::uint64_t max_bits) {
  const std::size_t bits = rng.next_below(max_bits + 1);
  return 1 + rng.next_below(std::size_t{1} << bits);
}

TEST_F(BufferPoolTest, MatchesAReferenceMultisetOfCapacities) {
  // The pool against a multiset of the capacities it should hold: acquire
  // hits exactly when some pooled capacity is >= the request, returns one
  // under twice the smallest such capacity, and the pool never holds more
  // than kMaxPooled buffers.
  BufferPool& pool = BufferPool::instance();
  Rng rng(0xb0f5);
  std::multiset<std::size_t> pooled;
  std::vector<Bytes> out;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  for (int step = 0; step < 20000; ++step) {
    if (rng.chance(0.5) && out.size() < 48) {
      const std::size_t hint = random_size(rng, 16);
      const auto fit = pooled.lower_bound(hint);
      Bytes buf = pool.acquire(hint);
      ASSERT_TRUE(buf.empty());
      ASSERT_GE(buf.capacity(), hint);
      if (fit == pooled.end()) {
        ++misses;
        ASSERT_GE(buf.capacity(), BufferPool::kMinUseful);
      } else {
        ++hits;
        ASSERT_LT(buf.capacity(), 2 * *fit) << "hint " << hint;
        const auto it = pooled.find(buf.capacity());
        ASSERT_NE(it, pooled.end()) << "capacity " << buf.capacity();
        pooled.erase(it);
      }
      out.push_back(std::move(buf));
    } else {
      Bytes buf;
      if (!out.empty() && rng.chance(0.7)) {
        const auto at = static_cast<std::ptrdiff_t>(rng.next_below(out.size()));
        buf = std::move(out[static_cast<std::size_t>(at)]);
        out.erase(out.begin() + at);
        buf.resize(rng.next_below(buf.capacity() + 1));
      } else {
        buf.reserve(random_size(rng, 12));
      }
      const std::size_t cap = buf.capacity();
      if (cap >= BufferPool::kMinUseful && pooled.size() < BufferPool::kMaxPooled) {
        pooled.insert(cap);
      }
      pool.release(std::move(buf));
      ASSERT_EQ(buf.capacity(), 0u);
    }
    ASSERT_EQ(pool.pooled(), pooled.size());
    ASSERT_LE(pool.pooled(), BufferPool::kMaxPooled);
  }
  EXPECT_EQ(pool.hits(), hits);
  EXPECT_EQ(pool.misses(), misses);
  EXPECT_GT(hits, 2000u);
  EXPECT_GT(misses, 200u);
}

}  // namespace
}  // namespace maqs::util
