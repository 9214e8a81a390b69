// Property tests for codecs and crypto.
//
//  P1  compress/decompress is the identity for all codecs across a wide
//      size x redundancy grid.
//  P2  lz77 decompression is total on random token soup (throws or
//      returns, never crashes; output bounded).
//  P3  XTEA-CTR is an involution for every (key, nonce, size); seal is
//      apply plus mac64 over the ciphertext at every size from 0 to 600,
//      open inverts it, and a single-bit tamper makes open fail and leave
//      the bytes as they arrived.
//  P4  rle compress_into (lower-bound rejection, then the 16-byte bulk
//      path for runs of one) emits the byte-at-a-time reference stream at
//      every budget, and never writes past the budget.
//  P5  lz77 compress_into (literal scan, one-load hash, per-ISA match
//      extension) emits the stream of the one-probe-per-position match
//      finder it replaced, byte for byte, at every budget class and probe
//      depth, and never writes past the budget.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "bench/support.hpp"
#include "compress/codec.hpp"
#include "compress/lz77.hpp"
#include "compress/rle.hpp"
#include "crypto/mac.hpp"
#include "crypto/xtea.hpp"
#include "util/rng.hpp"

namespace maqs {
namespace {

util::Bytes mixed_payload(util::Rng& rng, std::size_t size,
                          double redundancy) {
  util::Bytes out(size);
  for (std::size_t i = 0; i < size; ++i) {
    out[i] = rng.chance(redundancy)
                 ? static_cast<std::uint8_t>('x')
                 : static_cast<std::uint8_t>(rng.next());
  }
  return out;
}

// The codec name is a std::string, not a const char*: gtest prints a
// pointer parameter with its address, which would put a per-run (ASLR)
// address into the ctest name of every instance.
class CodecGridP
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(CodecGridP, RoundTripAcrossSizeRedundancyGrid) {
  const auto codec = compress::make_codec(std::get<0>(GetParam()));
  util::Rng rng(static_cast<std::uint64_t>(std::get<1>(GetParam())));
  for (std::size_t size : {0u, 1u, 2u, 63u, 64u, 65u, 1000u, 70000u}) {
    for (double redundancy : {0.0, 0.5, 0.95}) {
      const util::Bytes input = mixed_payload(rng, size, redundancy);
      const util::Bytes packed = codec->compress(input);
      EXPECT_EQ(codec->decompress(packed), input)
          << codec->name() << " size=" << size << " r=" << redundancy;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CodecGridP,
    ::testing::Combine(::testing::Values(std::string("identity"),
                                         std::string("rle"),
                                         std::string("lz77")),
                       ::testing::Values(1, 2, 3)));

class Lz77TotalityP : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Lz77TotalityP, RandomTokenSoupNeverCrashes) {
  compress::Lz77Codec codec;
  util::Rng rng(GetParam());
  for (int round = 0; round < 500; ++round) {
    util::Bytes soup(rng.next_below(256));
    for (auto& b : soup) b = static_cast<std::uint8_t>(rng.next());
    // Bias the first byte toward valid tags sometimes to reach deeper
    // paths.
    if (!soup.empty() && rng.chance(0.5)) soup[0] &= 0x01;
    try {
      const util::Bytes out = codec.decompress(soup);
      // Expansion is bounded: each token yields at most 64 KiB.
      EXPECT_LE(out.size(), soup.size() * 65536u + 65536u);
    } catch (const compress::CodecError&) {
    }
  }
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, Lz77TotalityP,
                         ::testing::Values(5u, 55u, 555u));

/// Byte-at-a-time rle encoder: the format's definition, independent of
/// the codec's bulk path.
util::Bytes rle_reference(util::BytesView input) {
  util::Bytes out;
  std::size_t i = 0;
  while (i < input.size()) {
    std::size_t run = 1;
    while (run < 255 && i + run < input.size() && input[i + run] == input[i]) {
      ++run;
    }
    out.push_back(static_cast<std::uint8_t>(run));
    out.push_back(input[i]);
    i += run;
  }
  return out;
}

/// A byte from `rng` that differs from the last byte of `out`, so runs
/// appended next to each other keep their exact lengths.
std::uint8_t fresh_byte(util::Rng& rng, const util::Bytes& out) {
  auto b = static_cast<std::uint8_t>(rng.next());
  if (!out.empty() && b == out.back()) b ^= 0x01;
  return b;
}

void append_singles(util::Rng& rng, util::Bytes& out, std::size_t count) {
  for (std::size_t k = 0; k < count; ++k) out.push_back(fresh_byte(rng, out));
}

void append_run(util::Rng& rng, util::Bytes& out, std::size_t len) {
  out.insert(out.end(), len, fresh_byte(rng, out));
}

/// Inputs that steer the bulk path: every run length around the 255 cap,
/// run starts on both sides of the 16-byte block edge (the shifted load
/// reads the 17th byte), short inputs around the 17-byte bulk threshold,
/// and 4 KiB mixes.
std::vector<util::Bytes> rle_kernel_inputs(util::Rng& rng) {
  constexpr std::size_t kRuns[] = {1, 2, 254, 255, 256, 600};
  std::vector<util::Bytes> inputs;
  for (const std::size_t run : kRuns) {
    for (std::size_t start = 14; start <= 18; ++start) {
      for (const std::size_t tail : {std::size_t{0}, std::size_t{21}}) {
        util::Bytes in;
        append_singles(rng, in, start);
        append_run(rng, in, run);
        append_singles(rng, in, tail);
        inputs.push_back(std::move(in));
      }
    }
  }
  for (std::size_t n = 0; n <= 70; ++n) {
    util::Bytes singles;
    append_singles(rng, singles, n);
    inputs.push_back(std::move(singles));
    // Three-letter alphabet: short natural runs at every alignment.
    util::Bytes short_runs(n);
    for (auto& b : short_runs) b = static_cast<std::uint8_t>(rng.next_below(3));
    inputs.push_back(std::move(short_runs));
  }
  util::Bytes mixed;
  while (mixed.size() < 4096) {
    append_singles(rng, mixed, rng.next_below(40));
    append_run(rng, mixed, kRuns[rng.next_below(std::size(kRuns))]);
  }
  mixed.resize(4096);
  inputs.push_back(std::move(mixed));
  inputs.push_back(mixed_payload(rng, 4096, 0.3));
  return inputs;
}

class RleKernelP : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RleKernelP, MatchesByteAtATimeReferenceAtEveryBudget) {
  constexpr std::size_t kGuard = 32;
  constexpr std::uint8_t kGuardByte = 0xC3;
  const compress::RleCodec codec;
  util::Rng rng(GetParam());
  for (const util::Bytes& generated : rle_kernel_inputs(rng)) {
    // Exact-size copy: ASan flags any read past the last input byte.
    const util::Bytes input = generated;
    const std::size_t n = input.size();
    const util::Bytes expected = rle_reference(input);
    ASSERT_EQ(codec.compress(input), expected) << "n=" << n;
    for (std::size_t budget = 0; budget <= 2 * n + 1; ++budget) {
      util::Bytes buf(budget + kGuard, kGuardByte);
      const std::size_t got = codec.compress_into(input, {buf.data(), budget});
      ASSERT_TRUE(std::all_of(
          buf.begin() + static_cast<std::ptrdiff_t>(budget), buf.end(),
          [](std::uint8_t b) { return b == kGuardByte; }))
          << "wrote past budget " << budget << " n=" << n;
      if (expected.size() < budget) {
        ASSERT_EQ(got, expected.size()) << "budget=" << budget << " n=" << n;
        ASSERT_TRUE(std::equal(expected.begin(), expected.end(), buf.begin()))
            << "budget=" << budget << " n=" << n;
      } else {
        ASSERT_EQ(got, budget) << "stream " << expected.size() << " n=" << n;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RleKernelP, ::testing::Values(3u, 33u));

// ---- lz77_reference: the match finder before the literal scan ----
//
// Lz77Codec::try_compress and compress_into as they stood before the
// literal-scan rewrite, copied verbatim apart from the free-function
// signatures: one probe per position with the position entered after it,
// a three-byte hash and 8-byte match extension, over this file's own
// per-thread tables. P5 holds the codec's streams to it byte for byte.
namespace ref {
constexpr std::size_t kWindow = 65535;   // max back-reference offset (u16)
constexpr std::size_t kMinMatch = 4;     // below this, literals are cheaper
constexpr std::size_t kMaxMatch = 65535;  // length field is u16
constexpr std::size_t kMaxLiteralRun = 65535;
constexpr std::size_t kHashBits = 15;
constexpr std::size_t kHashSize = 1u << kHashBits;
constexpr std::size_t kChainSize = kWindow + 1;
constexpr std::size_t kMaxInsert = 8;
constexpr std::size_t kGoodEnough = 64;

/// Length of the common prefix of a and b, capped at limit (word-wise).
std::size_t match_length(const std::uint8_t* a, const std::uint8_t* b,
                         std::size_t limit) noexcept {
  std::size_t len = 0;
  if constexpr (std::endian::native == std::endian::little) {
    while (len + 8 <= limit) {
      std::uint64_t wa;
      std::uint64_t wb;
      std::memcpy(&wa, a + len, 8);
      std::memcpy(&wb, b + len, 8);
      const std::uint64_t diff = wa ^ wb;
      if (diff != 0) {
        return len + (static_cast<std::size_t>(std::countr_zero(diff)) >> 3);
      }
      len += 8;
    }
  }
  while (len < limit && a[len] == b[len]) ++len;
  return len;
}

std::uint32_t hash3(const std::uint8_t* p) noexcept {
  const std::uint32_t v = static_cast<std::uint32_t>(p[0]) |
                          (static_cast<std::uint32_t>(p[1]) << 8) |
                          (static_cast<std::uint32_t>(p[2]) << 16);
  return (v * 2654435761u) >> (32 - kHashBits);
}

void put_u16(std::uint8_t* p, std::uint16_t v) noexcept {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
}

struct MatchTables {
  std::vector<std::uint32_t> head;
  std::vector<std::uint32_t> chain;
  std::uint32_t next_base = 0;
};

MatchTables& match_tables() {
  static thread_local MatchTables tables;
  return tables;
}

std::size_t max_compressed_size(std::size_t n) {
  if (n == 0) return 0;
  return n + 3 * ((n + kMaxLiteralRun - 1) / kMaxLiteralRun);
}

std::size_t write_stored(util::BytesView input, std::uint8_t* out) {
  std::size_t w = 0;
  std::size_t begin = 0;
  while (begin < input.size()) {
    const std::size_t chunk = std::min(input.size() - begin, kMaxLiteralRun);
    out[w++] = 0x00;
    put_u16(out + w, static_cast<std::uint16_t>(chunk));
    w += 2;
    std::memcpy(out + w, input.data() + begin, chunk);
    w += chunk;
    begin += chunk;
  }
  return w;
}
}  // namespace ref

/// The greedy token stream into out[0..cap); bytes written, or `cap` when
/// the stream would reach or exceed it.
std::size_t lz77_reference(util::BytesView input, std::uint8_t* out,
                           std::size_t cap, int max_probes) {
  using namespace ref;
  const std::size_t n = input.size();

  MatchTables& tables = match_tables();
  if (tables.head.empty()) {
    tables.head.assign(kHashSize, 0);
    tables.chain.assign(kChainSize, 0);
  }
  if (static_cast<std::uint64_t>(tables.next_base) + n + 1 >
      std::numeric_limits<std::uint32_t>::max()) {
    std::fill(tables.head.begin(), tables.head.end(), 0u);
    std::fill(tables.chain.begin(), tables.chain.end(), 0u);
    tables.next_base = 0;
  }
  const std::uint32_t base = tables.next_base;
  tables.next_base = base + static_cast<std::uint32_t>(n) + 1;
  std::uint32_t* const head = tables.head.data();
  std::uint32_t* const chain = tables.chain.data();

  std::size_t w = 0;
  // Emits input[begin, end) as literal runs; false when out of room.
  auto flush_literals = [&](std::size_t begin, std::size_t end) -> bool {
    while (begin < end) {
      const std::size_t chunk = std::min(end - begin, kMaxLiteralRun);
      if (cap - w < 3 + chunk) return false;
      out[w++] = 0x00;
      put_u16(out + w, static_cast<std::uint16_t>(chunk));
      w += 2;
      std::memcpy(out + w, input.data() + begin, chunk);
      w += chunk;
      begin += chunk;
    }
    return true;
  };

  std::size_t literal_start = 0;
  std::size_t i = 0;
  while (i + kMinMatch <= n) {
    const std::uint32_t h = hash3(input.data() + i);
    std::size_t best_len = 0;
    std::size_t best_off = 0;

    // head/chain store positions + 1; values <= base are stale leftovers
    // from earlier inputs and terminate the probe like a null.
    std::uint32_t candidate = head[h];
    int probes = max_probes;
    const std::size_t limit = std::min(n - i, kMaxMatch);
    while (candidate > base && probes-- > 0) {
      const std::size_t pos = candidate - 1 - base;
      if (i - pos > kWindow) break;  // chain entries only get older
      // A candidate can only beat best_len if it also matches at index
      // best_len; checking that one byte first skips the extension for
      // most losing candidates without changing the outcome.
      if (best_len == 0 || input[pos + best_len] == input[i + best_len]) {
        const std::size_t len =
            match_length(input.data() + pos, input.data() + i, limit);
        if (len > best_len) {
          best_len = len;
          best_off = i - pos;
          if (len >= limit || len >= kGoodEnough) break;
        }
      }
      // The chain slot may have been overwritten by a position ~64K newer
      // (modulo indexing); accept only strictly older candidates to stay
      // acyclic.
      const std::uint32_t next = chain[(candidate - 1) % kChainSize];
      if (next > base && next - 1 - base >= pos) break;
      candidate = next;
    }

    if (best_len >= kMinMatch) {
      if (!flush_literals(literal_start, i)) return cap;
      if (cap - w < 5) return cap;
      out[w++] = 0x01;
      put_u16(out + w, static_cast<std::uint16_t>(best_off));
      put_u16(out + w + 2, static_cast<std::uint16_t>(best_len));
      w += 4;
      // Insert hash anchors for the leading covered positions so later
      // matches can reference into this one (bounded per match).
      const std::size_t match_end = i + best_len;
      const std::size_t insert_end = std::min(match_end, i + kMaxInsert);
      while (i < insert_end && i + kMinMatch <= n) {
        const std::uint32_t hh = hash3(input.data() + i);
        chain[(base + i) % kChainSize] = head[hh];
        head[hh] = base + static_cast<std::uint32_t>(i) + 1;
        ++i;
      }
      i = match_end;
      literal_start = i;
    } else {
      chain[(base + i) % kChainSize] = head[h];
      head[h] = base + static_cast<std::uint32_t>(i) + 1;
      ++i;
    }
  }
  if (!flush_literals(literal_start, n)) return cap;
  return w;
}

/// Lz77Codec::compress_into around lz77_reference.
std::size_t lz77_reference_into(util::BytesView input,
                                std::span<std::uint8_t> out, int max_probes) {
  const std::size_t budget = out.size();
  const std::size_t stored = ref::max_compressed_size(input.size());
  if (input.size() >= ref::kMinMatch) {
    const std::size_t cap = std::min(budget, stored);
    const std::size_t written =
        lz77_reference(input, out.data(), cap, max_probes);
    if (written < cap) return written;
  }
  if (stored >= budget) return budget;
  return ref::write_stored(input, out.data());
}

/// `size` bytes over an alphabet of 1-4 random letters.
util::Bytes alphabet_bytes(util::Rng& rng, std::size_t size) {
  std::uint8_t letters[4];
  for (auto& letter : letters) letter = static_cast<std::uint8_t>(rng.next());
  const std::size_t count = 1 + rng.next_below(4);
  util::Bytes out(size);
  for (auto& b : out) b = letters[rng.next_below(count)];
  return out;
}

/// `size` bytes that are mostly copies of earlier stretches, near (often
/// overlapping) and, on long inputs, more than a window back, between
/// short bursts of noise.
util::Bytes copy_heavy_bytes(util::Rng& rng, std::size_t size) {
  util::Bytes out;
  out.reserve(size);
  while (out.size() < size) {
    if (out.size() < 8 || rng.chance(0.2)) {
      for (std::size_t k = 1 + rng.next_below(12); k > 0; --k) {
        out.push_back(static_cast<std::uint8_t>(rng.next()));
      }
      continue;
    }
    const std::size_t back = rng.chance(0.5)
                                 ? 1 + rng.next_below(std::min<std::size_t>(
                                           out.size(), 64))
                                 : 1 + rng.next_below(out.size());
    const std::size_t len = 3 + rng.next_below(rng.chance(0.1) ? 3000 : 60);
    // Byte by byte, so a copy may overlap the bytes it appends.
    const std::size_t from = out.size() - back;
    for (std::size_t k = 0; k < len; ++k) out.push_back(out[from + k]);
  }
  out.resize(size);
  return out;
}

/// Input k of a P5 sweep: woven blobs (4 KiB), noise, small alphabets and
/// copies (up to 2 KiB) in turn; every 100th is 64-140 KiB, past the
/// window and the chain's modulo aliasing.
util::Bytes lz77_input(util::Rng& rng, std::size_t k) {
  const bool large = k % 100 == 99;
  const std::size_t size = large ? (64u << 10) + rng.next_below(76u << 10)
                                 : rng.next_below(2049);
  switch ((large ? k / 100 : k) % 4) {
    case 0:
      return bench::payload(large ? size : 4096, 0.9, rng.next());
    case 1: {
      util::Bytes out(size);
      for (auto& b : out) b = static_cast<std::uint8_t>(rng.next());
      return out;
    }
    case 2:
      return alphabet_bytes(rng, size);
    default:
      return copy_heavy_bytes(rng, size);
  }
}

/// Lz77Codec(probes).compress_into against lz77_reference_into at each
/// budget class: below the greedy stream, at it, the stored form and
/// above both. Returns a failure naming the first budget that differs.
::testing::AssertionResult lz77_matches_reference(const util::Bytes& input,
                                                  int probes) {
  constexpr std::size_t kGuard = 32;
  constexpr std::uint8_t kGuardByte = 0x5A;
  const std::size_t n = input.size();
  const compress::Lz77Codec codec(probes);
  // The greedy stream's length, uncapped: a stream is at most 9 bytes per
  // 5 input bytes (a one-byte literal run, then a shortest match), so
  // 2n + 16 bytes never cut it short.
  util::Bytes full(2 * n + 16);
  const std::size_t stream =
      n >= ref::kMinMatch
          ? lz77_reference(input, full.data(), full.size(), probes)
          : 0;
  const std::size_t stored = codec.max_compressed_size(n);
  for (const std::size_t budget :
       {stream == 0 ? 0 : stream - 1, stream, stored,
        std::max(stream, stored) + 1}) {
    util::Bytes expected(budget);
    const std::size_t want = lz77_reference_into(input, expected, probes);
    util::Bytes buf(budget + kGuard, kGuardByte);
    const std::size_t got = codec.compress_into(input, {buf.data(), budget});
    if (got != want) {
      return ::testing::AssertionFailure()
             << "budget " << budget << ": returned " << got << ", reference "
             << want;
    }
    if (!std::all_of(buf.begin() + static_cast<std::ptrdiff_t>(budget),
                     buf.end(),
                     [](std::uint8_t b) { return b == kGuardByte; })) {
      return ::testing::AssertionFailure() << "wrote past budget " << budget;
    }
    if (got < budget &&
        !std::equal(expected.begin(),
                    expected.begin() + static_cast<std::ptrdiff_t>(got),
                    buf.begin())) {
      return ::testing::AssertionFailure()
             << "budget " << budget << ": stream differs";
    }
  }
  return ::testing::AssertionSuccess();
}

class Lz77ReferenceP : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Lz77ReferenceP, StreamsMatchThePreviousMatchFinderAtEveryBudget) {
  constexpr std::size_t kInputs = 5000;
  constexpr int kProbes[] = {1, 2, 32, 128};
  util::Rng rng(GetParam());
  for (std::size_t k = 0; k < kInputs; ++k) {
    // Exact-size copy: ASan flags any read past the last input byte.
    const util::Bytes input = lz77_input(rng, k);
    const int probes = kProbes[(k / 4) % std::size(kProbes)];
    ASSERT_TRUE(lz77_matches_reference(input, probes))
        << "input " << k << " n=" << input.size() << " probes=" << probes;
  }
}

TEST(Lz77Reference, RepeatsAtTheWindowEdgeMatchTheReference) {
  // "ABCDEFGH" again `distance` bytes on, with a run of 'z' between: the
  // literal scan meets the repeat with the first copy as its bucket's
  // head, exactly one window back (65535: a match), one past it (65536:
  // out of window, and the same chain slot) and one short of it.
  for (const std::size_t distance : {65534u, 65535u, 65536u}) {
    util::Bytes input(distance + 8 + 5, 'z');
    for (std::size_t k = 0; k < 8; ++k) {
      input[k] = static_cast<std::uint8_t>('A' + k);
      input[distance + k] = static_cast<std::uint8_t>('A' + k);
    }
    for (const int probes : {1, 32}) {
      EXPECT_TRUE(lz77_matches_reference(input, probes))
          << "distance " << distance << " probes " << probes;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Lz77ReferenceP,
                         ::testing::Values(4u, 44u, 444u, 4444u));

class XteaP : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(XteaP, CtrInvolutionAcrossKeysNoncesSizes) {
  util::Rng rng(GetParam());
  for (int round = 0; round < 50; ++round) {
    util::Bytes secret(8 + rng.next_below(16));
    for (auto& b : secret) b = static_cast<std::uint8_t>(rng.next());
    const crypto::Key128 key = crypto::derive_key(secret);
    const std::uint64_t nonce = rng.next();
    const crypto::XteaCtr cipher(key, nonce);
    const util::Bytes plain = mixed_payload(rng, rng.next_below(300), 0.3);
    const util::Bytes sealed = cipher.apply(plain);
    EXPECT_EQ(cipher.apply(sealed), plain);
    if (plain.size() >= 16) {
      EXPECT_NE(sealed, plain);
      // A different nonce must give a different keystream.
      const crypto::XteaCtr other(key, nonce ^ 1);
      EXPECT_NE(other.apply(plain), sealed);
    }
  }
}

TEST_P(XteaP, MacRejectsEverySingleBitFlip) {
  util::Rng rng(GetParam() ^ 0xBEEF);
  const std::uint64_t key = rng.next();
  util::Bytes data = mixed_payload(rng, 64, 0.5);
  const std::uint64_t tag = crypto::mac64(key, data);
  for (std::size_t byte = 0; byte < data.size(); byte += 7) {
    for (int bit = 0; bit < 8; bit += 3) {
      data[byte] ^= static_cast<std::uint8_t>(1 << bit);
      EXPECT_NE(crypto::mac64(key, data), tag)
          << "byte " << byte << " bit " << bit;
      data[byte] ^= static_cast<std::uint8_t>(1 << bit);
    }
  }
  EXPECT_EQ(crypto::mac64(key, data), tag);
}

TEST_P(XteaP, SealIsApplyPlusMacAndOpenInvertsIt) {
  util::Rng rng(GetParam() ^ 0x5EA1);
  for (std::size_t size = 0; size <= 600; ++size) {
    crypto::Key128 key;
    for (auto& word : key) word = static_cast<std::uint32_t>(rng.next());
    const crypto::XteaCtr cipher(key, rng.next());
    const std::uint64_t mac_key = rng.next();
    const util::Bytes plain = mixed_payload(rng, size, 0.3);
    util::Bytes frame = plain;
    const std::uint64_t tag = cipher.seal(frame, mac_key);
    ASSERT_EQ(frame, cipher.apply(plain)) << "size " << size;
    ASSERT_EQ(tag, crypto::mac64(mac_key, frame)) << "size " << size;
    const util::Bytes sealed = frame;
    // A wrong tag, or a flipped bit anywhere in the ciphertext, fails and
    // releases nothing: the bytes stay as they arrived.
    ASSERT_FALSE(cipher.open(frame, mac_key, tag ^ 1)) << "size " << size;
    ASSERT_EQ(frame, sealed) << "size " << size;
    if (size != 0) {
      const std::size_t bit = rng.next_below(8 * size);
      frame[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      const util::Bytes tampered = frame;
      ASSERT_FALSE(cipher.open(frame, mac_key, tag))
          << "size " << size << " bit " << bit;
      ASSERT_EQ(frame, tampered) << "size " << size << " bit " << bit;
      frame = sealed;
    }
    ASSERT_TRUE(cipher.open(frame, mac_key, tag)) << "size " << size;
    ASSERT_EQ(frame, plain) << "size " << size;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, XteaP, ::testing::Values(1u, 12u, 123u));

}  // namespace
}  // namespace maqs
