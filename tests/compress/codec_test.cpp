#include "compress/codec.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "compress/lz77.hpp"
#include "compress/lz77_kernels.hpp"
#include "compress/rle.hpp"
#include "util/rng.hpp"

namespace maqs::compress {
namespace {

using util::Bytes;

Bytes random_bytes(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  Bytes b(n);
  for (auto& byte : b) byte = static_cast<std::uint8_t>(rng.next());
  return b;
}

Bytes compressible_bytes(std::size_t n, std::uint64_t seed) {
  // Repeating phrases with occasional noise: typical structured payload.
  util::Rng rng(seed);
  const std::string phrase = "quality-of-service middleware telemetry ";
  Bytes b;
  while (b.size() < n) {
    if (rng.chance(0.1)) {
      b.push_back(static_cast<std::uint8_t>(rng.next()));
    } else {
      for (char c : phrase) {
        if (b.size() >= n) break;
        b.push_back(static_cast<std::uint8_t>(c));
      }
    }
  }
  b.resize(n);
  return b;
}

// ---- parameterized round-trip sweep over all codecs ----

class CodecRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(CodecRoundTrip, EmptyInput) {
  auto codec = make_codec(GetParam());
  EXPECT_TRUE(codec->decompress(codec->compress(Bytes{})).empty());
}

TEST_P(CodecRoundTrip, SingleByte) {
  auto codec = make_codec(GetParam());
  const Bytes in{0x42};
  EXPECT_EQ(codec->decompress(codec->compress(in)), in);
}

TEST_P(CodecRoundTrip, AllByteValues) {
  auto codec = make_codec(GetParam());
  Bytes in;
  for (int i = 0; i < 256; ++i) in.push_back(static_cast<std::uint8_t>(i));
  EXPECT_EQ(codec->decompress(codec->compress(in)), in);
}

TEST_P(CodecRoundTrip, LongUniformRun) {
  auto codec = make_codec(GetParam());
  const Bytes in(100000, 0xAA);
  EXPECT_EQ(codec->decompress(codec->compress(in)), in);
}

TEST_P(CodecRoundTrip, RandomData) {
  auto codec = make_codec(GetParam());
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const Bytes in = random_bytes(4096, seed);
    EXPECT_EQ(codec->decompress(codec->compress(in)), in) << "seed " << seed;
  }
}

TEST_P(CodecRoundTrip, CompressibleData) {
  auto codec = make_codec(GetParam());
  const Bytes in = compressible_bytes(20000, 7);
  EXPECT_EQ(codec->decompress(codec->compress(in)), in);
}

TEST_P(CodecRoundTrip, ManySmallSizes) {
  auto codec = make_codec(GetParam());
  for (std::size_t n = 0; n < 64; ++n) {
    const Bytes in = random_bytes(n, 100 + n);
    EXPECT_EQ(codec->decompress(codec->compress(in)), in) << "size " << n;
  }
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, CodecRoundTrip,
                         ::testing::Values("identity", "rle", "lz77"));

// ---- codec-specific behaviour ----

TEST(Identity, IsByteExactAndSizePreserving) {
  IdentityCodec codec;
  const Bytes in = random_bytes(100, 1);
  EXPECT_EQ(codec.compress(in), in);
  EXPECT_EQ(codec.name(), "identity");
}

TEST(Rle, CompressesRunsWell) {
  RleCodec codec;
  const Bytes in(10000, 0x00);
  const Bytes out = codec.compress(in);
  EXPECT_LT(out.size(), 100u);  // ~40 pairs of (255, 0)
}

TEST(Rle, WorstCaseBoundedAtTwoX) {
  RleCodec codec;
  Bytes in;
  for (int i = 0; i < 1000; ++i) in.push_back(static_cast<std::uint8_t>(i));
  EXPECT_LE(codec.compress(in).size(), 2 * in.size());
}

TEST(Rle, RejectsTruncatedStream) {
  RleCodec codec;
  EXPECT_THROW(codec.decompress(Bytes{5}), CodecError);
}

TEST(Rle, RejectsZeroRun) {
  RleCodec codec;
  EXPECT_THROW(codec.decompress(Bytes{0, 0x41}), CodecError);
}

TEST(Lz77, CompressesRepetitiveTextWell) {
  Lz77Codec codec;
  const Bytes in = compressible_bytes(50000, 3);
  const Bytes out = codec.compress(in);
  EXPECT_LT(out.size(), in.size() / 3);
}

TEST(Lz77, HandlesOverlappingMatches) {
  Lz77Codec codec;
  // "abcabcabc..." forces overlapping back-references.
  Bytes in;
  for (int i = 0; i < 5000; ++i) in.push_back("abc"[i % 3]);
  EXPECT_EQ(codec.decompress(codec.compress(in)), in);
  EXPECT_LT(codec.compress(in).size(), 100u);
}

TEST(Lz77, ProbeDepthTradesRatioForSpeed) {
  const Bytes in = compressible_bytes(30000, 9);
  const auto shallow = Lz77Codec(1).compress(in);
  const auto deep = Lz77Codec(128).compress(in);
  EXPECT_LE(deep.size(), shallow.size());
  EXPECT_EQ(Lz77Codec().decompress(shallow), in);
  EXPECT_EQ(Lz77Codec().decompress(deep), in);
}

TEST(Lz77, RejectsBadTag) {
  Lz77Codec codec;
  EXPECT_THROW(codec.decompress(Bytes{0x02, 0, 0}), CodecError);
}

TEST(Lz77, RejectsOutOfWindowReference) {
  Lz77Codec codec;
  // match token: offset 10 with empty output so far
  EXPECT_THROW(codec.decompress(Bytes{0x01, 10, 0, 8, 0}), CodecError);
}

TEST(Lz77, RejectsTruncatedLiteralRun) {
  Lz77Codec codec;
  EXPECT_THROW(codec.decompress(Bytes{0x00, 10, 0, 'a'}), CodecError);
}

TEST(Lz77, RejectsZeroLengthLiteralRun) {
  Lz77Codec codec;
  EXPECT_THROW(codec.decompress(Bytes{0x00, 0, 0}), CodecError);
}

// ---- streaming-path contracts: output bounds and compress_into ----

TEST(Lz77, CompressedSizeNeverExceedsAdvertisedBound) {
  // compress() sizes its buffer by max_compressed_size() + 1; the
  // expansion guard (stored-block fallback) must hold the promise even on
  // adversarial inputs where match tokens would expand the stream.
  Lz77Codec codec;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    for (std::size_t n : {std::size_t{4}, std::size_t{5}, std::size_t{64},
                          std::size_t{1000}, std::size_t{70000}}) {
      // Worst case for token expansion: minimum-length (4-byte) matches
      // everywhere, each costing a 5-byte token.
      util::Rng rng(seed);
      Bytes nasty(n);
      for (std::size_t i = 0; i < n; ++i) {
        nasty[i] = static_cast<std::uint8_t>((i / 4) % 2 == 0
                                                 ? 0xAB
                                                 : rng.next());
      }
      const Bytes packed = codec.compress(nasty);
      EXPECT_LE(packed.size(), codec.max_compressed_size(n))
          << "seed " << seed << " n " << n;
      EXPECT_EQ(codec.decompress(packed), nasty);
    }
  }
}

/// The bounded compress_into contract around the stream length s: a
/// budget of s or less returns the budget, a budget of s + 1 or more
/// returns exactly compress()'s bytes, and nothing lands past the budget.
void expect_bounded_contract(const Codec& codec, const Bytes& input) {
  const Bytes stream = codec.compress(input);
  const std::size_t s = stream.size();
  constexpr std::size_t kGuard = 16;
  constexpr std::uint8_t kGuardByte = 0xA5;
  for (const std::size_t budget :
       {std::size_t{0}, s / 2, s == 0 ? 0 : s - 1, s, s + 1, s + 64}) {
    Bytes buf(budget + kGuard, kGuardByte);
    const std::size_t got =
        codec.compress_into(input, {buf.data(), budget});
    EXPECT_TRUE(std::all_of(buf.begin() + static_cast<std::ptrdiff_t>(budget),
                            buf.end(),
                            [](std::uint8_t b) { return b == kGuardByte; }))
        << codec.name() << " wrote past budget " << budget;
    if (budget <= s) {
      EXPECT_EQ(got, budget) << codec.name() << " s=" << s;
    } else {
      ASSERT_EQ(got, s) << codec.name() << " budget=" << budget;
      EXPECT_TRUE(std::equal(stream.begin(), stream.end(), buf.begin()))
          << codec.name() << " budget=" << budget;
    }
  }
}

TEST(Lz77, CompressIntoMatchesCompressAndChecksCapacity) {
  Lz77Codec codec;
  expect_bounded_contract(codec, compressible_bytes(4096, 3));
  // Noise takes the stored-form fallback, which must obey the same rule.
  expect_bounded_contract(codec, random_bytes(300, 9));
  expect_bounded_contract(codec, Bytes{1, 2, 3});
  expect_bounded_contract(codec, Bytes{});
}

TEST(Rle, CompressIntoMatchesCompressAndChecksCapacity) {
  RleCodec codec;
  expect_bounded_contract(codec, compressible_bytes(1024, 5));
  expect_bounded_contract(codec, Bytes(700, 0x11));
  expect_bounded_contract(codec, Bytes{});
}

TEST(Identity, CompressIntoMatchesCompressAndChecksCapacity) {
  IdentityCodec codec;
  expect_bounded_contract(codec, random_bytes(100, 4));
  expect_bounded_contract(codec, Bytes{});
}

TEST(Lz77, IncompressibleInputStaysWithinStoredForm) {
  // Pure noise: no matches survive, so the stored form (3-byte run
  // headers) is the worst case and the guard must keep us at it.
  Lz77Codec codec;
  const Bytes noise = random_bytes(100000, 17);
  const Bytes packed = codec.compress(noise);
  EXPECT_LE(packed.size(), codec.max_compressed_size(noise.size()));
  EXPECT_EQ(codec.decompress(packed), noise);
}

TEST(Lz77, EveryRunnableMatchKernelAgreesWithScalar) {
  // The codec runs only the best kernel this host supports; this runs each
  // of them at every common-prefix length up to every limit from 0 to 100,
  // so each side of the 8- and 32-byte steps and the byte tail after them
  // is covered.
  util::Rng rng(24);
  int ran = 0;
  for (const detail::MatchKernel& kernel : detail::match_kernels()) {
    if (!kernel.supported()) continue;
    ++ran;
    for (std::size_t limit = 0; limit <= 100; ++limit) {
      for (std::size_t prefix = 0; prefix <= limit; ++prefix) {
        // Exact-size buffers: ASan flags a read at or past either limit.
        Bytes a(limit);
        for (auto& b : a) b = static_cast<std::uint8_t>(rng.next());
        Bytes b = a;
        if (prefix < limit) {
          b[prefix] ^= static_cast<std::uint8_t>(1 + rng.next_below(255));
        }
        // Bytes after the first difference must not matter.
        for (std::size_t k = prefix + 1; k < limit; ++k) {
          if (rng.chance(0.5)) b[k] = static_cast<std::uint8_t>(rng.next());
        }
        std::size_t scalar = 0;
        while (scalar < limit && a[scalar] == b[scalar]) ++scalar;
        ASSERT_EQ(scalar, prefix);
        EXPECT_EQ(kernel.run(a.data(), b.data(), limit), scalar)
            << kernel.name << " limit " << limit;
      }
    }
  }
  // The last kernel in the list is the one every host can run.
  EXPECT_GE(ran, 1);
  EXPECT_TRUE(detail::match_kernels().back().supported());
}

TEST(Factory, UnknownNameThrows) {
  EXPECT_THROW(make_codec("zstd"), CodecError);
}

TEST(Factory, NamesMatch) {
  EXPECT_EQ(make_codec("rle")->name(), "rle");
  EXPECT_EQ(make_codec("lz77")->name(), "lz77");
}

}  // namespace
}  // namespace maqs::compress
