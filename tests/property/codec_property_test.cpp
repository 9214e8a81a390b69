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
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

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
