#include <gtest/gtest.h>

#include <set>

#include "crypto/dh.hpp"
#include "crypto/mac.hpp"
#include "crypto/xtea.hpp"
#include "crypto/xtea_kernels.hpp"
#include "util/rng.hpp"

namespace maqs::crypto {
namespace {

using util::Bytes;

TEST(Xtea, ReferenceVector) {
  // XTEA with zero key, zero plaintext, 32 rounds:
  // well-known result DE E9 D4 D8 F7 13 1E D9 (big-endian v0,v1).
  const Key128 key{0, 0, 0, 0};
  const std::uint64_t ct = XteaCtr::encrypt_block(0, key);
  const std::uint32_t v0 = static_cast<std::uint32_t>(ct);
  const std::uint32_t v1 = static_cast<std::uint32_t>(ct >> 32);
  EXPECT_EQ(v0, 0xDEE9D4D8u);
  EXPECT_EQ(v1, 0xF7131ED9u);
}

TEST(Xtea, CtrIsInvolution) {
  const Key128 key = derive_key(util::to_bytes("secret"));
  XteaCtr ctr(key, /*nonce=*/7);
  util::Rng rng(1);
  for (std::size_t n : {0u, 1u, 7u, 8u, 9u, 1000u}) {
    Bytes plain(n);
    for (auto& b : plain) b = static_cast<std::uint8_t>(rng.next());
    const Bytes cipher = ctr.apply(plain);
    EXPECT_EQ(ctr.apply(cipher), plain) << "size " << n;
    if (n >= 8) {
      EXPECT_NE(cipher, plain);
    }
  }
}

TEST(Xtea, DifferentNoncesGiveDifferentStreams) {
  const Key128 key = derive_key(util::to_bytes("secret"));
  const Bytes plain(64, 0);
  EXPECT_NE(XteaCtr(key, 1).apply(plain), XteaCtr(key, 2).apply(plain));
}

TEST(Xtea, DifferentKeysGiveDifferentStreams) {
  const Bytes plain(64, 0);
  const Key128 k1 = derive_key(util::to_bytes("a"));
  const Key128 k2 = derive_key(util::to_bytes("b"));
  EXPECT_NE(XteaCtr(k1, 1).apply(plain), XteaCtr(k2, 1).apply(plain));
}

TEST(DeriveKey, DeterministicAndSensitive) {
  EXPECT_EQ(derive_key(util::to_bytes("x")), derive_key(util::to_bytes("x")));
  EXPECT_NE(derive_key(util::to_bytes("x")), derive_key(util::to_bytes("y")));
}

TEST(Modpow, SmallKnownValues) {
  EXPECT_EQ(modpow(2, 10, 1000), 24u);  // 1024 mod 1000
  EXPECT_EQ(modpow(3, 0, 7), 1u);
  EXPECT_EQ(modpow(5, 1, 7), 5u);
  EXPECT_EQ(modpow(7, 3, 11), 343 % 11);
  EXPECT_EQ(modpow(9, 5, 1), 0u);  // degenerate modulus
}

TEST(Modpow, LargeOperandsNoOverflow) {
  const std::uint64_t p = default_group().p;
  // Fermat: g^(p-1) = 1 mod p for prime p.
  EXPECT_EQ(modpow(default_group().g, p - 1, p), 1u);
}

TEST(Dh, SharedSecretAgrees) {
  util::Rng rng(99);
  const DhGroup& group = default_group();
  for (int i = 0; i < 20; ++i) {
    DhParty alice(group, 2 + rng.next_below(group.p - 4));
    DhParty bob(group, 2 + rng.next_below(group.p - 4));
    EXPECT_EQ(alice.shared_secret(bob.public_value()),
              bob.shared_secret(alice.public_value()));
  }
}

TEST(Dh, DifferentPrivatesDisagreeWithEavesdropper) {
  const DhGroup& group = default_group();
  DhParty alice(group, 123456789);
  DhParty bob(group, 987654321);
  DhParty eve(group, 55555);
  EXPECT_NE(eve.shared_secret(bob.public_value()),
            alice.shared_secret(bob.public_value()));
}

TEST(Dh, SecretBytesFeedKeyDerivation) {
  const DhGroup& group = default_group();
  DhParty alice(group, 111), bob(group, 222);
  const Bytes sa = alice.shared_secret_bytes(bob.public_value());
  const Bytes sb = bob.shared_secret_bytes(alice.public_value());
  EXPECT_EQ(sa, sb);
  EXPECT_EQ(sa.size(), 8u);
  EXPECT_EQ(derive_key(sa), derive_key(sb));
}

TEST(Mac, DetectsTampering) {
  const Bytes data = util::to_bytes("transfer 100 to account 7");
  const std::uint64_t tag = mac64(42, data);
  EXPECT_EQ(mac64(42, data), tag);
  Bytes tampered = data;
  tampered[9] = '9';
  EXPECT_NE(mac64(42, tampered), tag);
}

TEST(Mac, KeyDependent) {
  const Bytes data = util::to_bytes("hello");
  EXPECT_NE(mac64(1, data), mac64(2, data));
}

TEST(Mac, EmptyDataStillKeyed) {
  EXPECT_NE(mac64(1, Bytes{}), mac64(2, Bytes{}));
}

TEST(Xtea, BulkKeystreamMatchesScalarReference) {
  // apply() takes one 32-block kernel call per 256-byte chunk, a ragged
  // last chunk included, and the scalar cipher only for a remainder of at
  // most 8 bytes; every byte must still equal the scalar CTR reference
  // built from encrypt_block. Sizes straddle those edges: the scalar
  // remainder (1, 8, 264), the smallest kernel tail (9, 265), chunk edges
  // (255..257, 512) and multi-chunk payloads with ragged tails.
  const Key128 key = derive_key(util::to_bytes("kernel-parity"));
  const std::uint64_t nonce = 0x0123456789ABCDEFULL;
  util::Rng rng(7);
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{8},
                        std::size_t{9}, std::size_t{255}, std::size_t{256},
                        std::size_t{257}, std::size_t{264}, std::size_t{265},
                        std::size_t{512}, std::size_t{4097},
                        std::size_t{4101}}) {
    Bytes plain(n);
    for (auto& b : plain) b = static_cast<std::uint8_t>(rng.next());
    Bytes expected = plain;
    std::uint64_t counter = 0;
    for (std::size_t i = 0; i < expected.size(); counter++) {
      const std::uint64_t ks = XteaCtr::encrypt_block(nonce ^ counter, key);
      for (int b = 0; b < 8 && i < expected.size(); ++b, ++i) {
        expected[i] ^= static_cast<std::uint8_t>(ks >> (8 * b));
      }
    }
    EXPECT_EQ(XteaCtr(key, nonce).apply(plain), expected) << "size " << n;
  }
}

TEST(Xtea, EveryRunnableKernelMatchesScalarCipherAndMac) {
  // The dispatcher runs only the best kernel this host supports; this
  // runs each of them, with the MAC words each one absorbs in its rounds.
  const Key128 key = derive_key(util::to_bytes("every-kernel"));
  util::Rng rng(21);
  std::uint64_t in[32] = {};
  for (auto& block : in) block = rng.next();
  int ran = 0;
  for (const detail::Block32Kernel& kernel : detail::block32_kernels()) {
    if (!kernel.supported()) continue;
    ++ran;
    for (const std::size_t n_words : {0u, 5u, 32u}) {
      // Exact-size buffer: ASan flags a read past the last word.
      Bytes words(8 * n_words);
      for (auto& b : words) b = static_cast<std::uint8_t>(rng.next());
      std::uint64_t out[32] = {};
      Mac64 mac(77);
      kernel.run(key, in, out, mac, words.data(), n_words);
      for (int k = 0; k < 32; ++k) {
        EXPECT_EQ(out[k], XteaCtr::encrypt_block(in[k], key))
            << kernel.name << " lane " << k;
      }
      EXPECT_EQ(mac.finish(words.size()), mac64(77, words))
          << kernel.name << " words " << n_words;
    }
  }
  // The last kernel in the list is the one every host can run.
  EXPECT_GE(ran, 1);
  EXPECT_TRUE(detail::block32_kernels().back().supported());
}

TEST(Mac, EveryBitPositionAffectsTag) {
  // Word-wide processing must not create dead bits: flipping any single
  // bit of the message — head word, middle, or zero-padded tail — changes
  // the tag.
  Bytes data(41, 0);
  util::Rng rng(11);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
  const std::uint64_t tag = mac64(99, data);
  for (std::size_t byte = 0; byte < data.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes flipped = data;
      flipped[byte] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_NE(mac64(99, flipped), tag) << "byte " << byte << " bit " << bit;
    }
  }
}

TEST(Mac, TrailingZerosDistinguishedByLength) {
  // The tail word is zero-padded, so only the folded length separates
  // "...x00" from its shorter prefix; every prefix of an all-zero buffer
  // must still hash differently.
  Bytes zeros(24, 0);
  std::set<std::uint64_t> tags;
  for (std::size_t n = 0; n <= zeros.size(); ++n) {
    tags.insert(mac64(5, util::BytesView(zeros.data(), n)));
  }
  EXPECT_EQ(tags.size(), zeros.size() + 1);
}

}  // namespace
}  // namespace maqs::crypto
