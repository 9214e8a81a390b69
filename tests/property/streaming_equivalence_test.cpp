// Streaming-vs-legacy wire equivalence for the transform pipeline.
//
// The TransformChain pipeline (core/transform.hpp) replaced the
// copy-per-stage transform hooks, and its one contract is that the wire
// bytes did not move: every frame a streaming stage emits must be
// byte-identical to the frame the legacy Bytes-in/Bytes-out path built.
// This suite recomposes the legacy frames from the public codec/crypto
// primitives — marker octet + codec stream for compression,
// [epoch:i64][mac:u64][XTEA-CTR ciphertext] for encryption — and checks
// the chain against them over randomized payloads, for every stack shape
// ({RLE, LZ77} x {cipher on/off} x {MAC on/off}), both directions.
//
// A last group pins the composite mediator against the same reference:
// its one fused run must seal request frames byte-identical to the legacy
// stack and open legacy reply frames, wherever a stage-less member sits.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "characteristics/compression.hpp"
#include "characteristics/encryption.hpp"
#include "compress/codec.hpp"
#include "core/mediator.hpp"
#include "core/transform.hpp"
#include "crypto/mac.hpp"
#include "crypto/xtea.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace maqs::testing {
namespace {

using characteristics::CompressionTransform;
using characteristics::EncryptionTransform;
using characteristics::PskKeySource;

// ---- legacy frame reference (public primitives only) ----

/// Wire constants pinned here on purpose: if the pipeline ever changes
/// them, this suite must fail rather than follow along.
constexpr std::uint64_t kReplyNonceFlip = 0x8000000000000001ULL;

std::uint64_t legacy_nonce(std::uint64_t request_id, bool reply) {
  return reply ? request_id ^ kReplyNonceFlip : request_id;
}

std::uint64_t legacy_fingerprint(const crypto::Key128& key) {
  return (static_cast<std::uint64_t>(key[0]) << 32 | key[1]) ^
         (static_cast<std::uint64_t>(key[2]) << 32 | key[3]);
}

void append_le64(util::Bytes& out, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
  }
}

/// Legacy compression frame: marker octet (0 = raw, 1 = compressed) +
/// stream; raw whenever the payload is below min_size or the codec fails
/// to shrink it.
util::Bytes legacy_compress(const compress::Codec& codec,
                            std::int64_t min_size, util::BytesView payload) {
  util::Bytes frame;
  if (static_cast<std::int64_t>(payload.size()) >= min_size) {
    const util::Bytes compressed = codec.compress(payload);
    if (compressed.size() < payload.size()) {
      frame.reserve(1 + compressed.size());
      frame.push_back(0x01);
      frame.insert(frame.end(), compressed.begin(), compressed.end());
      return frame;
    }
  }
  frame.reserve(1 + payload.size());
  frame.push_back(0x00);
  frame.insert(frame.end(), payload.begin(), payload.end());
  return frame;
}

/// Legacy encryption frame: [epoch:i64 LE][mac:u64 LE][ciphertext], tag
/// computed over the ciphertext (0 when integrity is off).
util::Bytes legacy_encrypt(const crypto::Key128& key, bool integrity,
                           std::int64_t epoch, std::uint64_t nonce,
                           util::BytesView plain) {
  const util::Bytes cipher = crypto::XteaCtr(key, nonce).apply(plain);
  util::Bytes frame;
  frame.reserve(16 + cipher.size());
  append_le64(frame, static_cast<std::uint64_t>(epoch));
  append_le64(frame,
              integrity ? crypto::mac64(legacy_fingerprint(key), cipher) : 0);
  frame.insert(frame.end(), cipher.begin(), cipher.end());
  return frame;
}

/// Mixed-compressibility payload: runs of a repeated byte interleaved
/// with incompressible noise, so both codec branches (shrunk and raw
/// fallback) get exercised.
util::Bytes random_payload(util::Rng& rng, std::size_t max_size) {
  const std::size_t size = rng.next_below(max_size + 1);
  util::Bytes data;
  data.reserve(size);
  while (data.size() < size) {
    const std::size_t left = size - data.size();
    if (rng.next_below(2) == 0) {
      const std::size_t run = std::min<std::size_t>(1 + rng.next_below(64),
                                                    left);
      data.insert(data.end(), run, static_cast<std::uint8_t>(rng.next()));
    } else {
      const std::size_t run = std::min<std::size_t>(1 + rng.next_below(32),
                                                    left);
      for (std::size_t i = 0; i < run; ++i) {
        data.push_back(static_cast<std::uint8_t>(rng.next()));
      }
    }
  }
  return data;
}

constexpr std::int64_t kMinSize = 64;

// ---- streaming chain vs legacy frames ----

/// (codec name, encrypt?, integrity?, seed)
using StackParam = std::tuple<std::string, bool, bool, std::uint64_t>;

class StreamingEquivalenceP : public ::testing::TestWithParam<StackParam> {};

TEST_P(StreamingEquivalenceP, ChainMatchesLegacyFramesAndInverts) {
  const auto& [codec_name, encrypt, integrity, seed] = GetParam();
  util::Rng rng(seed);

  CompressionTransform compression;
  compression.set_codec(compress::make_codec(codec_name));
  compression.set_min_size(kMinSize);

  PskKeySource source;
  const crypto::Key128 key =
      crypto::derive_key(util::to_bytes("equivalence-secret"));
  source.configure(key, integrity);
  EncryptionTransform encryption(source);

  core::TransformChain chain;
  chain.add(&compression);
  if (encrypt) chain.add(&encryption);

  // Independent codec instance for the reference: the streaming chain's
  // output must not depend on the codec's internal match-history state.
  const std::unique_ptr<compress::Codec> ref_codec =
      compress::make_codec(codec_name);

  for (int i = 0; i < 40; ++i) {
    const util::Bytes payload = random_payload(rng, 8192);
    const std::uint64_t request_id = rng.next();
    for (const bool reply : {false, true}) {
      util::Bytes expected = legacy_compress(*ref_codec, kMinSize, payload);
      if (encrypt) {
        expected = legacy_encrypt(key, integrity, 0,
                                  legacy_nonce(request_id, reply), expected);
      }

      util::Bytes body = payload;
      const core::TransformContext ctx{request_id, reply};
      chain.run_forward(body, ctx);
      ASSERT_EQ(body, expected)
          << codec_name << " encrypt=" << encrypt
          << " integrity=" << integrity << " reply=" << reply << " i=" << i;

      chain.run_reverse(body, ctx);
      ASSERT_EQ(body, payload) << codec_name << " i=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    StacksAndSeeds, StreamingEquivalenceP,
    ::testing::Combine(::testing::Values(std::string("rle"),
                                         std::string("lz77")),
                       ::testing::Bool(), ::testing::Bool(),
                       ::testing::Values(11u, 1234u)));

TEST(StreamingEquivalenceTest, BoundarySizesMatchLegacyFrames) {
  CompressionTransform compression;
  compression.set_codec(compress::make_codec("lz77"));
  compression.set_min_size(kMinSize);
  core::TransformChain chain;
  chain.add(&compression);
  const std::unique_ptr<compress::Codec> ref_codec =
      compress::make_codec("lz77");

  // Straddle the min_size threshold (raw below, codec decision at/above)
  // and the empty frame.
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{63}, std::size_t{64},
        std::size_t{65}, std::size_t{4096}}) {
    const util::Bytes payload(n, 0x5A);
    const util::Bytes expected = legacy_compress(*ref_codec, kMinSize,
                                                 payload);
    util::Bytes body = payload;
    chain.run_forward(body, {7, false});
    ASSERT_EQ(body, expected) << "n=" << n;
    chain.run_reverse(body, {7, false});
    ASSERT_EQ(body, payload) << "n=" << n;
  }
}

TEST(StreamingEquivalenceTest, IncompressiblePayloadShipsRawFrame) {
  CompressionTransform compression;
  compression.set_codec(compress::make_codec("lz77"));
  compression.set_min_size(kMinSize);
  core::TransformChain chain;
  chain.add(&compression);

  // High-entropy payload: LZ77 cannot shrink it, so the expansion guard
  // plus the raw-marker decision must ship it stored, one byte larger.
  util::Rng rng(99);
  util::Bytes payload(1024);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next());

  util::Bytes body = payload;
  chain.run_forward(body, {1, false});
  ASSERT_EQ(body.size(), payload.size() + 1);
  EXPECT_EQ(body[0], 0x00);
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(), body.begin() + 1));
  chain.run_reverse(body, {1, false});
  EXPECT_EQ(body, payload);
}

// ---- codec streams at the raw/compressed decision boundary ----

/// rle payload of n bytes built from runs of two, with one run of three
/// (n odd, stream n - 1), none (n even, stream n) or one run of one
/// (n odd, stream n + 1) at `odd_at` pairs in.
util::Bytes rle_boundary_payload(util::Rng& rng, std::size_t pairs,
                                 std::size_t odd_run, std::size_t odd_at) {
  util::Bytes data;
  auto append_run = [&](std::size_t len) {
    auto b = static_cast<std::uint8_t>(rng.next());
    if (!data.empty() && b == data.back()) b ^= 0x01;
    data.insert(data.end(), len, b);
  };
  for (std::size_t k = 0; k < pairs; ++k) {
    if (k == odd_at && odd_run != 0) append_run(odd_run);
    append_run(2);
  }
  return data;
}

/// lz77 payload: `noise` random bytes, then a repeat of their first
/// `repeat` bytes, so the stream is 3 + noise literals + one 5-byte match
/// token = n - repeat + 8.
util::Bytes lz77_boundary_payload(util::Rng& rng, std::size_t noise,
                                  std::size_t repeat) {
  util::Bytes data(noise);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
  data.insert(data.end(), data.begin(),
              data.begin() + static_cast<std::ptrdiff_t>(repeat));
  return data;
}

/// A payload and its codec stream length minus its own length n.
struct BoundaryCase {
  util::Bytes payload;
  std::ptrdiff_t stream_minus_n;
};

std::vector<BoundaryCase> boundary_cases(const std::string& codec_name,
                                         util::Rng& rng) {
  std::vector<BoundaryCase> cases;
  for (const std::size_t pairs : {std::size_t{40}, std::size_t{2048}}) {
    if (codec_name == "rle") {
      for (const std::size_t at : {std::size_t{0}, pairs / 2, pairs - 1}) {
        cases.push_back({rle_boundary_payload(rng, pairs, 3, at), -1});
        cases.push_back({rle_boundary_payload(rng, pairs, 1, at), +1});
      }
      cases.push_back({rle_boundary_payload(rng, pairs, 0, 0), 0});
    } else {
      for (const std::size_t repeat : {9, 8, 7}) {
        cases.push_back({lz77_boundary_payload(rng, 2 * pairs, repeat),
                         8 - static_cast<std::ptrdiff_t>(repeat)});
      }
    }
  }
  return cases;
}

/// (codec name, encrypt?)
using BoundaryParam = std::tuple<std::string, bool>;

class DecisionBoundaryP : public ::testing::TestWithParam<BoundaryParam> {};

TEST_P(DecisionBoundaryP, StreamOfNMinusOneNOrNPlusOneMatchesLegacyFrame) {
  const auto& [codec_name, encrypt] = GetParam();
  util::Rng rng(codec_name == "rle" ? 71 : 72);

  CompressionTransform compression;
  compression.set_codec(compress::make_codec(codec_name));
  compression.set_min_size(kMinSize);
  PskKeySource source;
  const crypto::Key128 key =
      crypto::derive_key(util::to_bytes("boundary-secret"));
  source.configure(key, true);
  EncryptionTransform encryption(source);
  core::TransformChain chain;
  chain.add(&compression);
  if (encrypt) chain.add(&encryption);
  const std::unique_ptr<compress::Codec> ref_codec =
      compress::make_codec(codec_name);

  for (const BoundaryCase& c : boundary_cases(codec_name, rng)) {
    const auto n = static_cast<std::ptrdiff_t>(c.payload.size());
    // The payload recipe really lands on the boundary it names.
    const util::Bytes stream = ref_codec->compress(c.payload);
    ASSERT_EQ(static_cast<std::ptrdiff_t>(stream.size()),
              n + c.stream_minus_n)
        << codec_name << " n=" << n;
    const util::Bytes legacy =
        legacy_compress(*ref_codec, kMinSize, c.payload);
    ASSERT_EQ(legacy[0], c.stream_minus_n < 0 ? 0x01 : 0x00)
        << codec_name << " n=" << n;

    const std::uint64_t request_id = rng.next();
    const util::Bytes expected =
        encrypt ? legacy_encrypt(key, true, 0, legacy_nonce(request_id, false),
                                 legacy)
                : legacy;
    util::Bytes body = c.payload;
    chain.run_forward(body, {request_id, false});
    ASSERT_EQ(body, expected) << codec_name << " encrypt=" << encrypt
                              << " n=" << n << " d=" << c.stream_minus_n;
    chain.run_reverse(body, {request_id, false});
    ASSERT_EQ(body, c.payload) << codec_name << " n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Codecs, DecisionBoundaryP,
    ::testing::Combine(::testing::Values(std::string("rle"),
                                         std::string("lz77")),
                       ::testing::Bool()));

// ---- composite mediator vs legacy frames ----

/// A mediator with hooks but no payload stage: wherever it sits in a
/// composite, the other members' stages still fuse into one run.
class PassThroughMediator final : public core::Mediator {
 public:
  PassThroughMediator() : core::Mediator("PassThrough") {}
  void outbound(orb::RequestMessage&) override {}
  void inbound(const orb::RequestMessage&, orb::ReplyMessage&) override {}
};

core::Agreement compression_agreement() {
  core::Agreement agreement;
  agreement.characteristic = characteristics::compression_name();
  agreement.params = characteristics::compression_descriptor()
                         .validate_params({});
  return agreement;
}

core::Agreement encryption_agreement(const std::string& psk) {
  core::Agreement agreement;
  agreement.characteristic = characteristics::encryption_name();
  agreement.params = characteristics::encryption_descriptor().validate_params(
      {{"psk", cdr::Any::from_string(psk)}});
  return agreement;
}

/// Compression then encryption, with a PassThroughMediator inserted at
/// index `pass_through` (none when negative).
std::shared_ptr<core::CompositeMediator> woven_composite(int pass_through) {
  auto compression =
      std::make_shared<characteristics::CompressionMediator>();
  compression->bind_agreement(compression_agreement());
  auto encryption = std::make_shared<characteristics::EncryptionMediator>();
  encryption->bind_agreement(encryption_agreement("fused-vs-legacy"));
  std::vector<std::shared_ptr<core::Mediator>> members{compression,
                                                       encryption};
  if (pass_through >= 0) {
    members.insert(members.begin() + pass_through,
                   std::make_shared<PassThroughMediator>());
  }
  auto composite = std::make_shared<core::CompositeMediator>();
  for (auto& member : members) composite->add(std::move(member));
  return composite;
}

/// Legacy frame of the woven stack above — compress, then encrypt under
/// the request or reply nonce — with the same defaults the mediators
/// bound (lz77, min_size 64, integrity on, the "fused-vs-legacy"
/// pre-shared key).
util::Bytes legacy_seal(util::BytesView payload, std::uint64_t request_id,
                        bool reply) {
  const std::unique_ptr<compress::Codec> codec = compress::make_codec("lz77");
  const crypto::Key128 key =
      crypto::derive_key(util::to_bytes("fused-vs-legacy"));
  return legacy_encrypt(key, true, 0, legacy_nonce(request_id, reply),
                        legacy_compress(*codec, kMinSize, payload));
}

TEST(StreamingEquivalenceTest, CompositeMatchesLegacyFrames) {
  for (const int pass_through : {-1, 0, 1, 2}) {
    auto composite = woven_composite(pass_through);
    util::Rng rng(4242);
    for (int i = 0; i < 25; ++i) {
      const util::Bytes payload = random_payload(rng, 4096);
      orb::RequestMessage req;
      req.request_id = 1000 + static_cast<std::uint64_t>(i);
      req.body = payload;
      composite->outbound(req);
      ASSERT_EQ(req.body, legacy_seal(payload, req.request_id, false))
          << "pass_through=" << pass_through << " i=" << i;

      // Reply path: a server-sealed legacy frame must invert back to the
      // payload.
      orb::ReplyMessage rep;
      rep.status = orb::ReplyStatus::kOk;
      rep.body = legacy_seal(payload, req.request_id, true);
      composite->inbound(req, rep);
      ASSERT_EQ(rep.body, payload)
          << "pass_through=" << pass_through << " i=" << i;
    }
  }
}

}  // namespace
}  // namespace maqs::testing
