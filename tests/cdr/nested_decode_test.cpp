// Nested decoders of peer-supplied streams keep their memory a fixed
// multiple of the input, whatever the nesting depth. Each stream below
// claims the largest element count read_count lets through at every level
// and then runs out, so a decoder that reserved for a count before reading
// its elements would hold one such reservation per level.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cdr/any.hpp"
#include "cdr/decoder.hpp"
#include "cdr/encoder.hpp"
#include "cdr/typecode.hpp"
#include "qidl/generated_support.hpp"
#include "support/heap_meter.hpp"

namespace maqs::cdr {
namespace {

namespace heap = maqs::testing::heap;

/// Peak live bytes during `decode`, above those live before it.
template <typename Decode>
std::size_t peak_during(Decode&& decode) {
  const std::size_t before = heap::live_bytes();
  heap::reset_peak();
  decode();
  return heap::peak_bytes() - before;
}

/// `levels` counts, each as large as the octets after it allow, then
/// `tail` octets of 0x01.
util::Bytes counts_then_tail(int levels, std::size_t tail) {
  const std::size_t size = 4 * static_cast<std::size_t>(levels) + tail;
  Encoder enc;
  for (int level = 1; level <= levels; ++level) {
    enc.write_u32(static_cast<std::uint32_t>(size - 4 * level));
  }
  enc.write_raw(util::Bytes(tail, 0x01));
  return enc.take();
}

/// Innermost payloads: a short one, where the open levels' reservations
/// dominate, and a long one, where the innermost elements do.
constexpr std::size_t kTails[] = {16, 16 * 1024};
/// Bound on peak heap per input octet: the decode's reservation budget,
/// an Any per 4-octet long, and vector doubling with the old and new block
/// live during a regrowth.
constexpr std::size_t kMaxBytesPerOctet = 64;

TEST(NestedDecode, AnySequencePeakIsAFixedMultipleOfInput) {
  for (const std::size_t tail : kTails) {
    for (const int depth : {1, 2, 8, 32, 63}) {
      TypeCodePtr type = TypeCode::long_tc();
      for (int i = 0; i < depth; ++i) type = TypeCode::sequence_tc(type);
      const util::Bytes stream = counts_then_tail(depth, tail);
      const std::size_t peak = peak_during([&] {
        Decoder dec{util::BytesView(stream)};
        EXPECT_THROW(Any::decode_value(dec, type), CdrError) << depth;
      });
      EXPECT_LE(peak, kMaxBytesPerOctet * stream.size())
          << "depth " << depth << " tail " << tail;
    }
  }
}

/// A struct TypeCode nested `depth` deep whose innermost struct claims a
/// member count as large as the stream allows and then runs out. Each
/// level: struct kind, empty name, the count, then (except innermost) the
/// first member's empty name; innermost members are (empty name, long).
util::Bytes nested_struct_typecode(int depth, std::size_t tail) {
  const std::size_t members = tail / 5;
  const std::size_t size =
      13 * static_cast<std::size_t>(depth - 1) + 9 + 5 * members;
  Encoder enc;
  for (int level = 0; level < depth; ++level) {
    enc.write_u8(static_cast<std::uint8_t>(TCKind::kStruct));
    enc.write_string("");
    enc.write_u32(static_cast<std::uint32_t>(size - enc.size() - 4));
    if (level + 1 < depth) enc.write_string("");
  }
  for (std::size_t i = 0; i < members; ++i) {
    enc.write_string("");
    enc.write_u8(static_cast<std::uint8_t>(TCKind::kLong));
  }
  return enc.take();
}

TEST(NestedDecode, TypeCodeStructPeakIsAFixedMultipleOfInput) {
  for (const std::size_t tail : kTails) {
    for (const int depth : {1, 2, 8, 32, 63}) {
      const util::Bytes stream = nested_struct_typecode(depth, tail);
      const std::size_t peak = peak_during([&] {
        Decoder dec{util::BytesView(stream)};
        EXPECT_THROW(TypeCode::decode(dec), CdrError) << depth;
      });
      EXPECT_LE(peak, kMaxBytesPerOctet * stream.size())
          << "depth " << depth << " tail " << tail;
    }
  }
}

template <typename T>
void expect_generated_read_bounded(int depth) {
  for (const std::size_t tail : kTails) {
    const util::Bytes stream = counts_then_tail(depth, tail);
    const std::size_t peak = peak_during([&] {
      Decoder dec{util::BytesView(stream)};
      T value;
      EXPECT_THROW(qidl::gen::read(dec, value), CdrError) << depth;
    });
    EXPECT_LE(peak, kMaxBytesPerOctet * stream.size())
        << "depth " << depth << " tail " << tail;
  }
}

TEST(NestedDecode, GeneratedVectorReadPeakIsAFixedMultipleOfInput) {
  using V1 = std::vector<std::int32_t>;
  using V2 = std::vector<V1>;
  using V4 = std::vector<std::vector<V2>>;
  using V8 = std::vector<std::vector<std::vector<std::vector<V4>>>>;
  expect_generated_read_bounded<V1>(1);
  expect_generated_read_bounded<V2>(2);
  expect_generated_read_bounded<V4>(4);
  expect_generated_read_bounded<V8>(8);
}

TEST(NestedDecode, VoidSequencesShareOneAllowancePerDecode) {
  // sequence<sequence<void>>: 250 inner counts of 1,004 in 1,004 bytes.
  // Each inner count fits the stream on its own; together they would
  // decode to 251,000 Anys.
  constexpr std::uint32_t kInner = 250;
  Encoder enc;
  enc.write_u32(kInner);
  const auto size = static_cast<std::uint32_t>(4 + 4 * kInner);
  for (std::uint32_t i = 0; i < kInner; ++i) enc.write_u32(size);
  const util::Bytes stream = enc.take();
  ASSERT_EQ(stream.size(), size);
  const TypeCodePtr type =
      TypeCode::sequence_tc(TypeCode::sequence_tc(TypeCode::void_tc()));
  const std::size_t peak = peak_during([&] {
    Decoder dec{util::BytesView(stream)};
    EXPECT_THROW(Any::decode_value(dec, type), CdrError);
  });
  // A zero-octet element costs no input but one Any, and the decode's one
  // allowance admits one per octet; vector regrowth can double that.
  constexpr std::size_t kMaxBytesPerVoidOctet =
      kMaxBytesPerOctet + 2 * sizeof(Any);
  EXPECT_LE(peak, kMaxBytesPerVoidOctet * stream.size());
}

TEST(NestedDecode, VoidSequenceEndingTheStreamStillDecodes) {
  // Typed on the wire: sequence kind, void kind, then a count of 5 with no
  // element octets after it.
  const util::Bytes wire = {0x09, 0x00, 0x05, 0x00, 0x00, 0x00};
  Decoder dec{util::BytesView(wire)};
  const Any value = Any::decode(dec);
  EXPECT_TRUE(dec.at_end());
  EXPECT_EQ(value.as_elements().size(), 5u);
}

}  // namespace
}  // namespace maqs::cdr
