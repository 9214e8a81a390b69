#include "cdr/typecode.hpp"

#include <gtest/gtest.h>

#include "cdr/decoder.hpp"
#include "cdr/encoder.hpp"

namespace maqs::cdr {
namespace {

TEST(TypeCode, BasicSingletonsShareIdentity) {
  EXPECT_EQ(TypeCode::long_tc().get(), TypeCode::long_tc().get());
  EXPECT_EQ(TypeCode::string_tc().get(), TypeCode::string_tc().get());
}

TEST(TypeCode, KindNames) {
  EXPECT_EQ(TypeCode::long_tc()->to_string(), "long");
  EXPECT_EQ(TypeCode::sequence_tc(TypeCode::octet_tc())->to_string(),
            "sequence<octet>");
}

TEST(TypeCode, StructuralEqualityForSequences) {
  auto a = TypeCode::sequence_tc(TypeCode::long_tc());
  auto b = TypeCode::sequence_tc(TypeCode::long_tc());
  auto c = TypeCode::sequence_tc(TypeCode::short_tc());
  EXPECT_TRUE(a->equal(*b));
  EXPECT_FALSE(a->equal(*c));
}

TEST(TypeCode, StructEquality) {
  auto make = [](const std::string& name) {
    return TypeCode::struct_tc(
        name, {{"x", TypeCode::long_tc()}, {"y", TypeCode::string_tc()}});
  };
  EXPECT_TRUE(make("P")->equal(*make("P")));
  EXPECT_FALSE(make("P")->equal(*make("Q")));
  auto different_member = TypeCode::struct_tc(
      "P", {{"x", TypeCode::long_tc()}, {"z", TypeCode::string_tc()}});
  EXPECT_FALSE(make("P")->equal(*different_member));
}

TEST(TypeCode, EnumEquality) {
  auto a = TypeCode::enum_tc("Color", {"red", "green"});
  auto b = TypeCode::enum_tc("Color", {"red", "green"});
  auto c = TypeCode::enum_tc("Color", {"red", "blue"});
  EXPECT_TRUE(a->equal(*b));
  EXPECT_FALSE(a->equal(*c));
}

TEST(TypeCode, ObjRefEqualityByRepoId) {
  auto a = TypeCode::objref_tc("IDL:demo/Hello:1.0");
  auto b = TypeCode::objref_tc("IDL:demo/Hello:1.0");
  auto c = TypeCode::objref_tc("IDL:demo/Other:1.0");
  EXPECT_TRUE(a->equal(*b));
  EXPECT_FALSE(a->equal(*c));
}

TEST(TypeCode, DifferentKindsNeverEqual) {
  EXPECT_FALSE(TypeCode::long_tc()->equal(*TypeCode::short_tc()));
}

TEST(TypeCode, NullSequenceElementThrows) {
  EXPECT_THROW(TypeCode::sequence_tc(nullptr), Error);
}

TEST(TypeCode, EmptyEnumThrows) {
  EXPECT_THROW(TypeCode::enum_tc("E", {}), Error);
}

TEST(TypeCode, MarshalingRoundTripsComposite) {
  auto tc = TypeCode::struct_tc(
      "Sample",
      {{"id", TypeCode::longlong_tc()},
       {"tags", TypeCode::sequence_tc(TypeCode::string_tc())},
       {"color", TypeCode::enum_tc("Color", {"r", "g", "b"})},
       {"peer", TypeCode::objref_tc("IDL:x/Y:1.0")}});
  Encoder enc;
  tc->encode(enc);
  Decoder dec(enc.buffer());
  auto back = TypeCode::decode(dec);
  EXPECT_TRUE(dec.at_end());
  EXPECT_TRUE(tc->equal(*back));
}

TEST(TypeCode, MarshalingRoundTripsBasics) {
  for (auto tc : {TypeCode::void_tc(), TypeCode::boolean_tc(),
                  TypeCode::octet_tc(), TypeCode::short_tc(),
                  TypeCode::long_tc(), TypeCode::longlong_tc(),
                  TypeCode::float_tc(), TypeCode::double_tc(),
                  TypeCode::string_tc()}) {
    Encoder enc;
    tc->encode(enc);
    Decoder dec(enc.buffer());
    EXPECT_TRUE(tc->equal(*TypeCode::decode(dec)));
  }
}

TEST(TypeCode, DecodeRejectsBadKindOctet) {
  Encoder enc;
  enc.write_u8(0xFF);
  Decoder dec(enc.buffer());
  EXPECT_THROW(TypeCode::decode(dec), CdrError);
}

TEST(TypeCode, NestedSequenceRoundTrip) {
  auto tc = TypeCode::sequence_tc(
      TypeCode::sequence_tc(TypeCode::double_tc()));
  Encoder enc;
  tc->encode(enc);
  Decoder dec(enc.buffer());
  EXPECT_TRUE(tc->equal(*TypeCode::decode(dec)));
}

TEST(TypeCode, DecodeRejectsRunawayNesting) {
  // 60,000 sequence kind octets ahead of an octet: each one is a level of
  // recursion, enough to overflow an 8 MB stack without the cap.
  util::Bytes wire(60000, 0x09);
  wire.push_back(0x02);
  Decoder dec{util::BytesView(wire)};
  EXPECT_THROW(TypeCode::decode(dec), CdrError);
}

TEST(TypeCode, DecodeAcceptsNestingUpToTheCap) {
  auto nested = [](int levels) {
    util::Bytes wire(static_cast<std::size_t>(levels), 0x09);
    wire.push_back(0x02);
    return wire;
  };
  const util::Bytes at_cap = nested(kMaxTypeNesting);
  Decoder ok{util::BytesView(at_cap)};
  TypeCodePtr tc = TypeCode::decode(ok);
  for (int i = 0; i < kMaxTypeNesting; ++i) tc = tc->element();
  EXPECT_EQ(tc->kind(), TCKind::kOctet);
  const util::Bytes past_cap = nested(kMaxTypeNesting + 1);
  Decoder deep{util::BytesView(past_cap)};
  EXPECT_THROW(TypeCode::decode(deep), CdrError);
}

TEST(TypeCode, DecodeRejectsMemberCountsPastTheInput) {
  Encoder strukt;
  strukt.write_u8(static_cast<std::uint8_t>(TCKind::kStruct));
  strukt.write_string("S");
  strukt.write_u32(0xFFFFFFFFu);
  Decoder struct_dec(strukt.buffer());
  EXPECT_THROW(TypeCode::decode(struct_dec), CdrError);

  Encoder enumeration;
  enumeration.write_u8(static_cast<std::uint8_t>(TCKind::kEnum));
  enumeration.write_string("E");
  enumeration.write_u32(0x0FFFFFFFu);
  Decoder enum_dec(enumeration.buffer());
  EXPECT_THROW(TypeCode::decode(enum_dec), CdrError);
}

}  // namespace
}  // namespace maqs::cdr
