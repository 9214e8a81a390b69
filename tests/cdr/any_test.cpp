#include "cdr/any.hpp"

#include <gtest/gtest.h>

#include "cdr/decoder.hpp"
#include "cdr/encoder.hpp"

namespace maqs::cdr {
namespace {

Any roundtrip(const Any& a) {
  Encoder enc;
  a.encode(enc);
  Decoder dec(enc.buffer());
  Any back = Any::decode(dec);
  EXPECT_TRUE(dec.at_end());
  return back;
}

TEST(Any, DefaultIsVoid) {
  Any a;
  EXPECT_EQ(a.kind(), TCKind::kVoid);
  EXPECT_EQ(a, Any::make_void());
}

TEST(Any, ScalarFactoriesAndAccessors) {
  EXPECT_EQ(Any::from_bool(true).as_bool(), true);
  EXPECT_EQ(Any::from_octet(200).as_octet(), 200);
  EXPECT_EQ(Any::from_short(-7).as_short(), -7);
  EXPECT_EQ(Any::from_long(123456).as_long(), 123456);
  EXPECT_EQ(Any::from_longlong(-5e15).as_longlong(), -5000000000000000LL);
  EXPECT_EQ(Any::from_float(1.5f).as_float(), 1.5f);
  EXPECT_EQ(Any::from_double(2.75).as_double(), 2.75);
  EXPECT_EQ(Any::from_string("abc").as_string(), "abc");
}

TEST(Any, WrongAccessorThrowsTypeMismatch) {
  EXPECT_THROW(Any::from_long(1).as_string(), TypeMismatch);
  EXPECT_THROW(Any::from_string("x").as_long(), TypeMismatch);
  EXPECT_THROW(Any::from_bool(true).as_double(), TypeMismatch);
}

TEST(Any, AsIntegerWidens) {
  EXPECT_EQ(Any::from_octet(5).as_integer(), 5);
  EXPECT_EQ(Any::from_short(-2).as_integer(), -2);
  EXPECT_EQ(Any::from_long(7).as_integer(), 7);
  EXPECT_EQ(Any::from_longlong(9).as_integer(), 9);
  EXPECT_EQ(Any::from_bool(true).as_integer(), 1);
  EXPECT_THROW(Any::from_double(1.0).as_integer(), TypeMismatch);
}

TEST(Any, EnumConstruction) {
  auto color = TypeCode::enum_tc("Color", {"red", "green", "blue"});
  Any a = Any::from_enum(color, 1);
  EXPECT_EQ(a.as_enum_ordinal(), 1u);
  EXPECT_EQ(a.as_enum_name(), "green");
  EXPECT_THROW(Any::from_enum(color, 3), TypeMismatch);
  EXPECT_THROW(Any::from_enum(TypeCode::long_tc(), 0), TypeMismatch);
}

TEST(Any, StructFieldCountEnforced) {
  auto point = TypeCode::struct_tc(
      "Point", {{"x", TypeCode::long_tc()}, {"y", TypeCode::long_tc()}});
  EXPECT_THROW(Any::from_struct(point, {Any::from_long(1)}), TypeMismatch);
  Any ok = Any::from_struct(point, {Any::from_long(1), Any::from_long(2)});
  EXPECT_EQ(ok.as_elements()[1].as_long(), 2);
}

TEST(Any, ScalarMarshalingRoundTrip) {
  for (const Any& a :
       {Any::make_void(), Any::from_bool(false), Any::from_octet(9),
        Any::from_short(-1), Any::from_long(42), Any::from_longlong(1LL << 40),
        Any::from_float(0.5f), Any::from_double(-1e100),
        Any::from_string("hello world")}) {
    EXPECT_EQ(roundtrip(a), a) << a.to_string();
  }
}

TEST(Any, CompositeMarshalingRoundTrip) {
  auto color = TypeCode::enum_tc("Color", {"red", "green", "blue"});
  auto point = TypeCode::struct_tc(
      "Point", {{"x", TypeCode::long_tc()},
                {"label", TypeCode::string_tc()},
                {"c", color}});
  Any p = Any::from_struct(
      point, {Any::from_long(3), Any::from_string("origin"),
              Any::from_enum(color, 2)});
  Any seq = Any::from_sequence(point->members().empty() ? point : point,
                               {p, p});
  EXPECT_EQ(roundtrip(p), p);
  EXPECT_EQ(roundtrip(seq), seq);
}

TEST(Any, EmptySequenceRoundTrip) {
  Any seq = Any::from_sequence(TypeCode::long_tc(), {});
  EXPECT_EQ(roundtrip(seq), seq);
  EXPECT_TRUE(seq.as_elements().empty());
}

TEST(Any, ObjRefRoundTrip) {
  Any ref = Any::from_objref("IDL:demo/Hello:1.0", "IOR:cafe");
  Any back = roundtrip(ref);
  EXPECT_EQ(back.as_objref_ior(), "IOR:cafe");
  EXPECT_EQ(back.type()->name(), "IDL:demo/Hello:1.0");
}

TEST(Any, DecodeValueWithKnownType) {
  Encoder enc;
  Any::from_long(99).encode_value(enc);
  Decoder dec(enc.buffer());
  Any back = Any::decode_value(dec, TypeCode::long_tc());
  EXPECT_EQ(back.as_long(), 99);
}

TEST(Any, DecodeRejectsOutOfRangeEnumOnWire) {
  auto color = TypeCode::enum_tc("Color", {"r", "g"});
  Encoder enc;
  enc.write_u32(7);  // invalid ordinal
  Decoder dec(enc.buffer());
  EXPECT_THROW(Any::decode_value(dec, color), CdrError);
}

TEST(Any, EqualityIncludesType) {
  EXPECT_NE(Any::from_long(1), Any::from_longlong(1));
  EXPECT_EQ(Any::from_long(1), Any::from_long(1));
  EXPECT_NE(Any::from_long(1), Any::from_long(2));
}

TEST(Any, ToStringForms) {
  EXPECT_EQ(Any::from_long(42).to_string(), "long(42)");
  EXPECT_EQ(Any::from_string("s").to_string(), "\"s\"");
  auto color = TypeCode::enum_tc("Color", {"r", "g"});
  EXPECT_EQ(Any::from_enum(color, 0).to_string(), "Color::r");
}

TEST(Any, DecodeRejectsVoidSequenceCountPastTheInput) {
  // sequence<void> claiming 0x0FFFFFFF elements: each takes no octets, so
  // only the count check keeps six bytes from decoding into 268M Anys.
  const util::Bytes wire = {0x09, 0x00, 0xFF, 0xFF, 0xFF, 0x0F};
  Decoder dec{util::BytesView(wire)};
  EXPECT_THROW(Any::decode(dec), CdrError);
}

TEST(Any, DecodeRejectsOctetSequenceCountPastTheInput) {
  // sequence<octet> claiming 0x0FFFFFFF elements with none on the wire.
  const util::Bytes wire = {0x09, 0x02, 0xFF, 0xFF, 0xFF, 0x0F};
  Decoder dec{util::BytesView(wire)};
  EXPECT_THROW(Any::decode(dec), CdrError);
}

}  // namespace
}  // namespace maqs::cdr
