// Self-describing values (CORBA Any equivalent).
//
// An Any pairs a TypeCode with a value. The DII sends operation arguments
// as Anys; QoS-module commands (Fig. 3) are DII requests whose payload is a
// sequence of Anys; negotiation exchanges QoS parameter values as Anys.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "cdr/typecode.hpp"
#include "util/error.hpp"

namespace maqs::cdr {

class Encoder;
class Decoder;

/// Thrown when an Any is accessed as the wrong type.
class TypeMismatch : public Error {
 public:
  using Error::Error;
};

class Any {
 public:
  /// Default-constructed Any is void.
  Any();

  // ---- factories ----
  static Any make_void();
  static Any from_bool(bool v);
  static Any from_octet(std::uint8_t v);
  static Any from_short(std::int16_t v);
  static Any from_long(std::int32_t v);
  static Any from_longlong(std::int64_t v);
  static Any from_float(float v);
  static Any from_double(double v);
  static Any from_string(std::string v);
  /// Enum value by ordinal; throws if ordinal out of range.
  static Any from_enum(TypeCodePtr enum_type, std::uint32_t ordinal);
  /// Homogeneous sequence; element types are not re-verified per element
  /// beyond count (callers marshal through typed APIs).
  static Any from_sequence(TypeCodePtr element_type, std::vector<Any> items);
  /// Struct value; field count must match the TypeCode.
  static Any from_struct(TypeCodePtr struct_type, std::vector<Any> fields);
  /// Object reference as a stringified IOR.
  static Any from_objref(std::string repo_id, std::string stringified_ior);

  const TypeCodePtr& type() const noexcept { return type_; }
  TCKind kind() const noexcept { return type_->kind(); }

  // ---- typed accessors (throw TypeMismatch on wrong kind) ----
  bool as_bool() const;
  std::uint8_t as_octet() const;
  std::int16_t as_short() const;
  std::int32_t as_long() const;
  std::int64_t as_longlong() const;
  float as_float() const;
  double as_double() const;
  const std::string& as_string() const;
  std::uint32_t as_enum_ordinal() const;
  const std::string& as_enum_name() const;
  const std::vector<Any>& as_elements() const;  // sequence or struct fields
  const std::string& as_objref_ior() const;

  /// Widening numeric view: any integral kind as int64.
  std::int64_t as_integer() const;

  bool operator==(const Any& other) const;

  /// Debug form, e.g. `long(42)` or `sequence<octet>[3]`.
  std::string to_string() const;

  // ---- marshaling ----
  /// Value only; the receiver must know the TypeCode.
  void encode_value(Encoder& enc) const;
  static Any decode_value(Decoder& dec, const TypeCodePtr& type);
  /// TypeCode + value (self-describing, used by DII).
  void encode(Encoder& enc) const;
  static Any decode(Decoder& dec);

 private:
  using Value = std::variant<std::monostate, bool, std::uint8_t, std::int16_t,
                             std::int32_t, std::int64_t, float, double,
                             std::string, std::uint32_t, std::vector<Any>>;

  Any(TypeCodePtr type, Value value)
      : type_(std::move(type)), value_(std::move(value)) {}

  void require(TCKind kind) const;

  TypeCodePtr type_;
  Value value_;
};

/// Reads a sequence's element count from a peer's stream, as
/// Any::decode_value does: rejected when larger than the octets left (or,
/// for elements that encode to no octets, than what remains of the one
/// allowance all such elements of the decode share; see
/// Decoder::read_empty_element_count).
std::uint32_t read_sequence_count(Decoder& dec, const TypeCode& element);

}  // namespace maqs::cdr
