#include "cdr/any.hpp"

#include <algorithm>

#include "cdr/decoder.hpp"
#include "cdr/encoder.hpp"

namespace maqs::cdr {

Any::Any() : type_(TypeCode::void_tc()), value_(std::monostate{}) {}

Any Any::make_void() { return Any{}; }

Any Any::from_bool(bool v) { return Any(TypeCode::boolean_tc(), v); }
Any Any::from_octet(std::uint8_t v) { return Any(TypeCode::octet_tc(), v); }
Any Any::from_short(std::int16_t v) { return Any(TypeCode::short_tc(), v); }
Any Any::from_long(std::int32_t v) { return Any(TypeCode::long_tc(), v); }
Any Any::from_longlong(std::int64_t v) {
  return Any(TypeCode::longlong_tc(), v);
}
Any Any::from_float(float v) { return Any(TypeCode::float_tc(), v); }
Any Any::from_double(double v) { return Any(TypeCode::double_tc(), v); }
Any Any::from_string(std::string v) {
  return Any(TypeCode::string_tc(), std::move(v));
}

Any Any::from_enum(TypeCodePtr enum_type, std::uint32_t ordinal) {
  if (!enum_type || enum_type->kind() != TCKind::kEnum) {
    throw TypeMismatch("any: from_enum requires an enum TypeCode");
  }
  if (ordinal >= enum_type->enumerators().size()) {
    throw TypeMismatch("any: enum ordinal out of range for " +
                       enum_type->name());
  }
  return Any(std::move(enum_type), ordinal);
}

Any Any::from_sequence(TypeCodePtr element_type, std::vector<Any> items) {
  return Any(TypeCode::sequence_tc(std::move(element_type)),
             std::move(items));
}

Any Any::from_struct(TypeCodePtr struct_type, std::vector<Any> fields) {
  if (!struct_type || struct_type->kind() != TCKind::kStruct) {
    throw TypeMismatch("any: from_struct requires a struct TypeCode");
  }
  if (fields.size() != struct_type->members().size()) {
    throw TypeMismatch("any: field count mismatch for struct " +
                       struct_type->name());
  }
  return Any(std::move(struct_type), std::move(fields));
}

Any Any::from_objref(std::string repo_id, std::string stringified_ior) {
  return Any(TypeCode::objref_tc(std::move(repo_id)),
             std::move(stringified_ior));
}

void Any::require(TCKind kind) const {
  if (type_->kind() != kind) {
    throw TypeMismatch(std::string("any: expected ") + tc_kind_name(kind) +
                       ", found " + tc_kind_name(type_->kind()));
  }
}

bool Any::as_bool() const {
  require(TCKind::kBoolean);
  return std::get<bool>(value_);
}

std::uint8_t Any::as_octet() const {
  require(TCKind::kOctet);
  return std::get<std::uint8_t>(value_);
}

std::int16_t Any::as_short() const {
  require(TCKind::kShort);
  return std::get<std::int16_t>(value_);
}

std::int32_t Any::as_long() const {
  require(TCKind::kLong);
  return std::get<std::int32_t>(value_);
}

std::int64_t Any::as_longlong() const {
  require(TCKind::kLongLong);
  return std::get<std::int64_t>(value_);
}

float Any::as_float() const {
  require(TCKind::kFloat);
  return std::get<float>(value_);
}

double Any::as_double() const {
  require(TCKind::kDouble);
  return std::get<double>(value_);
}

const std::string& Any::as_string() const {
  require(TCKind::kString);
  return std::get<std::string>(value_);
}

std::uint32_t Any::as_enum_ordinal() const {
  require(TCKind::kEnum);
  return std::get<std::uint32_t>(value_);
}

const std::string& Any::as_enum_name() const {
  return type_->enumerators().at(as_enum_ordinal());
}

const std::vector<Any>& Any::as_elements() const {
  if (type_->kind() != TCKind::kSequence &&
      type_->kind() != TCKind::kStruct) {
    throw TypeMismatch(std::string("any: expected sequence/struct, found ") +
                       tc_kind_name(type_->kind()));
  }
  return std::get<std::vector<Any>>(value_);
}

const std::string& Any::as_objref_ior() const {
  require(TCKind::kObjRef);
  return std::get<std::string>(value_);
}

std::int64_t Any::as_integer() const {
  switch (type_->kind()) {
    case TCKind::kOctet: return std::get<std::uint8_t>(value_);
    case TCKind::kShort: return std::get<std::int16_t>(value_);
    case TCKind::kLong: return std::get<std::int32_t>(value_);
    case TCKind::kLongLong: return std::get<std::int64_t>(value_);
    case TCKind::kEnum: return std::get<std::uint32_t>(value_);
    case TCKind::kBoolean: return std::get<bool>(value_) ? 1 : 0;
    default:
      throw TypeMismatch(std::string("any: expected integral kind, found ") +
                         tc_kind_name(type_->kind()));
  }
}

bool Any::operator==(const Any& other) const {
  return type_->equal(*other.type_) && value_ == other.value_;
}

std::string Any::to_string() const {
  switch (type_->kind()) {
    case TCKind::kVoid: return "void";
    case TCKind::kBoolean: return as_bool() ? "true" : "false";
    case TCKind::kOctet:
      return "octet(" + std::to_string(as_octet()) + ")";
    case TCKind::kShort:
      return "short(" + std::to_string(as_short()) + ")";
    case TCKind::kLong: return "long(" + std::to_string(as_long()) + ")";
    case TCKind::kLongLong:
      return "longlong(" + std::to_string(as_longlong()) + ")";
    case TCKind::kFloat: return "float(" + std::to_string(as_float()) + ")";
    case TCKind::kDouble:
      return "double(" + std::to_string(as_double()) + ")";
    case TCKind::kString: return "\"" + as_string() + "\"";
    case TCKind::kEnum: return type_->name() + "::" + as_enum_name();
    case TCKind::kSequence:
      return type_->to_string() + "[" +
             std::to_string(as_elements().size()) + "]";
    case TCKind::kStruct: {
      std::string out = type_->to_string() + "{";
      const auto& fields = as_elements();
      for (std::size_t i = 0; i < fields.size(); ++i) {
        if (i > 0) out += ", ";
        out += type_->members()[i].first + "=" + fields[i].to_string();
      }
      return out + "}";
    }
    case TCKind::kAny: return "any";
    case TCKind::kObjRef: return type_->to_string();
  }
  return "?";
}

void Any::encode_value(Encoder& enc) const {
  switch (type_->kind()) {
    case TCKind::kVoid: break;
    case TCKind::kBoolean: enc.write_bool(std::get<bool>(value_)); break;
    case TCKind::kOctet: enc.write_u8(std::get<std::uint8_t>(value_)); break;
    case TCKind::kShort: enc.write_i16(std::get<std::int16_t>(value_)); break;
    case TCKind::kLong: enc.write_i32(std::get<std::int32_t>(value_)); break;
    case TCKind::kLongLong:
      enc.write_i64(std::get<std::int64_t>(value_));
      break;
    case TCKind::kFloat: enc.write_f32(std::get<float>(value_)); break;
    case TCKind::kDouble: enc.write_f64(std::get<double>(value_)); break;
    case TCKind::kString:
    case TCKind::kObjRef:
      enc.write_string(std::get<std::string>(value_));
      break;
    case TCKind::kEnum: enc.write_u32(std::get<std::uint32_t>(value_)); break;
    case TCKind::kSequence: {
      const auto& items = std::get<std::vector<Any>>(value_);
      enc.write_u32(static_cast<std::uint32_t>(items.size()));
      for (const Any& item : items) item.encode_value(enc);
      break;
    }
    case TCKind::kStruct:
      for (const Any& field : std::get<std::vector<Any>>(value_)) {
        field.encode_value(enc);
      }
      break;
    case TCKind::kAny:
      throw Error("any: nested any marshaling unsupported");
  }
}

namespace {

/// Whether values of `type` encode to zero octets: void, and structs whose
/// members all do.
bool takes_no_octets(const TypeCode& type) {
  if (type.kind() == TCKind::kVoid) return true;
  if (type.kind() != TCKind::kStruct) return false;
  return std::all_of(type.members().begin(), type.members().end(),
                     [](const auto& member) {
                       return takes_no_octets(*member.second);
                     });
}

}  // namespace

std::uint32_t read_sequence_count(Decoder& dec, const TypeCode& element) {
  return takes_no_octets(element) ? dec.read_empty_element_count()
                                  : dec.read_count();
}

Any Any::decode_value(Decoder& dec, const TypeCodePtr& type) {
  switch (type->kind()) {
    case TCKind::kVoid: return make_void();
    case TCKind::kBoolean: return from_bool(dec.read_bool());
    case TCKind::kOctet: return from_octet(dec.read_u8());
    case TCKind::kShort: return from_short(dec.read_i16());
    case TCKind::kLong: return from_long(dec.read_i32());
    case TCKind::kLongLong: return from_longlong(dec.read_i64());
    case TCKind::kFloat: return from_float(dec.read_f32());
    case TCKind::kDouble: return from_double(dec.read_f64());
    case TCKind::kString: return from_string(dec.read_string());
    case TCKind::kObjRef:
      return Any(type, dec.read_string());
    case TCKind::kEnum: {
      const std::uint32_t ordinal = dec.read_u32();
      if (ordinal >= type->enumerators().size()) {
        throw CdrError("any: enum ordinal out of range on the wire");
      }
      return Any(type, ordinal);
    }
    case TCKind::kSequence: {
      const std::uint32_t n = read_sequence_count(dec, *type->element());
      std::vector<Any> items;
      items.reserve(dec.reservable(n, sizeof(Any)));
      for (std::uint32_t i = 0; i < n; ++i) {
        items.push_back(decode_value(dec, type->element()));
      }
      return Any(type, std::move(items));
    }
    case TCKind::kStruct: {
      std::vector<Any> fields;
      fields.reserve(type->members().size());
      for (const auto& [_, member_tc] : type->members()) {
        fields.push_back(decode_value(dec, member_tc));
      }
      return Any(type, std::move(fields));
    }
    case TCKind::kAny:
      throw CdrError("any: nested any unmarshaling unsupported");
  }
  throw CdrError("any: bad typecode kind");
}

void Any::encode(Encoder& enc) const {
  type_->encode(enc);
  encode_value(enc);
}

Any Any::decode(Decoder& dec) {
  TypeCodePtr type = TypeCode::decode(dec);
  return decode_value(dec, type);
}

}  // namespace maqs::cdr
