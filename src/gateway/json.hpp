// JSON for the maqs JSON binding (emitted by qidlc --json-binding,
// consumed by the gateway): a reader and a writer that go straight between
// JSON text and CDR, driven by TypeCodes, plus a minimal document model
// (JsonValue) with the Any⇄JSON conversions they are defined against.
//
// The gateway uses only the direct pair. JsonDocument checks a request
// body once against the grammar and depth limit of parse_json and then
// reads it in place; JsonCursor::write_cdr finds each struct field (or
// parameter) by name, so member order stays free, and writes its CDR into
// the caller's encoder. write_json_from_cdr turns a CDR reply into JSON
// text. Each accepts, rejects and produces exactly what the model's round
// trip does — json_to_any(parse_json(text)).encode_value() and
// write_json(any_to_json(Any::decode_value())) — without building a
// JsonValue or an Any; a differential property test holds them to it.
//
// Conversion rules (docs/qidl.md "JSON binding"):
//
//   boolean            <-> true / false
//   octet/short/long/
//   long long          <-> number (integer)
//   float/double       <-> number (an integral-valued float may print
//                          without a fraction; json_to_any re-widens)
//   string             <-> string (control and non-ASCII bytes \u00XX)
//   enum               <-> enumerator name string (ordinal also accepted)
//   sequence<T>        <-> array
//   struct             <-> object keyed by field name (order-insensitive,
//                          all fields required, unknown keys rejected)
//   void               <-> null
//
// sequence<octet> additionally accepts/produces the MTOM reference form
// {"$blob": "cid:<id>"} at the gateway layer (gateway.cpp); json.cpp
// itself maps it as a plain array of integers.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "cdr/any.hpp"
#include "cdr/decoder.hpp"
#include "cdr/encoder.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"

namespace maqs::gateway {

/// Malformed JSON text or a value that does not fit the target TypeCode.
class JsonError : public Error {
 public:
  using Error::Error;
};

class JsonValue;
using JsonArray = std::vector<JsonValue>;
/// Object members keep insertion order (deterministic writer output).
using JsonObject = std::vector<std::pair<std::string, JsonValue>>;

class JsonValue {
 public:
  using Storage = std::variant<std::nullptr_t, bool, std::int64_t, double,
                               std::string, JsonArray, JsonObject>;

  JsonValue() : value_(nullptr) {}
  JsonValue(std::nullptr_t) : value_(nullptr) {}
  JsonValue(bool v) : value_(v) {}
  JsonValue(std::int64_t v) : value_(v) {}
  JsonValue(int v) : value_(static_cast<std::int64_t>(v)) {}
  JsonValue(double v) : value_(v) {}
  JsonValue(std::string v) : value_(std::move(v)) {}
  JsonValue(const char* v) : value_(std::string(v)) {}
  JsonValue(JsonArray v) : value_(std::move(v)) {}
  JsonValue(JsonObject v) : value_(std::move(v)) {}

  bool is_null() const noexcept { return holds<std::nullptr_t>(); }
  bool is_bool() const noexcept { return holds<bool>(); }
  bool is_integer() const noexcept { return holds<std::int64_t>(); }
  bool is_double() const noexcept { return holds<double>(); }
  bool is_number() const noexcept { return is_integer() || is_double(); }
  bool is_string() const noexcept { return holds<std::string>(); }
  bool is_array() const noexcept { return holds<JsonArray>(); }
  bool is_object() const noexcept { return holds<JsonObject>(); }

  bool as_bool() const { return get<bool>("boolean"); }
  std::int64_t as_integer() const { return get<std::int64_t>("integer"); }
  /// Any number as double (integers widen).
  double as_number() const;
  const std::string& as_string() const { return get<std::string>("string"); }
  const JsonArray& as_array() const { return get<JsonArray>("array"); }
  const JsonObject& as_object() const { return get<JsonObject>("object"); }

  /// First member named `key`; nullptr when absent (objects are small —
  /// linear scan).
  const JsonValue* find(std::string_view key) const;

  bool operator==(const JsonValue& other) const = default;

 private:
  template <typename T>
  bool holds() const noexcept {
    return std::holds_alternative<T>(value_);
  }
  template <typename T>
  const T& get(const char* what) const {
    if (!holds<T>()) throw JsonError(std::string("json: not a ") + what);
    return std::get<T>(value_);
  }

  Storage value_;
};

/// Strict parser (no comments, no trailing commas); throws JsonError.
JsonValue parse_json(std::string_view text);

/// Deterministic writer: same value, same bytes. No added whitespace.
std::string write_json(const JsonValue& value);
void write_json(const JsonValue& value, std::string& out);

/// Any -> JSON per the binding table; throws JsonError for kinds with no
/// JSON mapping (any, objref). The reference write_json_from_cdr is held
/// to; the gateway does not call it.
JsonValue any_to_json(const cdr::Any& value);

/// JSON -> Any of exactly `type`; throws JsonError when the value does
/// not fit (wrong shape, out-of-range integer, unknown enum name,
/// missing/unknown struct field). The reference JsonCursor::write_cdr is
/// held to; the gateway does not call it.
cdr::Any json_to_any(const JsonValue& value, const cdr::TypeCodePtr& type);

// ---- direct JSON <-> CDR -------------------------------------------------

class JsonDocument;

/// One value of a checked JsonDocument, read in place. Cheap to copy; valid
/// while the document's text lives.
class JsonCursor {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind() const noexcept;
  bool is_object() const noexcept { return kind() == Kind::kObject; }
  bool is_string() const noexcept { return kind() == Kind::kString; }

  /// The first member named `name` (escapes decoded before comparing);
  /// nullopt when absent or when this is not an object.
  std::optional<JsonCursor> find(std::string_view name) const;

  /// Whether this string value decodes to exactly `s`.
  bool equals(std::string_view s) const;

  /// This string value with its escapes decoded.
  std::string as_string() const;

  /// Writes this value as CDR of `type` into `out`: the octets
  /// json_to_any(value, type).encode_value(out) writes, and the JsonError
  /// it throws when the value does not fit (then `out` holds a partial
  /// value).
  void write_cdr(const cdr::TypeCodePtr& type, cdr::Encoder& out) const;

 private:
  friend class JsonDocument;
  friend class JsonItems;
  JsonCursor(std::string_view text, std::size_t pos) noexcept
      : text_(text), pos_(pos) {}

  /// A string value's bytes when it has no escapes (it then decodes to
  /// itself); nullopt otherwise.
  std::optional<std::string_view> plain_string() const noexcept;
  /// Members of an object or elements of an array; 0 for scalars.
  std::size_t size() const;

  std::string_view text_;  // the whole document
  std::size_t pos_;        // first character of this value
};

/// JSON text checked against parse_json's grammar and depth limit, then
/// read in place through cursors. The text must outlive the document.
class JsonDocument {
 public:
  /// Throws JsonError on exactly the texts parse_json rejects.
  explicit JsonDocument(std::string_view text);

  JsonCursor root() const noexcept { return JsonCursor(text_, root_); }

 private:
  std::string_view text_;
  std::size_t root_ = 0;
};

/// Steps through an object's members or an array's elements in document
/// order:  for (JsonItems it(c); it.next();) use(it.key(), it.value());
class JsonItems {
 public:
  explicit JsonItems(const JsonCursor& container) noexcept;

  /// Moves to the next item; false after the last.
  bool next();
  /// The member name (objects only) and the value of the current item.
  const JsonCursor& key() const noexcept { return key_; }
  const JsonCursor& value() const noexcept { return value_; }

 private:
  std::string_view text_;
  std::size_t pos_;  // just past the previous item, or past the opener
  bool object_;
  bool started_ = false;
  JsonCursor key_;
  JsonCursor value_;
};

/// Reads one CDR value of `type` from `dec` and appends its JSON text to
/// `out`: exactly write_json(any_to_json(cdr::Any::decode_value(dec,
/// type))), and an Error wherever that throws one (on a failure `out`
/// holds a partial document).
void write_json_from_cdr(cdr::Decoder& dec, const cdr::TypeCodePtr& type,
                         util::Bytes& out);

/// Appends `s` as a JSON string literal, escaped as write_json does.
void write_json_string(std::string_view s, util::Bytes& out);

}  // namespace maqs::gateway
