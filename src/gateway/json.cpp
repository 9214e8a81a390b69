#include "gateway/json.hpp"

#include <array>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

namespace maqs::gateway {

double JsonValue::as_number() const {
  if (is_integer()) return static_cast<double>(std::get<std::int64_t>(value_));
  if (is_double()) return std::get<double>(value_);
  throw JsonError("json: not a number");
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const auto& [name, value] : std::get<JsonObject>(value_)) {
    if (name == key) return &value;
  }
  return nullptr;
}

namespace {

/// Deepest container nesting accepted: a value may sit inside at most this
/// many objects and arrays.
constexpr int kMaxDepth = 64;

/// Bytes that end a plain run inside a string token: the closing quote, an
/// escape, or a raw control character (an error).
constexpr auto kStringStop = [] {
  std::array<bool, 256> stop{};
  for (int c = 0; c < 0x20; ++c) stop[static_cast<std::size_t>(c)] = true;
  stop['"'] = true;
  stop['\\'] = true;
  return stop;
}();

/// A number token: an integer when it has no fraction or exponent and fits
/// int64, a finite double otherwise.
struct Number {
  bool integer = false;
  std::int64_t i = 0;
  double d = 0.0;

  double value() const noexcept {
    return integer ? static_cast<double>(i) : d;
  }
};

// ---- string sinks: what a string token's decoded bytes go to ----

/// Checks the token only.
struct Discard {
  void append(const char*, std::size_t) noexcept {}
  void push_back(char) noexcept {}
};

/// Counts the decoded length.
struct Count {
  std::size_t n = 0;
  void append(const char*, std::size_t k) noexcept { n += k; }
  void push_back(char) noexcept { ++n; }
};

/// Compares the decoded bytes with `want`.
struct Match {
  std::string_view want;
  std::size_t at = 0;
  bool same = true;

  void append(const char* p, std::size_t k) noexcept {
    same = same && at + k <= want.size() &&
           std::memcmp(want.data() + at, p, k) == 0;
    at += k;
  }
  void push_back(char c) noexcept {
    same = same && at < want.size() && want[at] == c;
    ++at;
  }
  bool matched() const noexcept { return same && at == want.size(); }
};

/// Writes the decoded bytes onto a CDR stream.
struct ToEncoder {
  cdr::Encoder& out;
  void append(const char* p, std::size_t k) {
    out.write_raw({reinterpret_cast<const std::uint8_t*>(p), k});
  }
  void push_back(char c) { out.write_u8(static_cast<std::uint8_t>(c)); }
};

/// The tokens of the strict grammar, shared by the document model's parser
/// and the direct reader so that both accept exactly the same text.
class Lexer {
 public:
  Lexer(std::string_view text, std::size_t pos) noexcept
      : text_(text), pos_(pos) {}

  std::size_t pos() const noexcept { return pos_; }
  bool at_end() const noexcept { return pos_ == text_.size(); }

  [[noreturn]] void fail(const std::string& what) const {
    throw JsonError("json: " + what + " at offset " + std::to_string(pos_));
  }

  void skip_ws() noexcept {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() const {
    if (pos_ >= text_.size()) fail("unexpected end");
    return text_[pos_];
  }

  void advance() noexcept { ++pos_; }

  void expect(char c) {
    if (pos_ >= text_.size() || text_[pos_] != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  /// A string token at the position; its decoded bytes go to `sink`.
  /// Strings are byte sequences in this stack: \u code points up to 0xFF
  /// decode to one byte, larger ones to their UTF-8 encoding.
  template <typename Sink>
  void string(Sink& sink) {
    expect('"');
    for (;;) {
      const char* const run = text_.data() + pos_;
      const char* const end = text_.data() + text_.size();
      const char* p = run;
      while (p < end && !kStringStop[static_cast<unsigned char>(*p)]) ++p;
      pos_ += static_cast<std::size_t>(p - run);
      if (p > run) sink.append(run, static_cast<std::size_t>(p - run));
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return;
      if (c != '\\') fail("raw control character in string");
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': sink.push_back('"'); break;
        case '\\': sink.push_back('\\'); break;
        case '/': sink.push_back('/'); break;
        case 'b': sink.push_back('\b'); break;
        case 'f': sink.push_back('\f'); break;
        case 'n': sink.push_back('\n'); break;
        case 'r': sink.push_back('\r'); break;
        case 't': sink.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad \\u escape");
            }
          }
          if (code < 0x100) {
            sink.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            sink.push_back(static_cast<char>(0xC0 | (code >> 6)));
            sink.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            sink.push_back(static_cast<char>(0xE0 | (code >> 12)));
            sink.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            sink.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: fail("bad escape");
      }
    }
  }

  Number number() {
    const std::size_t start = pos_;
    bool is_double = false;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        is_double = is_double || c == '.' || c == 'e' || c == 'E';
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start || (pos_ == start + 1 && text_[start] == '-')) {
      fail("bad number");
    }
    // strtoll/strtod want a terminated token; only hostile input has one
    // too long for the stack.
    const std::string_view token = text_.substr(start, pos_ - start);
    char small[64];
    std::string large;
    const char* c_str = small;
    if (token.size() < sizeof small) {
      std::memcpy(small, token.data(), token.size());
      small[token.size()] = '\0';
    } else {
      large.assign(token);
      c_str = large.c_str();
    }
    Number out;
    char* end = nullptr;
    if (!is_double) {
      errno = 0;
      const long long v = std::strtoll(c_str, &end, 10);
      if (errno == 0 && end == c_str + token.size()) {
        out.integer = true;
        out.i = static_cast<std::int64_t>(v);
        return out;
      }
      // Out of int64 range: fall through to double.
    }
    errno = 0;
    out.d = std::strtod(c_str, &end);
    if (end != c_str + token.size() || !std::isfinite(out.d)) {
      fail("bad number");
    }
    return out;
  }

 private:
  std::string_view text_;
  std::size_t pos_;
};

// ---- the document model's parser ----

class Parser {
 public:
  explicit Parser(std::string_view text) : lex_(text, 0) {}

  JsonValue parse() {
    JsonValue value = parse_value();
    lex_.skip_ws();
    if (!lex_.at_end()) throw JsonError("json: trailing bytes");
    return value;
  }

 private:
  JsonValue parse_value() {
    if (depth_ > kMaxDepth) lex_.fail("nesting too deep");
    lex_.skip_ws();
    switch (lex_.peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': {
        std::string s;
        lex_.string(s);
        return JsonValue(std::move(s));
      }
      case 't':
        if (lex_.consume_literal("true")) return JsonValue(true);
        lex_.fail("bad literal");
      case 'f':
        if (lex_.consume_literal("false")) return JsonValue(false);
        lex_.fail("bad literal");
      case 'n':
        if (lex_.consume_literal("null")) return JsonValue(nullptr);
        lex_.fail("bad literal");
      default: {
        const Number n = lex_.number();
        return n.integer ? JsonValue(n.i) : JsonValue(n.d);
      }
    }
  }

  JsonValue parse_object() {
    lex_.expect('{');
    ++depth_;
    JsonObject members;
    lex_.skip_ws();
    if (lex_.peek() == '}') {
      lex_.advance();
      --depth_;
      return JsonValue(std::move(members));
    }
    for (;;) {
      lex_.skip_ws();
      if (lex_.peek() != '"') lex_.fail("expected member name");
      std::string name;
      lex_.string(name);
      lex_.skip_ws();
      lex_.expect(':');
      members.emplace_back(std::move(name), parse_value());
      lex_.skip_ws();
      const char c = lex_.peek();
      if (c == ',') {
        lex_.advance();
        continue;
      }
      if (c == '}') {
        lex_.advance();
        --depth_;
        return JsonValue(std::move(members));
      }
      lex_.fail("expected ',' or '}'");
    }
  }

  JsonValue parse_array() {
    lex_.expect('[');
    ++depth_;
    JsonArray items;
    lex_.skip_ws();
    if (lex_.peek() == ']') {
      lex_.advance();
      --depth_;
      return JsonValue(std::move(items));
    }
    for (;;) {
      items.push_back(parse_value());
      lex_.skip_ws();
      const char c = lex_.peek();
      if (c == ',') {
        lex_.advance();
        continue;
      }
      if (c == ']') {
        lex_.advance();
        --depth_;
        return JsonValue(std::move(items));
      }
      lex_.fail("expected ',' or ']'");
    }
  }

  Lexer lex_;
  int depth_ = 0;
};

// ---- the direct reader's check: Parser's grammar, nothing built ----

/// Skips one value, checking it exactly as Parser::parse_value does;
/// `depth` counts the containers around it.
void skip_value(Lexer& lex, int depth) {
  if (depth > kMaxDepth) lex.fail("nesting too deep");
  lex.skip_ws();
  Discard discard;
  switch (lex.peek()) {
    case '{': {
      lex.expect('{');
      lex.skip_ws();
      if (lex.peek() == '}') {
        lex.advance();
        return;
      }
      for (;;) {
        lex.skip_ws();
        if (lex.peek() != '"') lex.fail("expected member name");
        lex.string(discard);
        lex.skip_ws();
        lex.expect(':');
        skip_value(lex, depth + 1);
        lex.skip_ws();
        const char c = lex.peek();
        if (c == '}') {
          lex.advance();
          return;
        }
        if (c != ',') lex.fail("expected ',' or '}'");
        lex.advance();
      }
    }
    case '[': {
      lex.expect('[');
      lex.skip_ws();
      if (lex.peek() == ']') {
        lex.advance();
        return;
      }
      for (;;) {
        skip_value(lex, depth + 1);
        lex.skip_ws();
        const char c = lex.peek();
        if (c == ']') {
          lex.advance();
          return;
        }
        if (c != ',') lex.fail("expected ',' or ']'");
        lex.advance();
      }
    }
    case '"': lex.string(discard); return;
    case 't':
      if (lex.consume_literal("true")) return;
      lex.fail("bad literal");
    case 'f':
      if (lex.consume_literal("false")) return;
      lex.fail("bad literal");
    case 'n':
      if (lex.consume_literal("null")) return;
      lex.fail("bad literal");
    default: lex.number(); return;
  }
}

// ---- writing ----

void put(std::string& out, const char* p, std::size_t n) { out.append(p, n); }
void put(util::Bytes& out, const char* p, std::size_t n) {
  out.insert(out.end(), p, p + n);
}
void put(std::string& out, std::string_view s) { out.append(s); }
void put(util::Bytes& out, std::string_view s) {
  put(out, s.data(), s.size());
}

/// Bytes a JSON string literal carries as themselves: printable ASCII
/// other than the quote and the backslash.
constexpr auto kJsonPlain = [] {
  std::array<bool, 256> plain{};
  for (int c = 0x20; c < 0x80; ++c) plain[static_cast<std::size_t>(c)] = true;
  plain['"'] = false;
  plain['\\'] = false;
  return plain;
}();

template <typename Out>
void write_string(std::string_view s, Out& out) {
  static constexpr char kHex[] = "0123456789abcdef";
  out.push_back('"');
  const char* p = s.data();
  const char* const end = p + s.size();
  for (;;) {
    const char* const run = p;
    while (p < end && kJsonPlain[static_cast<unsigned char>(*p)]) ++p;
    put(out, run, static_cast<std::size_t>(p - run));
    if (p == end) break;
    const char c = *p++;
    switch (c) {
      case '"': put(out, "\\\""); break;
      case '\\': put(out, "\\\\"); break;
      case '\b': put(out, "\\b"); break;
      case '\f': put(out, "\\f"); break;
      case '\n': put(out, "\\n"); break;
      case '\r': put(out, "\\r"); break;
      case '\t': put(out, "\\t"); break;
      default: {
        const auto b = static_cast<unsigned char>(c);
        const char escape[6] = {'\\', 'u', '0', '0', kHex[b >> 4],
                                kHex[b & 0xF]};
        put(out, escape, sizeof escape);
      }
    }
  }
  out.push_back('"');
}

template <typename Out>
void write_number(double v, Out& out) {
  if (!std::isfinite(v)) throw JsonError("json: non-finite number");
  char buf[32];
  const int n = std::snprintf(buf, sizeof buf, "%.17g", v);
  put(out, buf, static_cast<std::size_t>(n));
}

template <typename Out>
void write_integer(std::int64_t v, Out& out) {
  char buf[24];
  const auto result = std::to_chars(buf, buf + sizeof buf, v);
  put(out, buf, static_cast<std::size_t>(result.ptr - buf));
}

}  // namespace

JsonValue parse_json(std::string_view text) { return Parser(text).parse(); }

void write_json(const JsonValue& value, std::string& out) {
  if (value.is_null()) {
    out += "null";
  } else if (value.is_bool()) {
    out += value.as_bool() ? "true" : "false";
  } else if (value.is_integer()) {
    write_integer(value.as_integer(), out);
  } else if (value.is_double()) {
    write_number(value.as_number(), out);
  } else if (value.is_string()) {
    write_string(value.as_string(), out);
  } else if (value.is_array()) {
    out.push_back('[');
    bool first = true;
    for (const JsonValue& item : value.as_array()) {
      if (!first) out.push_back(',');
      first = false;
      write_json(item, out);
    }
    out.push_back(']');
  } else {
    out.push_back('{');
    bool first = true;
    for (const auto& [name, member] : value.as_object()) {
      if (!first) out.push_back(',');
      first = false;
      write_string(name, out);
      out.push_back(':');
      write_json(member, out);
    }
    out.push_back('}');
  }
}

std::string write_json(const JsonValue& value) {
  std::string out;
  write_json(value, out);
  return out;
}

// ---- Any <-> JSON ----

JsonValue any_to_json(const cdr::Any& value) {
  switch (value.kind()) {
    case cdr::TCKind::kVoid: return JsonValue(nullptr);
    case cdr::TCKind::kBoolean: return JsonValue(value.as_bool());
    case cdr::TCKind::kOctet:
    case cdr::TCKind::kShort:
    case cdr::TCKind::kLong:
    case cdr::TCKind::kLongLong:
      return JsonValue(value.as_integer());
    case cdr::TCKind::kFloat:
      return JsonValue(static_cast<double>(value.as_float()));
    case cdr::TCKind::kDouble: return JsonValue(value.as_double());
    case cdr::TCKind::kString: return JsonValue(value.as_string());
    case cdr::TCKind::kEnum: return JsonValue(value.as_enum_name());
    case cdr::TCKind::kSequence: {
      JsonArray items;
      items.reserve(value.as_elements().size());
      for (const cdr::Any& element : value.as_elements()) {
        items.push_back(any_to_json(element));
      }
      return JsonValue(std::move(items));
    }
    case cdr::TCKind::kStruct: {
      const auto& members = value.type()->members();
      const auto& fields = value.as_elements();
      JsonObject object;
      object.reserve(fields.size());
      for (std::size_t i = 0; i < fields.size(); ++i) {
        object.emplace_back(members[i].first, any_to_json(fields[i]));
      }
      return JsonValue(std::move(object));
    }
    case cdr::TCKind::kAny:
    case cdr::TCKind::kObjRef:
      break;
  }
  throw JsonError(std::string("json: no JSON mapping for ") +
                  cdr::tc_kind_name(value.kind()));
}

namespace {

std::int64_t integer_in_range(const JsonValue& value, std::int64_t lo,
                              std::int64_t hi, const char* what) {
  if (!value.is_integer()) {
    throw JsonError(std::string("json: expected integer for ") + what);
  }
  const std::int64_t v = value.as_integer();
  if (v < lo || v > hi) {
    throw JsonError(std::string("json: value out of range for ") + what);
  }
  return v;
}

}  // namespace

cdr::Any json_to_any(const JsonValue& value, const cdr::TypeCodePtr& type) {
  switch (type->kind()) {
    case cdr::TCKind::kVoid:
      if (!value.is_null()) throw JsonError("json: expected null for void");
      return cdr::Any::make_void();
    case cdr::TCKind::kBoolean:
      if (!value.is_bool()) throw JsonError("json: expected boolean");
      return cdr::Any::from_bool(value.as_bool());
    case cdr::TCKind::kOctet:
      return cdr::Any::from_octet(static_cast<std::uint8_t>(
          integer_in_range(value, 0, 255, "octet")));
    case cdr::TCKind::kShort:
      return cdr::Any::from_short(static_cast<std::int16_t>(
          integer_in_range(value, -32768, 32767, "short")));
    case cdr::TCKind::kLong:
      return cdr::Any::from_long(static_cast<std::int32_t>(integer_in_range(
          value, std::numeric_limits<std::int32_t>::min(),
          std::numeric_limits<std::int32_t>::max(), "long")));
    case cdr::TCKind::kLongLong:
      if (!value.is_integer()) {
        throw JsonError("json: expected integer for long long");
      }
      return cdr::Any::from_longlong(value.as_integer());
    case cdr::TCKind::kFloat:
      if (!value.is_number()) throw JsonError("json: expected number");
      return cdr::Any::from_float(static_cast<float>(value.as_number()));
    case cdr::TCKind::kDouble:
      if (!value.is_number()) throw JsonError("json: expected number");
      return cdr::Any::from_double(value.as_number());
    case cdr::TCKind::kString:
      if (!value.is_string()) throw JsonError("json: expected string");
      return cdr::Any::from_string(value.as_string());
    case cdr::TCKind::kEnum: {
      if (value.is_string()) {
        const auto& names = type->enumerators();
        for (std::size_t i = 0; i < names.size(); ++i) {
          if (names[i] == value.as_string()) {
            return cdr::Any::from_enum(type,
                                       static_cast<std::uint32_t>(i));
          }
        }
        throw JsonError("json: unknown enumerator \"" + value.as_string() +
                        "\" for " + type->name());
      }
      const std::int64_t ordinal = integer_in_range(
          value, 0,
          static_cast<std::int64_t>(type->enumerators().size()) - 1,
          "enum ordinal");
      return cdr::Any::from_enum(type, static_cast<std::uint32_t>(ordinal));
    }
    case cdr::TCKind::kSequence: {
      if (!value.is_array()) throw JsonError("json: expected array");
      std::vector<cdr::Any> items;
      items.reserve(value.as_array().size());
      for (const JsonValue& item : value.as_array()) {
        items.push_back(json_to_any(item, type->element()));
      }
      return cdr::Any::from_sequence(type->element(), std::move(items));
    }
    case cdr::TCKind::kStruct: {
      if (!value.is_object()) throw JsonError("json: expected object");
      const auto& members = type->members();
      if (value.as_object().size() != members.size()) {
        throw JsonError("json: struct " + type->name() + " wants " +
                        std::to_string(members.size()) + " fields, got " +
                        std::to_string(value.as_object().size()));
      }
      std::vector<cdr::Any> fields;
      fields.reserve(members.size());
      for (const auto& [name, member_type] : members) {
        const JsonValue* field = value.find(name);
        if (field == nullptr) {
          throw JsonError("json: struct " + type->name() +
                          " missing field \"" + name + "\"");
        }
        fields.push_back(json_to_any(*field, member_type));
      }
      return cdr::Any::from_struct(type, std::move(fields));
    }
    case cdr::TCKind::kAny:
    case cdr::TCKind::kObjRef:
      break;
  }
  throw JsonError(std::string("json: no JSON mapping for ") +
                  cdr::tc_kind_name(type->kind()));
}

// ---- direct JSON -> CDR ----

JsonDocument::JsonDocument(std::string_view text) : text_(text) {
  Lexer lex(text, 0);
  lex.skip_ws();
  root_ = lex.pos();
  skip_value(lex, 0);
  lex.skip_ws();
  if (!lex.at_end()) throw JsonError("json: trailing bytes");
}

JsonCursor::Kind JsonCursor::kind() const noexcept {
  switch (text_[pos_]) {
    case '{': return Kind::kObject;
    case '[': return Kind::kArray;
    case '"': return Kind::kString;
    case 't':
    case 'f': return Kind::kBool;
    case 'n': return Kind::kNull;
    default: return Kind::kNumber;
  }
}

std::size_t JsonCursor::size() const {
  std::size_t n = 0;
  for (JsonItems it(*this); it.next();) ++n;
  return n;
}

std::optional<JsonCursor> JsonCursor::find(std::string_view name) const {
  if (!is_object()) return std::nullopt;
  for (JsonItems it(*this); it.next();) {
    if (it.key().equals(name)) return it.value();
  }
  return std::nullopt;
}

std::optional<std::string_view> JsonCursor::plain_string() const noexcept {
  // The text was checked, so the first quote or backslash after the
  // opening quote is either the closing quote or an escape.
  const char* const begin = text_.data() + pos_ + 1;
  const char* end = begin;
  while (*end != '"' && *end != '\\') ++end;
  if (*end != '"') return std::nullopt;
  return std::string_view(begin, static_cast<std::size_t>(end - begin));
}

bool JsonCursor::equals(std::string_view s) const {
  if (const auto plain = plain_string()) return *plain == s;
  Lexer lex(text_, pos_);
  Match match{s};
  lex.string(match);
  return match.matched();
}

std::string JsonCursor::as_string() const {
  std::string out;
  Lexer lex(text_, pos_);
  lex.string(out);
  return out;
}

namespace {

/// The integer a JSON-binding field of kind `what` takes from `value`,
/// with json_to_any's checks and messages.
std::int64_t integer_in_range(const JsonCursor& value, std::string_view text,
                              std::size_t pos, std::int64_t lo,
                              std::int64_t hi, const char* what) {
  Number n;
  if (value.kind() == JsonCursor::Kind::kNumber) n = Lexer(text, pos).number();
  if (!n.integer) {
    throw JsonError(std::string("json: expected integer for ") + what);
  }
  if (n.i < lo || n.i > hi) {
    throw JsonError(std::string("json: value out of range for ") + what);
  }
  return n.i;
}

}  // namespace

void JsonCursor::write_cdr(const cdr::TypeCodePtr& type,
                           cdr::Encoder& out) const {
  const Kind k = kind();
  switch (type->kind()) {
    case cdr::TCKind::kVoid:
      if (k != Kind::kNull) throw JsonError("json: expected null for void");
      return;
    case cdr::TCKind::kBoolean:
      if (k != Kind::kBool) throw JsonError("json: expected boolean");
      out.write_bool(text_[pos_] == 't');
      return;
    case cdr::TCKind::kOctet:
      out.write_u8(static_cast<std::uint8_t>(
          integer_in_range(*this, text_, pos_, 0, 255, "octet")));
      return;
    case cdr::TCKind::kShort:
      out.write_i16(static_cast<std::int16_t>(
          integer_in_range(*this, text_, pos_, -32768, 32767, "short")));
      return;
    case cdr::TCKind::kLong:
      out.write_i32(static_cast<std::int32_t>(integer_in_range(
          *this, text_, pos_, std::numeric_limits<std::int32_t>::min(),
          std::numeric_limits<std::int32_t>::max(), "long")));
      return;
    case cdr::TCKind::kLongLong:
      out.write_i64(integer_in_range(
          *this, text_, pos_, std::numeric_limits<std::int64_t>::min(),
          std::numeric_limits<std::int64_t>::max(), "long long"));
      return;
    case cdr::TCKind::kFloat:
      if (k != Kind::kNumber) throw JsonError("json: expected number");
      out.write_f32(static_cast<float>(Lexer(text_, pos_).number().value()));
      return;
    case cdr::TCKind::kDouble:
      if (k != Kind::kNumber) throw JsonError("json: expected number");
      out.write_f64(Lexer(text_, pos_).number().value());
      return;
    case cdr::TCKind::kString: {
      if (k != Kind::kString) throw JsonError("json: expected string");
      if (const auto plain = plain_string()) {
        out.write_string(*plain);
        return;
      }
      Count length;
      Lexer(text_, pos_).string(length);
      out.write_u32(static_cast<std::uint32_t>(length.n));
      ToEncoder bytes{out};
      Lexer(text_, pos_).string(bytes);
      return;
    }
    case cdr::TCKind::kEnum: {
      const auto& names = type->enumerators();
      if (k == Kind::kString) {
        for (std::size_t i = 0; i < names.size(); ++i) {
          if (equals(names[i])) {
            out.write_u32(static_cast<std::uint32_t>(i));
            return;
          }
        }
        throw JsonError("json: unknown enumerator \"" + as_string() +
                        "\" for " + type->name());
      }
      out.write_u32(static_cast<std::uint32_t>(integer_in_range(
          *this, text_, pos_, 0, static_cast<std::int64_t>(names.size()) - 1,
          "enum ordinal")));
      return;
    }
    case cdr::TCKind::kSequence:
      if (k != Kind::kArray) throw JsonError("json: expected array");
      out.write_u32(static_cast<std::uint32_t>(size()));
      for (JsonItems it(*this); it.next();) {
        it.value().write_cdr(type->element(), out);
      }
      return;
    case cdr::TCKind::kStruct: {
      if (k != Kind::kObject) throw JsonError("json: expected object");
      const auto& members = type->members();
      const std::size_t fields = size();
      if (fields != members.size()) {
        throw JsonError("json: struct " + type->name() + " wants " +
                        std::to_string(members.size()) + " fields, got " +
                        std::to_string(fields));
      }
      for (const auto& [name, member_type] : members) {
        const std::optional<JsonCursor> field = find(name);
        if (!field.has_value()) {
          throw JsonError("json: struct " + type->name() +
                          " missing field \"" + name + "\"");
        }
        field->write_cdr(member_type, out);
      }
      return;
    }
    case cdr::TCKind::kAny:
    case cdr::TCKind::kObjRef:
      break;
  }
  throw JsonError(std::string("json: no JSON mapping for ") +
                  cdr::tc_kind_name(type->kind()));
}

JsonItems::JsonItems(const JsonCursor& container) noexcept
    : text_(container.text_),
      pos_(container.pos_ + 1),
      object_(container.kind() == JsonCursor::Kind::kObject),
      started_(container.kind() != JsonCursor::Kind::kObject &&
               container.kind() != JsonCursor::Kind::kArray),
      key_(container),
      value_(container) {
  // A scalar has no items: start past the end.
  if (started_) pos_ = text_.size();
}

bool JsonItems::next() {
  if (pos_ >= text_.size()) return false;
  Lexer lex(text_, pos_);
  lex.skip_ws();
  const char close = object_ ? '}' : ']';
  if (lex.peek() == close) {
    pos_ = text_.size();
    return false;
  }
  if (started_) {
    lex.expect(',');
    lex.skip_ws();
  }
  started_ = true;
  if (object_) {
    key_ = JsonCursor(text_, lex.pos());
    Discard discard;
    lex.string(discard);
    lex.skip_ws();
    lex.expect(':');
    lex.skip_ws();
  }
  value_ = JsonCursor(text_, lex.pos());
  skip_value(lex, 0);
  pos_ = lex.pos();
  return true;
}

// ---- direct CDR -> JSON ----

void write_json_from_cdr(cdr::Decoder& dec, const cdr::TypeCodePtr& type,
                         util::Bytes& out) {
  switch (type->kind()) {
    case cdr::TCKind::kVoid: put(out, "null"); return;
    case cdr::TCKind::kBoolean:
      put(out, dec.read_bool() ? "true" : "false");
      return;
    case cdr::TCKind::kOctet: write_integer(dec.read_u8(), out); return;
    case cdr::TCKind::kShort: write_integer(dec.read_i16(), out); return;
    case cdr::TCKind::kLong: write_integer(dec.read_i32(), out); return;
    case cdr::TCKind::kLongLong: write_integer(dec.read_i64(), out); return;
    case cdr::TCKind::kFloat:
      write_number(static_cast<double>(dec.read_f32()), out);
      return;
    case cdr::TCKind::kDouble: write_number(dec.read_f64(), out); return;
    case cdr::TCKind::kString: write_string(dec.read_string_view(), out); return;
    case cdr::TCKind::kEnum: {
      const std::uint32_t ordinal = dec.read_u32();
      if (ordinal >= type->enumerators().size()) {
        throw cdr::CdrError("any: enum ordinal out of range on the wire");
      }
      write_string(type->enumerators()[ordinal], out);
      return;
    }
    case cdr::TCKind::kSequence: {
      const std::uint32_t n = cdr::read_sequence_count(dec, *type->element());
      out.push_back('[');
      for (std::uint32_t i = 0; i < n; ++i) {
        if (i != 0) out.push_back(',');
        write_json_from_cdr(dec, type->element(), out);
      }
      out.push_back(']');
      return;
    }
    case cdr::TCKind::kStruct: {
      out.push_back('{');
      bool first = true;
      for (const auto& [name, member_type] : type->members()) {
        if (!first) out.push_back(',');
        first = false;
        write_string(name, out);
        out.push_back(':');
        write_json_from_cdr(dec, member_type, out);
      }
      out.push_back('}');
      return;
    }
    case cdr::TCKind::kObjRef:
      dec.read_string_view();
      break;
    case cdr::TCKind::kAny:
      throw cdr::CdrError("any: nested any unmarshaling unsupported");
  }
  throw JsonError(std::string("json: no JSON mapping for ") +
                  cdr::tc_kind_name(type->kind()));
}

void write_json_string(std::string_view s, util::Bytes& out) {
  write_string(s, out);
}

}  // namespace maqs::gateway
