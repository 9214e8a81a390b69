// Property tests for the edge gateway's protocol layers.
//
//  P1  the HTTP parser is split-invariant: any torn-read segmentation of a
//      valid wire image yields exactly the same requests.
//  P2  pipelining: N random requests concatenated and fed in random slices
//      come back in order with bodies intact.
//  P3  chunked framing is a round trip: random bodies survive random
//      chunking (with extensions and trailers) byte-for-byte.
//  P4  JSON⇄Any is the identity on random values of every
//      QIDL-representable type (scalars, strings, enums, sequences,
//      nested structs).
//  P5  the parser is total on byte soup: random input either parses or
//      poisons — never crashes, loops, or silently drops bytes.
//  P6  the direct JSON reader (JsonDocument + JsonCursor::write_cdr)
//      writes the CDR json_to_any(parse_json(doc)).encode_value writes,
//      for documents written loosely (shuffled members, whitespace,
//      escapes, repeated member names) and for mutations of them, and
//      rejects exactly the documents that path rejects.
//  P7  the direct JSON writer (write_json_from_cdr) emits exactly
//      write_json(any_to_json(Any::decode_value(...))), and fails exactly
//      where that fails on mutated CDR.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "cdr/any.hpp"
#include "cdr/decoder.hpp"
#include "cdr/encoder.hpp"
#include "cdr/typecode.hpp"
#include "gateway/http.hpp"
#include "gateway/json.hpp"
#include "util/rng.hpp"

namespace maqs::gateway {
namespace {

using cdr::Any;
using cdr::TCKind;
using cdr::TypeCode;

util::Bytes bytes(std::string_view s) {
  return util::Bytes(s.begin(), s.end());
}

std::string body_text(const HttpRequest& req) {
  return std::string(reinterpret_cast<const char*>(req.body.data()),
                     req.body.size());
}

std::string random_body(util::Rng& rng, std::size_t max_len) {
  std::string body;
  const std::size_t n = rng.next_below(max_len + 1);
  for (std::size_t i = 0; i < n; ++i) {
    // Bodies are opaque octets: exercise the full byte range including
    // CR, LF and NUL, which must not confuse the framing layer.
    body.push_back(static_cast<char>(rng.next() & 0xff));
  }
  return body;
}

std::string encode_request(const std::string& target, const std::string& body) {
  return "POST " + target + " HTTP/1.1\r\ncontent-length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

/// Feeds `wire` to a parser in random slices and returns every completed
/// request.
std::vector<HttpRequest> parse_in_slices(util::Rng& rng,
                                         const std::string& wire) {
  HttpParser parser;
  std::vector<HttpRequest> out;
  std::size_t pos = 0;
  while (pos < wire.size()) {
    const std::size_t len =
        1 + rng.next_below(std::min<std::size_t>(wire.size() - pos, 37));
    parser.feed(bytes(std::string_view(wire).substr(pos, len)));
    pos += len;
    HttpRequest req;
    while (parser.poll(req) == HttpParser::Result::kRequest) {
      out.push_back(std::move(req));
      req = HttpRequest{};
    }
  }
  return out;
}

TEST(GatewayHttpProperty, TornReadSegmentationIsInvariant) {
  util::Rng rng(0xfeed5);
  for (int round = 0; round < 200; ++round) {
    const std::string body = random_body(rng, 64);
    const std::string wire = encode_request("/api/Echo/echo", body);
    const auto requests = parse_in_slices(rng, wire);
    ASSERT_EQ(requests.size(), 1u) << "round=" << round;
    EXPECT_EQ(requests[0].target, "/api/Echo/echo");
    EXPECT_EQ(body_text(requests[0]), body) << "round=" << round;
  }
}

TEST(GatewayHttpProperty, PipelinedRequestsSurviveRandomSlicing) {
  util::Rng rng(0xfeed6);
  for (int round = 0; round < 100; ++round) {
    const std::size_t count = 1 + rng.next_below(8);
    std::vector<std::string> bodies;
    std::string wire;
    for (std::size_t i = 0; i < count; ++i) {
      bodies.push_back(random_body(rng, 48));
      wire += encode_request("/r/" + std::to_string(i), bodies.back());
    }
    const auto requests = parse_in_slices(rng, wire);
    ASSERT_EQ(requests.size(), count) << "round=" << round;
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_EQ(requests[i].target, "/r/" + std::to_string(i));
      EXPECT_EQ(body_text(requests[i]), bodies[i]) << "round=" << round;
    }
  }
}

TEST(GatewayHttpProperty, ChunkedBodiesRoundTrip) {
  util::Rng rng(0xfeed7);
  for (int round = 0; round < 200; ++round) {
    const std::string body = random_body(rng, 256);
    std::string wire =
        "POST /c HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n";
    std::size_t pos = 0;
    char size_buf[32];
    while (pos < body.size()) {
      const std::size_t len =
          1 + rng.next_below(std::min<std::size_t>(body.size() - pos, 41));
      std::snprintf(size_buf, sizeof size_buf, "%zx", len);
      wire += size_buf;
      if (rng.chance(0.25)) wire += ";ext=1";  // chunk extensions ignored
      wire += "\r\n";
      wire.append(body, pos, len);
      wire += "\r\n";
      pos += len;
    }
    wire += "0\r\n";
    if (rng.chance(0.25)) wire += "x-trailer: t\r\n";  // trailers skipped
    wire += "\r\n";

    const auto requests = parse_in_slices(rng, wire);
    ASSERT_EQ(requests.size(), 1u) << "round=" << round;
    EXPECT_EQ(body_text(requests[0]), body) << "round=" << round;
  }
}

TEST(GatewayHttpProperty, ParserIsTotalOnByteSoup) {
  util::Rng rng(0xfeed8);
  for (int round = 0; round < 300; ++round) {
    HttpParser parser;
    // Start some rounds with a plausible prefix so deeper states get hit.
    std::string soup;
    switch (rng.next_below(3)) {
      case 0: break;
      case 1: soup = "POST /x HTTP/1.1\r\n"; break;
      default: soup = "POST /x HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n";
    }
    const std::size_t n = rng.next_below(512);
    for (std::size_t i = 0; i < n; ++i) {
      soup.push_back(static_cast<char>(rng.next() & 0xff));
    }
    parser.feed(bytes(soup));
    HttpRequest req;
    // Must terminate: every poll either consumes progress or stops.
    for (int i = 0; i < 64; ++i) {
      const auto result = parser.poll(req);
      if (result != HttpParser::Result::kRequest) break;
    }
    if (parser.poisoned()) {
      EXPECT_FALSE(parser.error().empty());
    }
  }
}

// ---- P4: JSON⇄Any identity --------------------------------------------

/// Random TypeCode covering every QIDL-representable shape. Depth bounds
/// nesting; element/member types recurse.
cdr::TypeCodePtr random_typecode(util::Rng& rng, int depth) {
  const int pick = static_cast<int>(rng.next_below(depth > 0 ? 11 : 9));
  switch (pick) {
    case 0: return TypeCode::boolean_tc();
    case 1: return TypeCode::octet_tc();
    case 2: return TypeCode::short_tc();
    case 3: return TypeCode::long_tc();
    case 4: return TypeCode::longlong_tc();
    case 5: return TypeCode::float_tc();
    case 6: return TypeCode::double_tc();
    case 7: return TypeCode::string_tc();
    case 8: {
      std::vector<std::string> names;
      const std::size_t n = 1 + rng.next_below(4);
      for (std::size_t i = 0; i < n; ++i) {
        names.push_back("e" + std::to_string(i));
      }
      return TypeCode::enum_tc("E", std::move(names));
    }
    case 9: return TypeCode::sequence_tc(random_typecode(rng, depth - 1));
    default: {
      std::vector<std::pair<std::string, cdr::TypeCodePtr>> members;
      const std::size_t n = 1 + rng.next_below(3);
      for (std::size_t i = 0; i < n; ++i) {
        members.emplace_back("m" + std::to_string(i),
                             random_typecode(rng, depth - 1));
      }
      return TypeCode::struct_tc("S", std::move(members));
    }
  }
}

/// Random value of exactly `tc`'s type.
Any random_value(util::Rng& rng, const cdr::TypeCodePtr& tc) {
  switch (tc->kind()) {
    case TCKind::kBoolean: return Any::from_bool(rng.chance(0.5));
    case TCKind::kOctet:
      return Any::from_octet(static_cast<std::uint8_t>(rng.next()));
    case TCKind::kShort:
      return Any::from_short(static_cast<std::int16_t>(rng.next()));
    case TCKind::kLong:
      return Any::from_long(static_cast<std::int32_t>(rng.next()));
    case TCKind::kLongLong:
      return Any::from_longlong(static_cast<std::int64_t>(rng.next()));
    case TCKind::kFloat:
      return Any::from_float(static_cast<float>(rng.next_double() * 100.0));
    case TCKind::kDouble:
      return Any::from_double(rng.next_double() * 1e9 - 5e8);
    case TCKind::kString: {
      std::string s;
      const std::size_t n = rng.next_below(24);
      for (std::size_t i = 0; i < n; ++i) {
        s.push_back(static_cast<char>(rng.uniform(32, 126)));
      }
      return Any::from_string(std::move(s));
    }
    case TCKind::kEnum:
      return Any::from_enum(
          tc, static_cast<std::uint32_t>(
                  rng.next_below(tc->enumerators().size())));
    case TCKind::kSequence: {
      std::vector<Any> items;
      const std::size_t n = rng.next_below(4);
      for (std::size_t i = 0; i < n; ++i) {
        items.push_back(random_value(rng, tc->element()));
      }
      return Any::from_sequence(tc->element(), std::move(items));
    }
    default: {  // struct
      std::vector<Any> fields;
      for (const auto& [name, member_tc] : tc->members()) {
        (void)name;
        fields.push_back(random_value(rng, member_tc));
      }
      return Any::from_struct(tc, std::move(fields));
    }
  }
}

TEST(GatewayJsonProperty, JsonAnyIdentityOnRandomTypedValues) {
  util::Rng rng(0xfeed9);
  for (int round = 0; round < 500; ++round) {
    const cdr::TypeCodePtr tc = random_typecode(rng, 3);
    const Any value = random_value(rng, tc);
    const std::string doc = write_json(any_to_json(value));
    const Any back = json_to_any(parse_json(doc), tc);
    EXPECT_EQ(back, value) << "round=" << round << " doc=" << doc;
  }
}

TEST(GatewayJsonProperty, WriterParserFixedPoint) {
  util::Rng rng(0xfeeda);
  for (int round = 0; round < 300; ++round) {
    const cdr::TypeCodePtr tc = random_typecode(rng, 3);
    const JsonValue json = any_to_json(random_value(rng, tc));
    const std::string once = write_json(json);
    EXPECT_EQ(write_json(parse_json(once)), once) << "round=" << round;
  }
}

// ---- P6/P7: the direct reader and writer against the model -------------

/// Zero to two whitespace characters.
void add_ws(util::Rng& rng, std::string& out) {
  static constexpr char kWs[] = {' ', '\t', '\n', '\r'};
  for (std::uint64_t n = rng.next_below(3); n > 0; --n) {
    out.push_back(kWs[rng.next_below(4)]);
  }
}

/// A JSON string literal for `s`, each byte written plainly or escaped at
/// random.
void add_string(util::Rng& rng, std::string_view s, std::string& out) {
  out.push_back('"');
  for (const char c : s) {
    const auto b = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\' || b < 0x20 || rng.chance(0.2)) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04X", b);
      out += buf;
    } else if (c == '/' && rng.chance(0.5)) {
      out += "\\/";
    } else {
      out.push_back(c);
    }
  }
  out.push_back('"');
}

/// JSON text for `value` as a loose client writes it: whitespace between
/// tokens, struct members in random order, strings partly escaped, enums
/// by name or by ordinal.
void add_json(util::Rng& rng, const Any& value, std::string& out) {
  add_ws(rng, out);
  switch (value.kind()) {
    case TCKind::kBoolean: out += value.as_bool() ? "true" : "false"; break;
    case TCKind::kOctet:
    case TCKind::kShort:
    case TCKind::kLong:
    case TCKind::kLongLong: out += std::to_string(value.as_integer()); break;
    case TCKind::kFloat:
    case TCKind::kDouble: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.17g",
                    value.kind() == TCKind::kFloat
                        ? static_cast<double>(value.as_float())
                        : value.as_double());
      out += buf;
      break;
    }
    case TCKind::kString: add_string(rng, value.as_string(), out); break;
    case TCKind::kEnum:
      if (rng.chance(0.5)) {
        add_string(rng, value.as_enum_name(), out);
      } else {
        out += std::to_string(value.as_enum_ordinal());
      }
      break;
    case TCKind::kSequence: {
      out.push_back('[');
      bool first = true;
      for (const Any& item : value.as_elements()) {
        if (!first) out.push_back(',');
        first = false;
        add_json(rng, item, out);
      }
      add_ws(rng, out);
      out.push_back(']');
      break;
    }
    default: {  // struct
      std::vector<std::size_t> order(value.as_elements().size());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      for (std::size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[rng.next_below(i)]);
      }
      out.push_back('{');
      bool first = true;
      for (const std::size_t i : order) {
        if (!first) out.push_back(',');
        first = false;
        add_ws(rng, out);
        add_string(rng, value.type()->members()[i].first, out);
        add_ws(rng, out);
        out.push_back(':');
        add_json(rng, value.as_elements()[i], out);
      }
      add_ws(rng, out);
      out.push_back('}');
      break;
    }
  }
  add_ws(rng, out);
}

/// A random type and value; one time in four wrapped in a struct whose two
/// members share a name, so that the first of the two in document order
/// supplies both fields.
std::pair<cdr::TypeCodePtr, Any> random_typed_value(util::Rng& rng) {
  const cdr::TypeCodePtr inner = random_typecode(rng, 3);
  if (!rng.chance(0.25)) return {inner, random_value(rng, inner)};
  const cdr::TypeCodePtr pair =
      TypeCode::struct_tc("Twice", {{"v", inner}, {"v", inner}});
  return {pair, Any::from_struct(pair, {random_value(rng, inner),
                                        random_value(rng, inner)})};
}

/// One random edit: replace, insert or delete a byte, or truncate.
void mutate(util::Rng& rng, std::string& doc) {
  static constexpr std::string_view kBytes = "{}[]\",:\\ -+.eE0123456789tfnu";
  const std::size_t at = rng.next_below(doc.size() + 1);
  const char c = kBytes[rng.next_below(kBytes.size())];
  switch (rng.next_below(4)) {
    case 0:
      if (at < doc.size()) doc[at] = c;
      break;
    case 1: doc.insert(doc.begin() + static_cast<std::ptrdiff_t>(at), c); break;
    case 2:
      if (at < doc.size()) doc.erase(at, 1);
      break;
    default: doc.resize(at);
  }
}

/// CDR of `doc` read as `type` through the model; nullopt when rejected.
std::optional<util::Bytes> model_cdr(const std::string& doc,
                                     const cdr::TypeCodePtr& type) {
  try {
    cdr::Encoder enc;
    json_to_any(parse_json(doc), type).encode_value(enc);
    return enc.take();
  } catch (const JsonError&) {
    return std::nullopt;
  }
}

/// The same through the direct reader.
std::optional<util::Bytes> direct_cdr(const std::string& doc,
                                      const cdr::TypeCodePtr& type) {
  try {
    cdr::Encoder enc;
    JsonDocument(doc).root().write_cdr(type, enc);
    return enc.take();
  } catch (const JsonError&) {
    return std::nullopt;
  }
}

TEST(GatewayJsonProperty, DirectReaderMatchesTheModel) {
  util::Rng rng(0xfeedb);
  int accepted = 0;
  int rejected = 0;
  for (int round = 0; round < 600; ++round) {
    const auto [tc, value] = random_typed_value(rng);
    std::string doc;
    add_json(rng, value, doc);
    const auto expected = model_cdr(doc, tc);
    ASSERT_TRUE(expected.has_value()) << "round=" << round << " doc=" << doc;
    EXPECT_EQ(direct_cdr(doc, tc), expected)
        << "round=" << round << " doc=" << doc;
    for (int edit = 0; edit < 8; ++edit) {
      std::string mutated = doc;
      for (std::uint64_t n = 1 + rng.next_below(3); n > 0; --n) {
        mutate(rng, mutated);
      }
      const auto model = model_cdr(mutated, tc);
      EXPECT_EQ(direct_cdr(mutated, tc), model)
          << "round=" << round << " doc=" << mutated;
      ++(model.has_value() ? accepted : rejected);
    }
  }
  // Both outcomes are exercised.
  EXPECT_GT(accepted, 200);
  EXPECT_GT(rejected, 2000);
}

TEST(GatewayJsonProperty, DirectReaderKeepsTheModelsDepthLimit) {
  const cdr::TypeCodePtr tc = TypeCode::long_tc();
  for (const int depth : {64, 65, 66, 200}) {
    const std::string doc = std::string(static_cast<std::size_t>(depth), '[') +
                            std::string(static_cast<std::size_t>(depth), ']');
    bool model_throws = false;
    try {
      parse_json(doc);
    } catch (const JsonError&) {
      model_throws = true;
    }
    bool direct_throws = false;
    try {
      JsonDocument{doc};
    } catch (const JsonError&) {
      direct_throws = true;
    }
    EXPECT_EQ(direct_throws, model_throws) << depth;
  }
}

/// JSON for a CDR stream through the model; nullopt when it fails.
std::optional<std::string> model_json(const util::Bytes& cdr,
                                      const cdr::TypeCodePtr& type) {
  try {
    cdr::Decoder dec{util::BytesView(cdr)};
    return write_json(any_to_json(Any::decode_value(dec, type)));
  } catch (const Error&) {
    return std::nullopt;
  }
}

/// The same through the direct writer.
std::optional<std::string> direct_json(const util::Bytes& cdr,
                                       const cdr::TypeCodePtr& type) {
  try {
    cdr::Decoder dec{util::BytesView(cdr)};
    util::Bytes out;
    write_json_from_cdr(dec, type, out);
    return std::string(out.begin(), out.end());
  } catch (const Error&) {
    return std::nullopt;
  }
}

TEST(GatewayJsonProperty, DirectWriterMatchesTheModel) {
  util::Rng rng(0xfeedc);
  int failed = 0;
  for (int round = 0; round < 600; ++round) {
    const auto [tc, value] = random_typed_value(rng);
    cdr::Encoder enc;
    value.encode_value(enc);
    const util::Bytes cdr = enc.take();
    const auto expected = model_json(cdr, tc);
    ASSERT_TRUE(expected.has_value()) << "round=" << round;
    EXPECT_EQ(direct_json(cdr, tc), expected) << "round=" << round;
    for (int edit = 0; edit < 4 && !cdr.empty(); ++edit) {
      util::Bytes mutated = cdr;
      if (rng.chance(0.5)) {
        mutated.resize(rng.next_below(cdr.size()));
      } else {
        mutated[rng.next_below(cdr.size())] =
            static_cast<std::uint8_t>(rng.next());
      }
      const auto model = model_json(mutated, tc);
      EXPECT_EQ(direct_json(mutated, tc), model) << "round=" << round;
      failed += model.has_value() ? 0 : 1;
    }
  }
  EXPECT_GT(failed, 100);
}

}  // namespace
}  // namespace maqs::gateway
