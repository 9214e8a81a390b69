// HTTP/1.1 subset for the edge gateway.
//
// The gateway terminates HTTP at the boundary of the simulated network:
// each net::Network payload is one TCP-segment-like chunk, so the parser
// is incremental and tolerant of torn reads — a request may arrive split
// at any byte position across any number of payloads, or several
// pipelined requests may arrive in one. Supported subset:
//
//   - request line + headers (case-insensitive names, stored folded to
//     lowercase), terminated by CRLF CRLF
//   - bodies via Content-Length or Transfer-Encoding: chunked
//   - keep-alive (HTTP/1.1 default) and "Connection: close"
//   - pipelining: feed() accumulates, poll() yields requests in order
//
// Anything outside the subset (bad request line, oversized headers or
// body, malformed chunk framing) poisons the parser: poll() reports
// kError once and the connection must be answered 400 and dropped. The
// parser never throws on wire input — malformed bytes are a state, not an
// exception.
//
// Storage is recycled, not rebuilt: poll() swaps the finished request with
// the caller's, whose strings and header buffer the next request's head is
// parsed into (a keep-alive connection repeats the same header set, so its
// steady state allocates nothing). Bodies and the feed buffer come from
// util::BufferPool, grow with the bytes actually received rather than with
// a declared Content-Length, and the parser holds neither between
// requests. A request still owns all of its bytes, so it stays valid while
// more bytes are fed.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/bytes.hpp"

namespace maqs::gateway {

/// A message's header fields, in order, held in one owned buffer: a
/// recycled message reuses it, so parsing the header set a keep-alive
/// connection repeats allocates nothing.
class HeaderFields {
 public:
  /// First field named `name`; nullopt when absent.
  std::optional<std::string_view> find(std::string_view name) const noexcept;
  /// Appends a field as given.
  void add(std::string_view name, std::string_view value);
  std::size_t size() const noexcept { return fields_.size(); }
  /// The i-th field as (name, value).
  std::pair<std::string_view, std::string_view> operator[](
      std::size_t i) const noexcept;

  /// Replaces the fields with the lines of a header block (without its
  /// final blank line): names folded to lowercase, values trimmed of
  /// spaces and tabs. False on a malformed line: no colon, an empty name,
  /// or a space or tab in the name (obsolete line folding included).
  bool parse(std::string_view block);

  void swap(HeaderFields& other) noexcept {
    text_.swap(other.text_);
    fields_.swap(other.fields_);
  }

 private:
  struct Field {
    std::uint32_t name = 0;
    std::uint32_t name_size = 0;
    std::uint32_t value = 0;
    std::uint32_t value_size = 0;
  };

  std::string text_;  // the fields' bytes; Field offsets point into it
  std::vector<Field> fields_;
};

/// One parsed request. Header names are folded to lowercase; values keep
/// their bytes with surrounding whitespace trimmed.
struct HttpRequest {
  std::string method;
  std::string target;   // origin-form path, e.g. "/api/Echo/add"
  std::string version;  // "HTTP/1.1"
  HeaderFields headers;
  util::Bytes body;
  bool keep_alive = true;

  /// First header named `name` (lowercase); nullopt when absent.
  std::optional<std::string_view> header(std::string_view name) const {
    return headers.find(name);
  }
};

/// Exchanges two requests' storage member by member.
void swap(HttpRequest& a, HttpRequest& b) noexcept;

struct HttpResponse {
  int status = 200;
  HeaderFields headers;
  util::Bytes body;
  bool close_connection = false;

  void set_header(std::string_view name, std::string_view value) {
    headers.add(name, value);
  }
  std::optional<std::string_view> header(std::string_view name) const {
    return headers.find(name);
  }

  /// Serializes status line + headers + Content-Length + body.
  util::Bytes encode() const;
};

/// Canonical reason phrase for the subset of status codes the gateway
/// emits; "Unknown" otherwise.
std::string_view status_reason(int status) noexcept;

// Response head pieces, in wire order; HttpResponse::encode and the
// gateway's direct writer both use them.

/// "HTTP/1.1 <status> <reason>\r\n".
void append_status_line(util::Bytes& out, int status);
/// "<name>: <value>\r\n".
void append_header(util::Bytes& out, std::string_view name,
                   std::string_view value);
/// content-length, "connection: close" when `close`, and the blank line.
void append_head_end(util::Bytes& out, std::size_t content_length,
                     bool close);

/// ASCII case-insensitive equality (header values such as "Close").
bool iequals(std::string_view a, std::string_view b) noexcept;

/// Bytes fed to a parser and not yet parsed. The storage comes from
/// util::BufferPool and goes back there whenever everything fed has been
/// parsed, so an idle connection holds no buffer.
class FeedBuffer {
 public:
  void append(util::BytesView data);
  /// The unparsed bytes.
  std::string_view view() const noexcept {
    if (buffer_.empty()) return {};
    return {reinterpret_cast<const char*>(buffer_.data()) + consumed_,
            buffer_.size() - consumed_};
  }
  std::size_t size() const noexcept { return buffer_.size() - consumed_; }
  /// Moves up to `n` unparsed bytes onto the end of `body`.
  std::size_t move_into(util::Bytes& body, std::size_t n);
  /// Marks `n` bytes parsed.
  void consume(std::size_t n) noexcept;

 private:
  util::Bytes buffer_;
  std::size_t consumed_ = 0;  // prefix of buffer_ already parsed away
};

class HttpParser {
 public:
  enum class Result {
    kNeedMore,  // no complete request buffered yet
    kRequest,   // one request extracted into the out-parameter
    kError,     // framing violation; parser is poisoned
  };

  /// Hard limits; exceeding either poisons the parser (the gateway
  /// answers 400/413-as-400 and drops the connection).
  static constexpr std::size_t kMaxHeaderBytes = 8 * 1024;
  static constexpr std::size_t kMaxBodyBytes = 4 * 1024 * 1024;

  /// Appends one torn read. No parsing happens here; feed() never fails.
  void feed(util::BytesView data);

  /// Extracts the next complete request, if any. Call repeatedly until
  /// kNeedMore (pipelining). After kError the parser stays poisoned.
  Result poll(HttpRequest& out);

  bool poisoned() const noexcept { return poisoned_; }
  /// Diagnostic for the 400 fault body after kError.
  const std::string& error() const noexcept { return error_; }
  /// Bytes buffered but not yet consumed (mid-request).
  std::size_t buffered() const noexcept { return buffer_.size(); }

 private:
  enum class State { kHeaders, kBody, kChunkHeader, kChunkData, kChunkTrailer };

  Result fail(std::string what);
  bool parse_head();
  /// Hands pending_ out through `out` and recycles what `out` held.
  Result complete(HttpRequest& out);

  FeedBuffer buffer_;
  State state_ = State::kHeaders;
  HttpRequest pending_;        // request whose head/body is being parsed
  std::size_t body_remaining_ = 0;
  std::size_t chunk_remaining_ = 0;
  bool poisoned_ = false;
  std::string error_;
};

/// Client-side twin of HttpParser: parses responses (status line instead
/// of request line; same torn-read tolerance). Used by tests and the
/// bench HTTP client.
class HttpResponseParser {
 public:
  enum class Result { kNeedMore, kResponse, kError };

  void feed(util::BytesView data);
  Result poll(HttpResponse& out);
  const std::string& error() const noexcept { return error_; }

 private:
  Result fail(std::string what);

  FeedBuffer buffer_;
  bool in_body_ = false;
  HttpResponse pending_;
  std::size_t body_remaining_ = 0;
  bool poisoned_ = false;
  std::string error_;
};

}  // namespace maqs::gateway
