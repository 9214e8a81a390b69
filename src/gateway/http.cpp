#include "gateway/http.hpp"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <initializer_list>

#include "util/buffer_pool.hpp"

namespace maqs::gateway {

namespace {

char fold(char c) noexcept {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

/// Parses a decimal size; nullopt on garbage or overflow.
std::optional<std::size_t> parse_size(std::string_view s) {
  if (s.empty() || s.size() > 12) return std::nullopt;
  std::size_t value = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return std::nullopt;
    value = value * 10 + static_cast<std::size_t>(c - '0');
  }
  return value;
}

/// Parses a hex chunk size (chunk extensions after ';' are ignored).
std::optional<std::size_t> parse_chunk_size(std::string_view s) {
  if (const auto semi = s.find(';'); semi != std::string_view::npos) {
    s = s.substr(0, semi);
  }
  s = trim(s);
  if (s.empty() || s.size() > 8) return std::nullopt;
  std::size_t value = 0;
  for (char c : s) {
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else if (c >= 'A' && c <= 'F') {
      digit = c - 'A' + 10;
    } else {
      return std::nullopt;
    }
    value = value * 16 + static_cast<std::size_t>(digit);
  }
  return value;
}

/// Header slots a fresh message reserves: more than a gateway exchange
/// carries, so one allocation holds them all.
constexpr std::size_t kHeaderSlots = 8;

/// Appends the pieces with one resize: a head is a dozen short pieces,
/// and growing the buffer once per piece costs more than copying them.
void append_text(util::Bytes& out,
                 std::initializer_list<std::string_view> pieces) {
  std::size_t n = 0;
  for (const std::string_view piece : pieces) n += piece.size();
  const std::size_t at = out.size();
  out.resize(at + n);
  auto* cursor = reinterpret_cast<char*>(out.data() + at);
  for (const std::string_view piece : pieces) {
    std::memcpy(cursor, piece.data(), piece.size());
    cursor += piece.size();
  }
}

}  // namespace

std::optional<std::string_view> HeaderFields::find(
    std::string_view name) const noexcept {
  for (const Field& field : fields_) {
    if (std::string_view(text_.data() + field.name, field.name_size) ==
        name) {
      return std::string_view(text_.data() + field.value, field.value_size);
    }
  }
  return std::nullopt;
}

std::pair<std::string_view, std::string_view> HeaderFields::operator[](
    std::size_t i) const noexcept {
  const Field& field = fields_[i];
  return {std::string_view(text_.data() + field.name, field.name_size),
          std::string_view(text_.data() + field.value, field.value_size)};
}

void HeaderFields::add(std::string_view name, std::string_view value) {
  Field field;
  field.name = static_cast<std::uint32_t>(text_.size());
  field.name_size = static_cast<std::uint32_t>(name.size());
  text_.append(name);
  field.value = static_cast<std::uint32_t>(text_.size());
  field.value_size = static_cast<std::uint32_t>(value.size());
  text_.append(value);
  fields_.push_back(field);
}

bool HeaderFields::parse(std::string_view block) {
  // One copy of the block; the fields are offsets into it.
  text_.assign(block);
  fields_.clear();
  if (fields_.capacity() == 0) fields_.reserve(kHeaderSlots);
  char* const base = text_.data();
  char* p = base;
  char* const end = base + text_.size();
  while (p < end) {
    // The line runs to the next CRLF (a lone CR is content).
    char* eol = p;
    for (;;) {
      eol = static_cast<char*>(
          std::memchr(eol, '\r', static_cast<std::size_t>(end - eol)));
      if (eol == nullptr || (eol + 1 < end && eol[1] == '\n')) break;
      ++eol;
    }
    if (eol == nullptr) eol = end;
    char* const line = p;
    p = eol == end ? end : eol + 2;
    if (eol == line) continue;
    auto* const colon = static_cast<char*>(
        std::memchr(line, ':', static_cast<std::size_t>(eol - line)));
    if (colon == nullptr || colon == line) return false;
    for (char* c = line; c < colon; ++c) {
      if (*c == ' ' || *c == '\t') return false;
      *c = fold(*c);
    }
    const std::string_view value = trim(std::string_view(
        colon + 1, static_cast<std::size_t>(eol - colon - 1)));
    Field field;
    field.name = static_cast<std::uint32_t>(line - base);
    field.name_size = static_cast<std::uint32_t>(colon - line);
    field.value = static_cast<std::uint32_t>(value.data() - base);
    field.value_size = static_cast<std::uint32_t>(value.size());
    fields_.push_back(field);
  }
  return true;
}

std::string_view status_reason(int status) noexcept {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 500: return "Internal Server Error";
    case 502: return "Bad Gateway";
    case 503: return "Service Unavailable";
    case 504: return "Gateway Timeout";
    default: return "Unknown";
  }
}

void append_status_line(util::Bytes& out, int status) {
  char code[16];
  const auto end = std::to_chars(code, code + sizeof code, status).ptr;
  append_text(out, {"HTTP/1.1 ",
                    std::string_view(code, static_cast<std::size_t>(end - code)),
                    " ", status_reason(status), "\r\n"});
}

void append_header(util::Bytes& out, std::string_view name,
                   std::string_view value) {
  append_text(out, {name, ": ", value, "\r\n"});
}

void append_head_end(util::Bytes& out, std::size_t content_length,
                     bool close) {
  char length[24];
  const auto end =
      std::to_chars(length, length + sizeof length, content_length).ptr;
  append_text(out,
              {"content-length: ",
               std::string_view(length, static_cast<std::size_t>(end - length)),
               close ? "\r\nconnection: close\r\n\r\n" : "\r\n\r\n"});
}

bool iequals(std::string_view a, std::string_view b) noexcept {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(),
                    [](char x, char y) { return fold(x) == fold(y); });
}

util::Bytes HttpResponse::encode() const {
  util::Bytes out;
  out.reserve(64 + body.size());
  append_status_line(out, status);
  for (std::size_t i = 0; i < headers.size(); ++i) {
    append_header(out, headers[i].first, headers[i].second);
  }
  append_head_end(out, body.size(), close_connection);
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

// ---- FeedBuffer ----

void FeedBuffer::append(util::BytesView data) {
  if (data.empty()) return;
  if (buffer_.capacity() == 0) {
    buffer_ = util::BufferPool::instance().acquire(data.size());
  } else if (consumed_ > 0 && consumed_ >= buffer_.size() / 2) {
    // Compact once the parsed prefix dominates the buffer, so a long-lived
    // keep-alive connection does not grow its buffer without bound.
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buffer_.insert(buffer_.end(), data.begin(), data.end());
}

std::size_t FeedBuffer::move_into(util::Bytes& body, std::size_t n) {
  const std::size_t take = std::min(n, size());
  if (take == 0) return 0;
  if (body.capacity() == 0) body = util::BufferPool::instance().acquire(take);
  const auto first =
      buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_);
  body.insert(body.end(), first, first + static_cast<std::ptrdiff_t>(take));
  consume(take);
  return take;
}

void FeedBuffer::consume(std::size_t n) noexcept {
  consumed_ += n;
  if (consumed_ == buffer_.size()) {
    util::BufferPool::instance().release(std::move(buffer_));
    consumed_ = 0;
  }
}

// ---- HttpParser ----

void HttpParser::feed(util::BytesView data) {
  if (poisoned_) return;
  buffer_.append(data);
}

HttpParser::Result HttpParser::fail(std::string what) {
  poisoned_ = true;
  error_ = std::move(what);
  return Result::kError;
}

void swap(HttpRequest& a, HttpRequest& b) noexcept {
  a.method.swap(b.method);
  a.target.swap(b.target);
  a.version.swap(b.version);
  a.headers.swap(b.headers);
  a.body.swap(b.body);
  std::swap(a.keep_alive, b.keep_alive);
}

HttpParser::Result HttpParser::complete(HttpRequest& out) {
  swap(out, pending_);
  // pending_ now holds what the caller passed in: its strings and header
  // buffer take the next head, its body (if any) goes back to the pool.
  if (pending_.body.capacity() != 0) {
    util::BufferPool::instance().release(std::move(pending_.body));
  }
  return Result::kRequest;
}

/// Parses the request line + header block at the front of the buffer into
/// pending_, if the CRLF CRLF terminator has arrived, and consumes it.
/// Returns false when more bytes are needed (or the parser was poisoned).
bool HttpParser::parse_head() {
  const std::string_view view = buffer_.view();
  const auto head_end = view.find("\r\n\r\n");
  if (head_end == std::string_view::npos) {
    if (view.size() > kMaxHeaderBytes) {
      fail("header block exceeds " + std::to_string(kMaxHeaderBytes) +
           " bytes");
    }
    return false;
  }
  if (head_end > kMaxHeaderBytes) {
    fail("header block exceeds " + std::to_string(kMaxHeaderBytes) + " bytes");
    return false;
  }
  const std::string_view head = view.substr(0, head_end);
  const auto line_end = head.find("\r\n");
  const std::string_view request_line =
      line_end == std::string_view::npos ? head : head.substr(0, line_end);

  const auto sp1 = request_line.find(' ');
  const auto sp2 =
      sp1 == std::string_view::npos ? sp1 : request_line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos ||
      sp2 == sp1 + 1) {
    fail("malformed request line");
    return false;
  }
  HttpRequest& out = pending_;
  out.method.assign(request_line.substr(0, sp1));
  out.target.assign(request_line.substr(sp1 + 1, sp2 - sp1 - 1));
  out.version.assign(trim(request_line.substr(sp2 + 1)));
  if (out.method.empty() || out.target.empty() || out.target[0] != '/' ||
      (out.version != "HTTP/1.1" && out.version != "HTTP/1.0")) {
    fail("malformed request line");
    return false;
  }
  const std::string_view header_block =
      line_end == std::string_view::npos ? std::string_view{}
                                         : head.substr(line_end + 2);
  if (!out.headers.parse(header_block)) {
    fail("malformed header line");
    return false;
  }
  out.keep_alive = out.version == "HTTP/1.1";
  if (const auto conn = out.header("connection")) {
    if (iequals(*conn, "close")) out.keep_alive = false;
    if (iequals(*conn, "keep-alive")) out.keep_alive = true;
  }
  buffer_.consume(head_end + 4);
  return true;
}

HttpParser::Result HttpParser::poll(HttpRequest& out) {
  if (poisoned_) return Result::kError;
  for (;;) {
    switch (state_) {
      case State::kHeaders: {
        if (!parse_head()) {
          return poisoned_ ? Result::kError : Result::kNeedMore;
        }
        const auto te = pending_.header("transfer-encoding");
        const auto cl = pending_.header("content-length");
        if (te.has_value()) {
          if (!iequals(*te, "chunked") || cl.has_value()) {
            return fail("unsupported transfer-encoding");
          }
          state_ = State::kChunkHeader;
          break;
        }
        std::size_t length = 0;
        if (cl.has_value()) {
          const auto parsed = parse_size(trim(*cl));
          if (!parsed.has_value()) return fail("malformed content-length");
          length = *parsed;
        }
        if (length > kMaxBodyBytes) return fail("body exceeds limit");
        if (length == 0) return complete(out);
        // The body grows with the bytes that arrive: a declared length
        // reserves nothing.
        body_remaining_ = length;
        state_ = State::kBody;
        break;
      }
      case State::kBody: {
        body_remaining_ -= buffer_.move_into(pending_.body, body_remaining_);
        if (body_remaining_ > 0) return Result::kNeedMore;
        state_ = State::kHeaders;
        return complete(out);
      }
      case State::kChunkHeader: {
        const std::string_view view = buffer_.view();
        const auto eol = view.find("\r\n");
        if (eol == std::string_view::npos) {
          if (view.size() > 64) return fail("malformed chunk size line");
          return Result::kNeedMore;
        }
        const auto size = parse_chunk_size(view.substr(0, eol));
        if (!size.has_value()) return fail("malformed chunk size line");
        buffer_.consume(eol + 2);
        if (pending_.body.size() + *size > kMaxBodyBytes) {
          return fail("body exceeds limit");
        }
        if (*size == 0) {
          state_ = State::kChunkTrailer;
        } else {
          chunk_remaining_ = *size;
          state_ = State::kChunkData;
        }
        break;
      }
      case State::kChunkData: {
        // The chunk's data plus its trailing CRLF must be consumed; the
        // CRLF is validated once fully buffered.
        chunk_remaining_ -=
            buffer_.move_into(pending_.body, chunk_remaining_);
        if (chunk_remaining_ > 0) return Result::kNeedMore;
        const std::string_view view = buffer_.view();
        if (view.size() < 2) return Result::kNeedMore;
        if (view[0] != '\r' || view[1] != '\n') {
          return fail("chunk data not CRLF-terminated");
        }
        buffer_.consume(2);
        state_ = State::kChunkHeader;
        break;
      }
      case State::kChunkTrailer: {
        // Trailer section: zero or more header lines, then a blank line.
        // The gateway ignores trailer fields.
        const std::string_view view = buffer_.view();
        const auto end = view.find("\r\n");
        if (end == std::string_view::npos) {
          if (view.size() > kMaxHeaderBytes) return fail("trailer too large");
          return Result::kNeedMore;
        }
        buffer_.consume(end + 2);
        if (end != 0) break;  // a trailer field; keep scanning for blank
        state_ = State::kHeaders;
        return complete(out);
      }
    }
  }
}

// ---- HttpResponseParser ----

void HttpResponseParser::feed(util::BytesView data) {
  if (poisoned_) return;
  buffer_.append(data);
}

HttpResponseParser::Result HttpResponseParser::fail(std::string what) {
  poisoned_ = true;
  error_ = std::move(what);
  return Result::kError;
}

HttpResponseParser::Result HttpResponseParser::poll(HttpResponse& out) {
  if (poisoned_) return Result::kError;
  for (;;) {
    if (!in_body_) {
      const std::string_view view = buffer_.view();
      const auto head_end = view.find("\r\n\r\n");
      if (head_end == std::string_view::npos) return Result::kNeedMore;
      const std::string_view head = view.substr(0, head_end);
      const auto line_end = head.find("\r\n");
      const std::string_view status_line =
          line_end == std::string_view::npos ? head : head.substr(0, line_end);
      // "HTTP/1.1 NNN Reason"
      const auto sp1 = status_line.find(' ');
      if (sp1 == std::string_view::npos ||
          status_line.substr(0, 5) != "HTTP/") {
        return fail("malformed status line");
      }
      const std::string_view code = status_line.substr(sp1 + 1);
      if (code.size() < 3) return fail("malformed status line");
      int status = 0;
      for (int i = 0; i < 3; ++i) {
        if (code[static_cast<std::size_t>(i)] < '0' ||
            code[static_cast<std::size_t>(i)] > '9') {
          return fail("malformed status line");
        }
        status = status * 10 + (code[static_cast<std::size_t>(i)] - '0');
      }
      pending_.status = status;
      pending_.close_connection = false;
      const std::string_view header_block =
          line_end == std::string_view::npos ? std::string_view{}
                                             : head.substr(line_end + 2);
      if (!pending_.headers.parse(header_block)) {
        return fail("malformed header line");
      }
      buffer_.consume(head_end + 4);
      std::size_t length = 0;
      if (const auto cl = pending_.header("content-length")) {
        const auto parsed = parse_size(trim(*cl));
        if (!parsed.has_value()) return fail("malformed content-length");
        length = *parsed;
      }
      body_remaining_ = length;
      in_body_ = true;
    }
    body_remaining_ -= buffer_.move_into(pending_.body, body_remaining_);
    if (body_remaining_ > 0) return Result::kNeedMore;
    in_body_ = false;
    std::swap(out, pending_);
    if (pending_.body.capacity() != 0) {
      util::BufferPool::instance().release(std::move(pending_.body));
    }
    return Result::kResponse;
  }
}

}  // namespace maqs::gateway
