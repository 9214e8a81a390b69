#include "gateway/mtom.hpp"

#include <algorithm>

#include "gateway/http.hpp"

namespace maqs::gateway {

namespace {

std::string to_lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](char c) {
    return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
  });
  return out;
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

std::string_view as_view(util::BytesView b) {
  return {reinterpret_cast<const char*>(b.data()), b.size()};
}

/// Strips optional surrounding quotes or <> brackets.
std::string_view unwrap(std::string_view s, char open, char close) {
  if (s.size() >= 2 && s.front() == open && s.back() == close) {
    return s.substr(1, s.size() - 2);
  }
  return s;
}

/// Whether `text` holds the dash-boundary "--<boundary>" at `pos`.
bool delimiter_at(std::string_view text, std::size_t pos,
                  std::string_view boundary) {
  return text.substr(pos, 2) == "--" &&
         text.substr(pos + 2, boundary.size()) == boundary;
}

/// First CRLF + dash-boundary at or after `pos`; npos when none.
std::size_t find_delimiter(std::string_view text, std::size_t pos,
                           std::string_view boundary) {
  for (;;) {
    pos = text.find("\r\n", pos);
    if (pos == std::string_view::npos) return pos;
    if (delimiter_at(text, pos + 2, boundary)) return pos;
    ++pos;
  }
}

}  // namespace

const MtomPart* MtomContainer::find(std::string_view cid_url) const {
  std::string_view id = cid_url;
  if (id.substr(0, 4) == "cid:") id.remove_prefix(4);
  for (const MtomPart& part : parts) {
    if (part.content_id == id) return &part;
  }
  return nullptr;
}

ContentTypeView split_content_type(std::string_view header_value) {
  ContentTypeView out;
  const auto semi = header_value.find(';');
  out.media_type = trim(header_value.substr(0, semi));
  std::string_view rest =
      semi == std::string_view::npos ? std::string_view{}
                                     : header_value.substr(semi + 1);
  while (!rest.empty()) {
    const auto next = rest.find(';');
    std::string_view param = trim(rest.substr(0, next));
    rest = next == std::string_view::npos ? std::string_view{}
                                          : rest.substr(next + 1);
    const auto eq = param.find('=');
    if (eq == std::string_view::npos) continue;
    if (iequals(trim(param.substr(0, eq)), "boundary")) {
      out.boundary = unwrap(trim(param.substr(eq + 1)), '"', '"');
    }
  }
  return out;
}

ContentType parse_content_type(std::string_view header_value) {
  const ContentTypeView view = split_content_type(header_value);
  return ContentType{to_lower(view.media_type), std::string(view.boundary)};
}

std::optional<MtomContainer> parse_multipart_related(
    util::BytesView body, std::string_view boundary) {
  if (boundary.empty()) return std::nullopt;
  const std::string_view text = as_view(body);

  // The container must open with the first dash-boundary (a preamble is
  // not part of this subset).
  if (!delimiter_at(text, 0, boundary)) return std::nullopt;
  std::size_t pos = 2 + boundary.size();

  MtomContainer container;
  bool have_root = false;
  for (;;) {
    if (text.substr(pos, 2) == "--") {
      // Closing delimiter; optional trailing CRLF.
      if (!have_root) return std::nullopt;
      return container;
    }
    if (text.substr(pos, 2) != "\r\n") return std::nullopt;
    pos += 2;

    // Part headers up to the blank line.
    const auto head_end = text.find("\r\n\r\n", pos);
    if (head_end == std::string_view::npos) return std::nullopt;
    std::string_view head = text.substr(pos, head_end - pos);
    std::string_view content_id;
    std::string_view content_type = "application/octet-stream";
    while (!head.empty()) {
      const auto eol = head.find("\r\n");
      const std::string_view line =
          eol == std::string_view::npos ? head : head.substr(0, eol);
      head = eol == std::string_view::npos ? std::string_view{}
                                           : head.substr(eol + 2);
      const auto colon = line.find(':');
      if (colon == std::string_view::npos) return std::nullopt;
      const std::string_view name = trim(line.substr(0, colon));
      const std::string_view value = trim(line.substr(colon + 1));
      if (iequals(name, "content-id")) {
        content_id = unwrap(value, '<', '>');
      } else if (iequals(name, "content-type")) {
        content_type = value;
      }
    }
    pos = head_end + 4;

    // Part data runs to the next CRLF + dash-boundary.
    const auto data_end = find_delimiter(text, pos, boundary);
    if (data_end == std::string_view::npos) return std::nullopt;
    const util::BytesView data = body.subspan(pos, data_end - pos);
    pos = data_end + 4 + boundary.size();

    if (!have_root) {
      // First part is the root JSON document regardless of cid.
      container.root = data;
      have_root = true;
    } else {
      if (content_id.empty()) return std::nullopt;
      container.parts.push_back(MtomPart{std::string(content_id),
                                         to_lower(content_type), data});
    }
  }
}

MultipartBuilder::MultipartBuilder(std::string boundary)
    : boundary_(std::move(boundary)) {}

std::string MultipartBuilder::content_type() const {
  return "multipart/related; boundary=" + boundary_ +
         "; type=\"application/json\"";
}

void MultipartBuilder::add_json_root(std::string_view json) {
  Piece piece;
  piece.head =
      "--" + boundary_ + "\r\ncontent-type: application/json\r\n\r\n";
  piece.owned = std::string(json);
  pieces_.push_back(std::move(piece));
}

void MultipartBuilder::add_blob_part(std::string_view cid,
                                     util::BytesView data) {
  Piece piece;
  piece.head = "--" + boundary_ + "\r\ncontent-id: <" + std::string(cid) +
               ">\r\ncontent-type: application/octet-stream\r\n\r\n";
  piece.data = data;
  pieces_.push_back(std::move(piece));
}

std::size_t MultipartBuilder::encoded_size() const noexcept {
  std::size_t total = 0;
  for (const Piece& piece : pieces_) {
    total += piece.head.size() +
             (piece.owned.empty() ? piece.data.size() : piece.owned.size()) +
             2;  // part-terminating CRLF
  }
  return total + 2 + boundary_.size() + 4;  // "--B--\r\n"
}

util::Bytes MultipartBuilder::finish() {
  util::Bytes out;
  out.reserve(encoded_size());
  auto append = [&out](std::string_view s) {
    out.insert(out.end(), s.begin(), s.end());
  };
  for (const Piece& piece : pieces_) {
    append(piece.head);
    if (!piece.owned.empty()) {
      append(piece.owned);
    } else {
      out.insert(out.end(), piece.data.begin(), piece.data.end());
    }
    append("\r\n");
  }
  append("--" + boundary_ + "--\r\n");
  pieces_.clear();
  return out;
}

}  // namespace maqs::gateway
