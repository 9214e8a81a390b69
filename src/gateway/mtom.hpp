// MTOM-style out-of-band payload carriage: multipart/related containers
// whose root part is the JSON document and whose binary parts carry blob
// (sequence<octet>) values referenced by cid.
//
// Wire shape (a strict, deterministic subset of RFC 2387 + MTOM):
//
//   Content-Type: multipart/related; boundary=B; type="application/json"
//
//   --B\r\n
//   content-type: application/json\r\n
//   \r\n
//   {"data":{"$blob":"cid:part0"}}\r\n
//   --B\r\n
//   content-id: <part0>\r\n
//   content-type: application/octet-stream\r\n
//   \r\n
//   <raw bytes>\r\n
//   --B--\r\n
//
// Parsing is zero-copy: each part's data is a BytesView into the
// container body (which the gateway keeps alive until the DII request is
// encoded), so a 4KiB blob crosses from HTTP body to CDR request body
// with exactly one copy — and on the reply side with one more, from the
// reply buffer into the response frame.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/bytes.hpp"

namespace maqs::gateway {

struct MtomPart {
  std::string content_id;    // without the <> brackets
  std::string content_type;  // lowercase
  util::BytesView data;      // view into the container body
};

/// A parsed multipart/related container: the root (JSON) part plus the
/// binary parts keyed by cid.
struct MtomContainer {
  util::BytesView root;  // the JSON document
  std::vector<MtomPart> parts;

  /// Part for "cid:<id>" or bare "<id>"; nullptr when absent.
  const MtomPart* find(std::string_view cid_url) const;
};

/// A Content-Type header value split in place: the media type (trimmed,
/// in the case it was sent in) and the boundary parameter (unquoted; empty
/// when absent), both views into the value. The gateway reads request
/// bodies through this form.
struct ContentTypeView {
  std::string_view media_type;
  std::string_view boundary;
};
ContentTypeView split_content_type(std::string_view header_value);

/// split_content_type's result as owned strings, the media type
/// lowercased (e.g. "multipart/related").
struct ContentType {
  std::string media_type;
  std::string boundary;
};
ContentType parse_content_type(std::string_view header_value);

/// Parses a multipart/related body. Returns nullopt on any framing
/// violation (the gateway answers 400). Views point into `body`.
std::optional<MtomContainer> parse_multipart_related(util::BytesView body,
                                                     std::string_view boundary);

/// Builds a multipart/related response container. Deterministic: the
/// caller supplies the boundary; parts are laid out in add order.
class MultipartBuilder {
 public:
  explicit MultipartBuilder(std::string boundary);

  /// The Content-Type header value announcing this container.
  std::string content_type() const;

  void add_json_root(std::string_view json);
  void add_blob_part(std::string_view cid, util::BytesView data);

  /// Total byte size of finish()'s output (for exact pre-sizing).
  std::size_t encoded_size() const noexcept;

  /// Assembles the container; the builder is spent afterwards.
  util::Bytes finish();

 private:
  struct Piece {
    std::string head;      // "--B\r\n" + part headers + blank line
    util::BytesView data;  // part payload (borrowed)
    std::string owned;     // root JSON is owned; blob parts borrow
  };

  std::string boundary_;
  std::vector<Piece> pieces_;
};

}  // namespace maqs::gateway
