// HttpParser / HttpResponseParser unit tests: framing, torn reads,
// pipelining, chunked bodies, limits, poisoning.
#include <gtest/gtest.h>

#include <string>

#include "gateway/http.hpp"
#include "support/heap_meter.hpp"
#include "util/buffer_pool.hpp"

namespace maqs::gateway {
namespace {

util::Bytes bytes(std::string_view s) {
  return util::Bytes(s.begin(), s.end());
}

std::string body_text(const HttpRequest& req) {
  return std::string(reinterpret_cast<const char*>(req.body.data()),
                     req.body.size());
}

TEST(HttpParser, ParsesSimpleRequest) {
  HttpParser parser;
  parser.feed(bytes("POST /api/Echo/add HTTP/1.1\r\n"
                    "Content-Type: application/json\r\n"
                    "content-length: 13\r\n\r\n"
                    "{\"a\":1,\"b\":2}"));
  HttpRequest req;
  ASSERT_EQ(parser.poll(req), HttpParser::Result::kRequest);
  EXPECT_EQ(req.method, "POST");
  EXPECT_EQ(req.target, "/api/Echo/add");
  EXPECT_EQ(req.version, "HTTP/1.1");
  EXPECT_TRUE(req.keep_alive);
  ASSERT_TRUE(req.header("content-type").has_value());
  EXPECT_EQ(*req.header("content-type"), "application/json");
  EXPECT_EQ(body_text(req), "{\"a\":1,\"b\":2}");
  EXPECT_EQ(parser.poll(req), HttpParser::Result::kNeedMore);
}

TEST(HttpParser, HeaderNamesFoldToLowercase) {
  HttpParser parser;
  parser.feed(bytes("GET / HTTP/1.1\r\nX-TRACE-ID: abc\r\n\r\n"));
  HttpRequest req;
  ASSERT_EQ(parser.poll(req), HttpParser::Result::kRequest);
  ASSERT_TRUE(req.header("x-trace-id").has_value());
  EXPECT_EQ(*req.header("x-trace-id"), "abc");
}

TEST(HttpParser, TornReadsAtEveryByte) {
  const std::string wire =
      "POST /x HTTP/1.1\r\ncontent-length: 5\r\n\r\nhello";
  for (std::size_t split = 1; split < wire.size(); ++split) {
    HttpParser parser;
    parser.feed(bytes(wire.substr(0, split)));
    HttpRequest req;
    // The request must never complete early and never error mid-feed.
    const auto first = parser.poll(req);
    ASSERT_NE(first, HttpParser::Result::kError) << "split=" << split;
    parser.feed(bytes(wire.substr(split)));
    if (first != HttpParser::Result::kRequest) {
      ASSERT_EQ(parser.poll(req), HttpParser::Result::kRequest)
          << "split=" << split;
    }
    EXPECT_EQ(body_text(req), "hello") << "split=" << split;
  }
}

TEST(HttpParser, PipelinedRequestsInOneFeed) {
  HttpParser parser;
  parser.feed(bytes("GET /a HTTP/1.1\r\n\r\n"
                    "POST /b HTTP/1.1\r\ncontent-length: 2\r\n\r\nhi"
                    "GET /c HTTP/1.1\r\n\r\n"));
  HttpRequest req;
  ASSERT_EQ(parser.poll(req), HttpParser::Result::kRequest);
  EXPECT_EQ(req.target, "/a");
  ASSERT_EQ(parser.poll(req), HttpParser::Result::kRequest);
  EXPECT_EQ(req.target, "/b");
  EXPECT_EQ(body_text(req), "hi");
  ASSERT_EQ(parser.poll(req), HttpParser::Result::kRequest);
  EXPECT_EQ(req.target, "/c");
  EXPECT_EQ(parser.poll(req), HttpParser::Result::kNeedMore);
}

TEST(HttpParser, ChunkedBody) {
  HttpParser parser;
  parser.feed(bytes("POST /x HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n"
                    "5\r\nhello\r\n6;ext=1\r\n world\r\n0\r\n\r\n"));
  HttpRequest req;
  ASSERT_EQ(parser.poll(req), HttpParser::Result::kRequest);
  EXPECT_EQ(body_text(req), "hello world");
}

TEST(HttpParser, ChunkedWithTrailerFields) {
  HttpParser parser;
  parser.feed(bytes("POST /x HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n"
                    "3\r\nabc\r\n0\r\nx-checksum: 9\r\n\r\n"));
  HttpRequest req;
  ASSERT_EQ(parser.poll(req), HttpParser::Result::kRequest);
  EXPECT_EQ(body_text(req), "abc");
}

TEST(HttpParser, ConnectionCloseAndHttp10Defaults) {
  HttpParser parser;
  parser.feed(bytes("GET /a HTTP/1.1\r\nConnection: close\r\n\r\n"
                    "GET /b HTTP/1.0\r\n\r\n"
                    "GET /c HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"));
  HttpRequest req;
  ASSERT_EQ(parser.poll(req), HttpParser::Result::kRequest);
  EXPECT_FALSE(req.keep_alive);
  ASSERT_EQ(parser.poll(req), HttpParser::Result::kRequest);
  EXPECT_FALSE(req.keep_alive);  // HTTP/1.0 default
  ASSERT_EQ(parser.poll(req), HttpParser::Result::kRequest);
  EXPECT_TRUE(req.keep_alive);
}

TEST(HttpParser, MalformedRequestLinePoisons) {
  for (const char* wire :
       {"BROKEN\r\n\r\n", "GET  HTTP/1.1\r\n\r\n", "GET /x HTTP/2\r\n\r\n",
        "GET noslash HTTP/1.1\r\n\r\n"}) {
    HttpParser parser;
    parser.feed(bytes(wire));
    HttpRequest req;
    EXPECT_EQ(parser.poll(req), HttpParser::Result::kError) << wire;
    EXPECT_TRUE(parser.poisoned()) << wire;
    EXPECT_FALSE(parser.error().empty()) << wire;
    // Poisoned parsers stay poisoned.
    parser.feed(bytes("GET / HTTP/1.1\r\n\r\n"));
    EXPECT_EQ(parser.poll(req), HttpParser::Result::kError) << wire;
  }
}

TEST(HttpParser, MalformedFramingPoisons) {
  for (const char* wire :
       {"GET / HTTP/1.1\r\nbad header line\r\n\r\n",
        "GET / HTTP/1.1\r\n: novalue\r\n\r\n",
        "POST / HTTP/1.1\r\ncontent-length: 12x\r\n\r\n",
        "POST / HTTP/1.1\r\ncontent-length: -4\r\n\r\n",
        "POST / HTTP/1.1\r\ntransfer-encoding: gzip\r\n\r\n",
        "POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\nzz\r\n",
        "POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n2\r\nabXX"}) {
    HttpParser parser;
    parser.feed(bytes(wire));
    HttpRequest req;
    EXPECT_EQ(parser.poll(req), HttpParser::Result::kError) << wire;
  }
}

TEST(HttpParser, OversizedHeaderBlockPoisons) {
  HttpParser parser;
  std::string wire = "GET / HTTP/1.1\r\n";
  wire.append("x-pad: " + std::string(HttpParser::kMaxHeaderBytes, 'a') +
              "\r\n\r\n");
  parser.feed(bytes(wire));
  HttpRequest req;
  EXPECT_EQ(parser.poll(req), HttpParser::Result::kError);
}

TEST(HttpParser, OversizedBodyPoisons) {
  HttpParser parser;
  parser.feed(bytes("POST / HTTP/1.1\r\ncontent-length: " +
                    std::to_string(HttpParser::kMaxBodyBytes + 1) +
                    "\r\n\r\n"));
  HttpRequest req;
  EXPECT_EQ(parser.poll(req), HttpParser::Result::kError);
}

TEST(HttpParser, BufferCompactionKeepsPipelinedBytes) {
  HttpParser parser;
  HttpRequest req;
  // Many keep-alive requests across one connection; the internal buffer
  // must compact without losing the unparsed tail.
  for (int i = 0; i < 200; ++i) {
    parser.feed(bytes("POST /r HTTP/1.1\r\ncontent-length: 3\r\n\r\nabc"));
    ASSERT_EQ(parser.poll(req), HttpParser::Result::kRequest) << i;
    EXPECT_EQ(body_text(req), "abc");
  }
  EXPECT_EQ(parser.buffered(), 0u);
}

TEST(HttpResponse, EncodeParseRoundTrip) {
  HttpResponse resp;
  resp.status = 503;
  resp.set_header("content-type", "application/json");
  resp.set_header("retry-after", "1");
  const std::string body = "{\"error\":{}}";
  resp.body = bytes(body);

  HttpResponseParser parser;
  parser.feed(resp.encode());
  HttpResponse parsed;
  ASSERT_EQ(parser.poll(parsed), HttpResponseParser::Result::kResponse);
  EXPECT_EQ(parsed.status, 503);
  ASSERT_TRUE(parsed.header("retry-after").has_value());
  EXPECT_EQ(*parsed.header("retry-after"), "1");
  EXPECT_EQ(parsed.body, resp.body);
}

TEST(HttpResponseParser, TornResponse) {
  const std::string wire =
      "HTTP/1.1 200 OK\r\ncontent-length: 4\r\n\r\nbody";
  for (std::size_t split = 1; split < wire.size(); ++split) {
    HttpResponseParser parser;
    parser.feed(bytes(wire.substr(0, split)));
    HttpResponse resp;
    const auto first = parser.poll(resp);
    ASSERT_NE(first, HttpResponseParser::Result::kError);
    parser.feed(bytes(wire.substr(split)));
    if (first != HttpResponseParser::Result::kResponse) {
      ASSERT_EQ(parser.poll(resp), HttpResponseParser::Result::kResponse);
    }
    EXPECT_EQ(resp.status, 200);
    EXPECT_EQ(resp.body, bytes("body"));
  }
}

// A declared Content-Length is a claim, not bytes: until the body arrives
// a parser holds only what it was fed (plus its fixed per-request state).
constexpr std::size_t kMaxHeapPerFedOctet = 16;

TEST(HttpParser, DeclaredLengthReservesNothingBeforeTheBody) {
  const std::string head =
      "POST /api/Echo/echo HTTP/1.1\r\ncontent-length: 4194304\r\n\r\n";
  util::BufferPool::instance().clear();
  const util::Bytes wire = bytes(head);
  const std::size_t before = maqs::testing::heap::live_bytes();
  HttpParser parser;
  parser.feed(wire);
  HttpRequest req;
  EXPECT_EQ(parser.poll(req), HttpParser::Result::kNeedMore);
  EXPECT_LE(maqs::testing::heap::live_bytes() - before,
            kMaxHeapPerFedOctet * head.size());

  // The body then grows with what arrives.
  parser.feed(bytes(std::string(1000, 'x')));
  EXPECT_EQ(parser.poll(req), HttpParser::Result::kNeedMore);
  EXPECT_LE(maqs::testing::heap::live_bytes() - before,
            kMaxHeapPerFedOctet * (head.size() + 1000));
  util::BufferPool::instance().clear();
}

TEST(HttpResponseParser, DeclaredLengthReservesNothingBeforeTheBody) {
  const std::string head = "HTTP/1.1 200 OK\r\ncontent-length: 4194304\r\n\r\n";
  util::BufferPool::instance().clear();
  const util::Bytes wire = bytes(head);
  const std::size_t before = maqs::testing::heap::live_bytes();
  HttpResponseParser parser;
  parser.feed(wire);
  HttpResponse resp;
  EXPECT_EQ(parser.poll(resp), HttpResponseParser::Result::kNeedMore);
  EXPECT_LE(maqs::testing::heap::live_bytes() - before,
            kMaxHeapPerFedOctet * head.size());
  util::BufferPool::instance().clear();
}

TEST(HttpParser, RecycledRequestsStayIndependent) {
  // One request object reused across keep-alive requests (as the gateway
  // does) takes each request's own head and body, and a request handed
  // out earlier keeps its bytes while more are fed.
  HttpParser parser;
  HttpRequest first;
  parser.feed(bytes("POST /a HTTP/1.1\r\nX-One: 1\r\nx-two: 2\r\n"
                    "content-length: 3\r\n\r\nabc"));
  ASSERT_EQ(parser.poll(first), HttpParser::Result::kRequest);
  parser.feed(bytes("GET /b HTTP/1.1\r\nx-three: 3\r\n\r\n"
                    "POST /c HTTP/1.1\r\ncontent-length: 2\r\n\r\nhi"));
  EXPECT_EQ(first.target, "/a");
  EXPECT_EQ(body_text(first), "abc");
  ASSERT_EQ(first.headers.size(), 3u);
  EXPECT_EQ(*first.header("x-one"), "1");

  HttpRequest req = std::move(first);
  ASSERT_EQ(parser.poll(req), HttpParser::Result::kRequest);
  EXPECT_EQ(req.method, "GET");
  EXPECT_EQ(req.target, "/b");
  EXPECT_TRUE(req.body.empty());
  ASSERT_EQ(req.headers.size(), 1u);
  EXPECT_EQ(*req.header("x-three"), "3");
  EXPECT_FALSE(req.header("x-one").has_value());

  ASSERT_EQ(parser.poll(req), HttpParser::Result::kRequest);
  EXPECT_EQ(req.target, "/c");
  EXPECT_EQ(body_text(req), "hi");
  ASSERT_EQ(req.headers.size(), 1u);
  EXPECT_EQ(*req.header("content-length"), "2");
  EXPECT_EQ(parser.buffered(), 0u);
}

}  // namespace
}  // namespace maqs::gateway
