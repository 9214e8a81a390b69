// End-to-end causal tracing: one woven compress+encrypt request must
// produce a single trace whose spans cover every interception layer, the
// Chrome-trace export must load (parse) and cover the same path, traces
// from a fixed sim seed must be byte-identical across runs, and peers
// without tracing must interoperate untouched.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>

#include "characteristics/actuality.hpp"
#include "characteristics/compression.hpp"
#include "characteristics/encryption.hpp"
#include "core/mediator.hpp"
#include "core/monitoring.hpp"
#include "core/qos_transport.hpp"
#include "core/stats.hpp"
#include "net/network.hpp"
#include "support/qos_echo.hpp"
#include "trace/trace.hpp"

namespace maqs::core {
namespace {

using maqs::testing::EchoStub;
using maqs::testing::QosEchoImpl;

Agreement make_agreement(const std::string& characteristic,
                         std::map<std::string, cdr::Any> params) {
  Agreement agreement;
  agreement.id = 1;
  agreement.characteristic = characteristic;
  agreement.object_key = "echo";
  agreement.params = std::move(params);
  agreement.state = AgreementState::kActive;
  return agreement;
}

/// The bench_f4 woven scenario, shrunk for tests: compression + encryption
/// mediators on the stub, matching impls in the skeleton, QoS transports
/// on both ORBs, one shared recorder so client and server spans land in
/// the same ring. Everything is seeded deterministically (Network default
/// seed), so two instances replay identically. `with_actuality` weaves a
/// stage-less Actuality member in front of the two, on both sides.
struct WovenWorld {
  sim::EventLoop loop;
  net::Network network{loop};
  orb::Orb server{network, "server", 9000};
  orb::Orb client{network, "client", 9001};
  QosTransport server_transport{server};
  QosTransport client_transport{client};
  trace::TraceRecorder recorder{loop};
  std::shared_ptr<QosEchoImpl> servant = std::make_shared<QosEchoImpl>();
  std::shared_ptr<CompositeMediator> mediator =
      std::make_shared<CompositeMediator>();
  orb::ObjRef ref;

  explicit WovenWorld(bool with_actuality = false) {
    recorder.set_enabled(true);
    server.set_trace_recorder(&recorder);
    client.set_trace_recorder(&recorder);

    servant->assign_characteristic(characteristics::compression_descriptor());
    servant->assign_characteristic(characteristics::encryption_descriptor());
    orb::QosProfile compression;
    compression.characteristic = characteristics::compression_name();
    orb::QosProfile encryption;
    encryption.characteristic = characteristics::encryption_name();
    std::vector<orb::QosProfile> profiles{compression, encryption};
    if (with_actuality) {
      servant->assign_characteristic(characteristics::actuality_descriptor());
      orb::QosProfile actuality;
      actuality.characteristic = characteristics::actuality_name();
      profiles.push_back(actuality);
    }
    ref = server.adapter().activate("echo", servant, profiles);

    if (with_actuality) {
      const Agreement actuality_agreement = make_agreement(
          characteristics::actuality_name(),
          {{"max_age_ms", cdr::Any::from_long(100)}});
      auto actuality_mediator =
          std::make_shared<characteristics::ActualityMediator>(loop);
      actuality_mediator->bind_agreement(actuality_agreement);
      mediator->add(actuality_mediator);
      auto actuality_impl =
          std::make_shared<characteristics::ActualityImpl>(loop);
      actuality_impl->bind_agreement(actuality_agreement);
      servant->install_impl(actuality_impl);
    }

    const Agreement compress_agreement = make_agreement(
        characteristics::compression_name(),
        {{"algorithm", cdr::Any::from_string("lz77")},
         {"level", cdr::Any::from_long(32)},
         {"min_size", cdr::Any::from_long(64)}});
    const Agreement encrypt_agreement =
        make_agreement(characteristics::encryption_name(),
                       {{"psk", cdr::Any::from_string("test-psk")},
                        {"integrity", cdr::Any::from_bool(true)}});

    auto compress_mediator =
        std::make_shared<characteristics::CompressionMediator>();
    compress_mediator->bind_agreement(compress_agreement);
    mediator->add(compress_mediator);
    auto encrypt_mediator =
        std::make_shared<characteristics::EncryptionMediator>();
    encrypt_mediator->bind_agreement(encrypt_agreement);
    mediator->add(encrypt_mediator);

    auto compress_impl = std::make_shared<characteristics::CompressionImpl>();
    compress_impl->bind_agreement(compress_agreement);
    servant->install_impl(compress_impl);
    auto encrypt_impl = std::make_shared<characteristics::EncryptionImpl>();
    encrypt_impl->bind_agreement(encrypt_agreement);
    servant->install_impl(encrypt_impl);
  }

  EchoStub make_stub() {
    EchoStub stub(client, ref);
    stub.set_mediator(mediator);
    return stub;
  }
};

int count_name(const std::vector<trace::Span>& spans, const char* name) {
  return static_cast<int>(
      std::count_if(spans.begin(), spans.end(), [&](const trace::Span& s) {
        return std::string_view(s.name) == name;
      }));
}

TEST(TracingIntegrationTest, WovenRequestProducesSingleCompleteTrace) {
  WovenWorld world;
  EchoStub stub = world.make_stub();
  EXPECT_EQ(stub.add(1, 2), 3);

  const std::vector<trace::Span> spans = world.recorder.spans();
  ASSERT_FALSE(spans.empty());
  // Every span belongs to the one minted trace.
  const trace::TraceId trace_id = spans.front().trace_id;
  for (const trace::Span& s : spans) EXPECT_EQ(s.trace_id, trace_id);
  EXPECT_EQ(world.recorder.stats().traces_started, 1u);
  EXPECT_EQ(world.recorder.stats().traces_sampled, 1u);

  // The acceptance path: mediator weaving, transport dispatch, network
  // transit (request + reply), server prolog/epilog, adapter dispatch.
  EXPECT_EQ(count_name(spans, "client.request"), 1);
  EXPECT_EQ(count_name(spans, "mediator.outbound"), 2);
  EXPECT_EQ(count_name(spans, "mediator.inbound"), 2);
  EXPECT_EQ(count_name(spans, "transport.plain"), 1);
  EXPECT_EQ(count_name(spans, "net.transit"), 2);
  EXPECT_EQ(count_name(spans, "server.request"), 1);
  EXPECT_EQ(count_name(spans, "adapter.dispatch"), 1);
  EXPECT_EQ(count_name(spans, "skeleton.prolog"), 2);
  EXPECT_EQ(count_name(spans, "skeleton.transform_args"), 2);
  EXPECT_EQ(count_name(spans, "skeleton.app"), 1);
  EXPECT_EQ(count_name(spans, "skeleton.transform_result"), 2);
  EXPECT_EQ(count_name(spans, "skeleton.epilog"), 2);

  // Exactly one root: the client request. Everything else parents inside
  // the trace.
  int roots = 0;
  for (const trace::Span& s : spans) {
    if (s.parent_id == 0) {
      ++roots;
      EXPECT_STREQ(s.name, "client.request");
    }
  }
  EXPECT_EQ(roots, 1);

  // The mediator spans carry the characteristic as detail.
  bool saw_compression = false;
  for (const trace::Span& s : spans) {
    if (std::string_view(s.name) == "mediator.outbound" &&
        s.detail == characteristics::compression_name()) {
      saw_compression = true;
    }
  }
  EXPECT_TRUE(saw_compression);
}

// A stage-less member in the composite: every characteristic still emits
// one mediator span per direction and one prolog/epilog pair, while the
// transform spans come only from the delegates that have a payload stage.
TEST(TracingIntegrationTest, MixedCompositeSpansPerCall) {
  WovenWorld world(/*with_actuality=*/true);
  EchoStub stub = world.make_stub();
  for (std::int32_t call = 0; call < 2; ++call) {
    world.recorder.clear();
    EXPECT_EQ(stub.add(call, 1), call + 1);  // not cacheable: hits the wire
    const std::vector<trace::Span> spans = world.recorder.spans();
    EXPECT_EQ(count_name(spans, "mediator.outbound"), 3);
    EXPECT_EQ(count_name(spans, "mediator.inbound"), 3);
    EXPECT_EQ(count_name(spans, "skeleton.prolog"), 3);
    EXPECT_EQ(count_name(spans, "skeleton.epilog"), 3);
    EXPECT_EQ(count_name(spans, "skeleton.transform_args"), 2);
    EXPECT_EQ(count_name(spans, "skeleton.transform_result"), 2);
  }
}

// Minimal recursive-descent JSON reader: enough to prove the export is
// well-formed JSON (chrome://tracing loads it with exactly this grammar),
// not just a string that contains the right substrings.
class JsonReader {
 public:
  explicit JsonReader(std::string_view text) : text_(text) {}

  bool parse() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  bool value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      pos_ += text_[pos_] == '\\' ? 2 : 1;
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }
  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' ||
            text_[pos_] == '\r' || text_[pos_] == '\t')) {
      ++pos_;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

TEST(TracingIntegrationTest, ChromeExportLoadsAndCoversTheWovenPath) {
  WovenWorld world;
  EchoStub stub = world.make_stub();
  stub.echo("traced");

  std::ostringstream os;
  world.recorder.export_chrome_trace(os);
  const std::string json = os.str();

  JsonReader reader(json);
  EXPECT_TRUE(reader.parse()) << json;

  for (const char* name :
       {"client.request", "mediator.outbound", "transport.plain",
        "net.transit", "server.request", "skeleton.prolog", "skeleton.app",
        "skeleton.epilog", "mediator.inbound"}) {
    EXPECT_NE(json.find(std::string("\"name\":\"") + name + "\""),
              std::string::npos)
        << "missing span " << name;
  }
  // The tree dump covers the same trace without throwing.
  std::ostringstream tree;
  world.recorder.dump_tree(tree);
  EXPECT_NE(tree.str().find("client.request(echo)"), std::string::npos);
}

TEST(TracingIntegrationTest, FixedSeedTracesAreByteIdenticalAcrossRuns) {
  auto run = [] {
    WovenWorld world;
    EchoStub stub = world.make_stub();
    stub.add(3, 4);
    stub.echo("determinism");
    std::ostringstream os;
    world.recorder.export_chrome_trace(os);
    world.recorder.dump_tree(os);
    return os.str();
  };
  const std::string first = run();
  const std::string second = run();
  EXPECT_EQ(first, second);
  EXPECT_FALSE(first.empty());
}

TEST(TracingIntegrationTest, PeerWithoutTracingIgnoresTheContextEntry) {
  WovenWorld world;
  // Server side opts out entirely: the "qos.trace" entry still crosses the
  // wire but nobody re-attaches it.
  world.server.set_trace_recorder(nullptr);
  EchoStub stub = world.make_stub();
  EXPECT_EQ(stub.add(5, 6), 11);

  const std::vector<trace::Span> spans = world.recorder.spans();
  EXPECT_GT(spans.size(), 0u);
  EXPECT_EQ(count_name(spans, "client.request"), 1);
  // No re-attach: the context entry crossed the wire and was ignored.
  EXPECT_EQ(count_name(spans, "server.request"), 0);
  // Single-process simulator caveat: the server's dispatch runs nested
  // inside the client's still-open scope (the blocking call pumps the
  // event loop), so its skeleton work is attributed to the client trace
  // even though the server ORB opted out. In a distributed deployment
  // each process has its own scope stack and these would be absent.
  EXPECT_EQ(count_name(spans, "skeleton.app"), 1);
}

TEST(TracingIntegrationTest, GarbageContextEntryIsToleratedServerSide) {
  sim::EventLoop loop;
  net::Network network(loop);
  orb::Orb server(network, "server", 9000);
  orb::Orb client(network, "client", 9001);
  trace::TraceRecorder recorder(loop);
  recorder.set_enabled(true);
  server.set_trace_recorder(&recorder);

  auto servant = std::make_shared<maqs::testing::EchoImpl>();
  orb::ObjRef ref = server.adapter().activate("echo", servant);

  // Hand-built request with a malformed trace entry: wrong size, junk
  // bytes. The server must decode-reject it and serve the call normally.
  orb::RequestMessage req;
  req.operation = "add";
  cdr::Encoder args;
  args.write_i32(20);
  args.write_i32(22);
  req.body = args.take();
  req.context.set(trace::kTraceContextKey, util::to_bytes("not-a-context"));

  orb::ReplyMessage rep = client.invoke(ref, std::move(req));
  EXPECT_EQ(rep.status, orb::ReplyStatus::kOk);
  cdr::Decoder result(rep.body);
  EXPECT_EQ(result.read_i32(), 42);
  EXPECT_EQ(recorder.span_count(), 0u);
}

TEST(TracingIntegrationTest, SamplingDecisionRidesTheWire) {
  WovenWorld world;
  world.recorder.set_sample_every(2);
  EchoStub stub = world.make_stub();
  stub.add(1, 1);  // trace 1: sampled in
  const std::size_t after_first = world.recorder.span_count();
  stub.add(2, 2);  // trace 2: sampled out everywhere, server included
  EXPECT_GT(after_first, 0u);
  EXPECT_EQ(world.recorder.span_count(), after_first);
  EXPECT_EQ(world.recorder.stats().traces_started, 2u);
  EXPECT_EQ(world.recorder.stats().traces_sampled, 1u);
}

TEST(TracingIntegrationTest, SpanDurationsFeedTheMonitor) {
  WovenWorld world;
  Monitor monitor;
  attach_recorder(monitor, world.recorder);
  EchoStub stub = world.make_stub();
  stub.echo("monitored");

  const MetricSeries* series = monitor.find_series("span.client.request");
  ASSERT_NE(series, nullptr);
  EXPECT_GE(series->count(), 1u);
  EXPECT_NE(monitor.find_series("span.skeleton.app"), nullptr);
}

TEST(TracingIntegrationTest, ThrownExceptionsCarryTheActiveTraceId) {
  WovenWorld world;
  EchoStub stub = world.make_stub();
  bool raised = false;
  try {
    stub.boom();
  } catch (const orb::UserException& e) {
    raised = true;
    // The exception was re-raised client-side inside the client.request
    // scope, so it is stamped with the live trace id.
    EXPECT_EQ(e.trace_id(), 1u);
  }
  EXPECT_TRUE(raised);
  // The server span carries the failure annotation.
  bool server_error = false;
  for (const trace::Span& s : world.recorder.spans()) {
    if (!s.error.empty()) server_error = true;
  }
  EXPECT_TRUE(server_error);

  // Outside any scope, errors stamp trace id 0 (no false attribution).
  EXPECT_EQ(QosError("untraced").trace_id(), 0u);
}

// Satellite of the pipeline refactor: retry wraps trace. Every wire
// attempt gets its own retry.attempt child span directly under the root
// client.request span, with the backoff points recorded between them —
// instead of one smeared span opened outside the retry loop.
TEST(TracingIntegrationTest, RetryAttemptsGetTheirOwnChildSpans) {
  sim::EventLoop loop;
  net::Network network{loop};
  orb::Orb server{network, "server", 9000};
  orb::Orb client{network, "client", 9001};
  trace::TraceRecorder recorder{loop};
  recorder.set_enabled(true);
  client.set_trace_recorder(&recorder);

  auto servant = std::make_shared<QosEchoImpl>();
  const orb::ObjRef ref = server.adapter().activate("echo", servant);

  struct GrantTwo final : orb::RetryAdvisor {
    std::optional<sim::Duration> on_attempt_failed(
        const net::Address&, const orb::RequestMessage&,
        const orb::ReplyMessage&, int attempt, sim::Duration) override {
      if (attempt >= 3) return std::nullopt;
      return sim::kMillisecond;
    }
  } advisor;
  client.set_retry_advisor(&advisor);
  // Crashed server: every attempt times out, so the advisor drives two
  // retries before the invocation surfaces the transport fault.
  network.crash("server");

  EchoStub stub(client, ref);
  EXPECT_THROW(stub.echo("x"), orb::TransportError);

  const std::vector<trace::Span> spans = recorder.spans();
  EXPECT_EQ(count_name(spans, "client.request"), 1);
  EXPECT_EQ(count_name(spans, "retry.attempt"), 3);
  EXPECT_EQ(count_name(spans, "retry.backoff"), 2);

  trace::SpanId root = 0;
  for (const trace::Span& s : spans) {
    if (std::string_view(s.name) == "client.request") root = s.span_id;
  }
  ASSERT_NE(root, 0u);
  int attempt_no = 1;
  for (const trace::Span& s : spans) {
    if (std::string_view(s.name) == "retry.attempt") {
      EXPECT_EQ(s.parent_id, root);
      EXPECT_EQ(s.detail, "attempt=" + std::to_string(attempt_no));
      ++attempt_no;
    }
  }
  EXPECT_EQ(attempt_no, 4);
  EXPECT_EQ(client.stats().requests_retried, 2u);
}

TEST(TracingIntegrationTest, SnapshotGathersAllFourLayers) {
  WovenWorld world;
  EchoStub stub = world.make_stub();
  stub.add(1, 2);

  const StatsSnapshot snap =
      collect_stats(world.client, &world.client_transport);
  EXPECT_TRUE(snap.has_transport);
  EXPECT_TRUE(snap.has_trace);
  EXPECT_EQ(snap.orb.requests_sent, 1u);
  EXPECT_EQ(snap.orb.qos_path, 1u);
  EXPECT_EQ(snap.transport.requests_fallback_plain, 1u);
  EXPECT_GE(snap.net.messages_delivered, 2u);
  EXPECT_EQ(snap.trace.traces_started, 1u);
  const std::string text = snap.to_string();
  EXPECT_NE(text.find("[qos-transport]"), std::string::npos);
  EXPECT_NE(text.find("traces_sampled = 1"), std::string::npos);
}

}  // namespace
}  // namespace maqs::core
