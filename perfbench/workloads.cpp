#include "workloads.hpp"

#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "bench/support.hpp"
#include "cdr/any.hpp"
#include "characteristics/compression.hpp"
#include "characteristics/encryption.hpp"
#include "core/negotiation.hpp"
#include "core/provider.hpp"
#include "core/retry.hpp"
#include "gateway/gateway.hpp"
#include "qidl/repository.hpp"
#include "qidl/sema.hpp"
#include "sched/scheduler.hpp"
#include "support/echo.hpp"
#include "support/http_client.hpp"
#include "support/qos_echo.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using namespace maqs;
using testing::EchoStub;

/// Distinct inputs per run; calls cycle through them.
constexpr std::size_t kPoolSize = 256;
/// Blob traffic as bench_f4 and the population engine send it: 4 KiB,
/// 90% repeated phrase, the rest random bytes.
constexpr std::size_t kBlobBytes = 4096;
constexpr double kBlobCompressibility = 0.9;
constexpr std::size_t kEchoChars = 32;

// ---- seeded inputs ----

/// Words from a fixed vocabulary, `size` bytes.
std::string make_text(util::Rng& rng, std::size_t size) {
  static constexpr const char* kWords[] = {
      "quality", "service", "middleware", "object", "request", "reply",
      "mediator", "agreement", "stream", "frame", "latency", "replica",
      "client", "server", "channel", "monitor"};
  constexpr std::size_t kWordCount = sizeof(kWords) / sizeof(kWords[0]);
  std::string out;
  out.reserve(size + 16);
  while (out.size() < size) {
    out += kWords[rng.next_below(kWordCount)];
    out += ' ';
  }
  out.resize(size);
  return out;
}

std::vector<util::Bytes> make_blobs(util::Rng& rng) {
  std::vector<util::Bytes> out;
  for (std::size_t i = 0; i < kPoolSize; ++i) {
    out.push_back(bench::payload(kBlobBytes, kBlobCompressibility, rng.next()));
  }
  return out;
}

// ---- deployments ----

sched::SchedulerConfig gold_config() {
  sched::ClassConfig gold;
  gold.name = "gold";
  gold.weight = 3.0;
  sched::SchedulerConfig config;  // unpaced: an idle server dispatches inline
  config.classes.push_back(gold);
  return config;
}

/// bench_f4's two-ORB world on a zero-latency, unbounded link, deployed
/// the way a native tenant runs: retry and circuit breaking armed on the
/// caller, and the WFQ scheduler placing the Echo object in the gold
/// class.
struct TenantWorld : bench::World {
  TenantWorld() {
    set_link(0, 0);
    network.set_loopback_latency(0);
    arm_resilience(client);
    scheduler.classifier().bind_object("echo", "gold");
  }
  ~TenantWorld() { client.set_retry_advisor(nullptr); }
  TenantWorld(const TenantWorld&) = delete;
  TenantWorld& operator=(const TenantWorld&) = delete;

  void arm_resilience(orb::Orb& orb) {
    orb.set_retry_advisor(&governor);
    orb.set_breaker_config(orb::BreakerConfig{});
  }

  core::RetryGovernor governor{core::RetryPolicy::idempotent(), 42};
  sched::RequestScheduler scheduler{server, gold_config()};
};

std::uint64_t frame_bytes(const orb::Orb& orb) {
  return orb.stats().bytes_marshaled_out;
}

struct PlainDeployment {
  orb::Orb& caller() { return world.client; }

  TenantWorld world;
  EchoStub stub{world.client,
                world.server.adapter().activate(
                    "echo", std::make_shared<testing::EchoImpl>())};
};

core::ProviderRegistry woven_providers() {
  core::ProviderRegistry providers;
  providers.add(characteristics::make_compression_provider());
  providers.add(characteristics::make_encryption_psk_provider());
  return providers;
}

orb::ObjRef activate_woven(orb::Orb& server) {
  auto servant = std::make_shared<testing::QosEchoImpl>();
  servant->assign_characteristic(characteristics::compression_descriptor());
  servant->assign_characteristic(characteristics::encryption_descriptor());
  orb::QosProfile compression;
  compression.characteristic = characteristics::compression_name();
  orb::QosProfile encryption;
  encryption.characteristic = characteristics::encryption_name();
  return server.adapter().activate("echo", servant, {compression, encryption});
}

/// Compression (lz77) and encryption (pre-shared key, integrity) agreed
/// through the negotiation protocol and woven into stub and skeleton.
struct WovenDeployment {
  WovenDeployment() {
    compression = negotiator.negotiate(stub, characteristics::compression_name(),
                                       {{"level", cdr::Any::from_long(32)}});
    negotiator.negotiate(stub, characteristics::encryption_name(),
                         {{"psk", cdr::Any::from_string("bench-psk")}});
  }

  orb::Orb& caller() { return world.client; }

  TenantWorld world;
  core::ProviderRegistry providers = woven_providers();
  core::NegotiationService negotiation{world.server_transport, providers,
                                       world.resources};
  core::Negotiator negotiator{world.client_transport, providers};
  EchoStub stub{world.client, activate_woven(world.server)};
  core::Agreement compression;
};

/// The woven deployment after one lattice step: compression renegotiated
/// from lz77 to rle, as bench_f4's woven_renegotiated rows deploy it.
struct RenegotiatedDeployment : WovenDeployment {
  RenegotiatedDeployment() {
    compression = negotiator.renegotiate(
        stub, compression, {{"algorithm", cdr::Any::from_string("rle")}});
    if (compression.string_param_or("algorithm", "") != "rle") {
      throw std::runtime_error("renegotiation to rle was not agreed");
    }
  }
};

/// The edge gateway in front of the plain Echo object: HTTP tenant "web"
/// maps to the gold class, and the edge ORB runs the same resilience
/// stages as a native caller.
struct GatewayDeployment {
  GatewayDeployment() {
    world.arm_resilience(edge);
    gw.set_tenant_class("web", "gold");
    gw.expose("Echo", world.server.adapter().activate(
                          "echo", std::make_shared<testing::EchoImpl>()));
  }
  ~GatewayDeployment() { edge.set_retry_advisor(nullptr); }
  GatewayDeployment(const GatewayDeployment&) = delete;
  GatewayDeployment& operator=(const GatewayDeployment&) = delete;
  orb::Orb& caller() { return edge; }

  TenantWorld world;
  qidl::InterfaceRepository repo = qidl::InterfaceRepository::build(
      qidl::analyze(testing::kGatewayEchoQidl));
  orb::Orb edge{world.network, "edge", 9100};
  gateway::Gateway gw{edge, repo, 8080};
  testing::HttpTestClient web{world.network, {"web", 80}, gw.endpoint()};
};

/// Inputs cycle in a fixed order; `current` is the call being checked.
class Cursor {
 public:
  explicit Cursor(std::size_t size) : size_(size) {}
  std::size_t advance() {
    current_ = next_;
    next_ = (next_ + 1) % size_;
    return current_;
  }
  std::size_t current() const { return current_; }

 private:
  std::size_t size_;
  std::size_t next_ = 0;
  std::size_t current_ = 0;
};

// ---- the workloads ----

template <typename Deployment>
class DeployedWorkload : public Workload {
 public:
  void deploy() override { d_ = std::make_unique<Deployment>(); }
  void teardown() override { d_.reset(); }
  orb::Orb& client_orb() override { return d_->caller(); }
  orb::Orb& server_orb() override { return d_->world.server; }
  std::uint64_t wire_bytes() const override {
    return frame_bytes(d_->caller()) + frame_bytes(d_->world.server);
  }

 protected:
  std::unique_ptr<Deployment> d_;
};

/// plain: add(a, b) on the GIOP path, the smallest message. Operands stay
/// within +-2^30 so the servant's signed sum never overflows.
class PlainWorkload final : public DeployedWorkload<PlainDeployment> {
 public:
  explicit PlainWorkload(std::uint64_t seed) {
    util::Rng rng(seed);
    constexpr std::int64_t kLimit = std::int64_t{1} << 30;
    for (std::size_t i = 0; i < kPoolSize; ++i) {
      const auto a = static_cast<std::int32_t>(rng.uniform(-kLimit, kLimit));
      const auto b = static_cast<std::int32_t>(rng.uniform(-kLimit, kLimit));
      inputs_.push_back({a, b});
    }
  }

  void call() override {
    const auto [a, b] = inputs_[cursor_.advance()];
    result_ = d_->stub.add(a, b);
  }
  bool check() override {
    const auto [a, b] = inputs_[cursor_.current()];
    return result_ == a + b;
  }

 private:
  std::vector<std::pair<std::int32_t, std::int32_t>> inputs_;
  Cursor cursor_{kPoolSize};
  std::int32_t result_ = 0;
};

/// woven and renegotiated: blob(4 KiB) on the woven channel.
template <typename Deployment>
class BlobWorkload final : public DeployedWorkload<Deployment> {
 public:
  explicit BlobWorkload(std::uint64_t seed) {
    util::Rng rng(seed);
    blobs_ = make_blobs(rng);
  }

  void call() override {
    result_ = this->d_->stub.blob(blobs_[cursor_.advance()]);
  }
  bool check() override { return result_ == blobs_[cursor_.current()]; }

 private:
  std::vector<util::Bytes> blobs_;
  Cursor cursor_{kPoolSize};
  util::Bytes result_;
};

/// gateway: POST /api/Echo/echo with a JSON string over keep-alive HTTP.
class GatewayWorkload final : public DeployedWorkload<GatewayDeployment> {
 public:
  explicit GatewayWorkload(std::uint64_t seed) {
    util::Rng rng(seed);
    for (std::size_t i = 0; i < kPoolSize; ++i) {
      const std::string s = make_text(rng, kEchoChars);
      frames_.push_back(testing::HttpTestClient::encode_request(
          "POST", "/api/Echo/echo", "{\"s\":\"" + s + "\"}",
          {{"content-type", "application/json"}, {"x-maqs-tenant", "web"}}));
      const std::string body = "{\"result\":\"" + s + "\"}";
      expected_.emplace_back(body.begin(), body.end());
    }
  }

  void call() override {
    d_->web.send_raw(frames_[cursor_.advance()]);
    response_ = d_->web.await_response();
    d_->web.discard_delivered();
  }
  bool check() override {
    return response_.has_value() && response_->status == 200 &&
           response_->body == expected_[cursor_.current()];
  }

 private:
  std::vector<util::Bytes> frames_;
  std::vector<util::Bytes> expected_;
  Cursor cursor_{kPoolSize};
  std::optional<gateway::HttpResponse> response_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "plain") return std::make_unique<PlainWorkload>(seed);
  if (name == "woven") {
    return std::make_unique<BlobWorkload<WovenDeployment>>(seed);
  }
  if (name == "gateway") return std::make_unique<GatewayWorkload>(seed);
  if (name == "renegotiated") {
    return std::make_unique<BlobWorkload<RenegotiatedDeployment>>(seed);
  }
  return nullptr;
}

}  // namespace perfbench
