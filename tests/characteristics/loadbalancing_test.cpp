// Load-balancing characteristic: the mediator re-targets calls at the
// agreed replica group, the client ORB's ReplicaSelector spreads and fails
// over, and servers report load via the qos_load QoS operation.
#include "characteristics/loadbalancing.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <optional>

#include "core/negotiation.hpp"
#include "core/retry.hpp"
#include "naming/selector.hpp"
#include "net/network.hpp"
#include "support/qos_echo.hpp"

namespace maqs::characteristics {
namespace {

using maqs::testing::EchoStub;
using maqs::testing::QosEchoImpl;

class LoadBalancingTest : public ::testing::Test {
 protected:
  LoadBalancingTest()
      : net_(loop_), client_(net_, "client", 1), client_transport_(client_) {}

  /// Brings up `n` workers, each with LoadBalancing assigned and the
  /// reporting impl armed.
  void start_workers(int n) {
    for (int i = 0; i < n; ++i) {
      auto orb = std::make_unique<orb::Orb>(net_, "w" + std::to_string(i),
                                            9000);
      auto servant = std::make_shared<QosEchoImpl>();
      servant->assign_characteristic(loadbalancing_descriptor());
      auto reporting = std::make_shared<LoadReportingImpl>();
      core::Agreement agreement;
      agreement.characteristic = loadbalancing_name();
      agreement.params = loadbalancing_descriptor().default_params();
      reporting->bind_agreement(agreement);
      servant->set_active_impl(reporting);
      refs_.push_back(orb->adapter().activate("worker", servant));
      workers_.push_back(std::move(orb));
      servants_.push_back(servant);
      reporting_.push_back(reporting);
    }
  }

  /// The workers as one replica group: worker 0 is the primary profile,
  /// the rest are alternates.
  std::string group_ior() const {
    orb::ObjRef group = refs_.front();
    for (std::size_t i = 1; i < refs_.size(); ++i) {
      group.alternates.push_back(
          orb::AltProfile{refs_[i].endpoint, refs_[i].object_key});
    }
    return group.to_string();
  }

  std::shared_ptr<LoadBalancingMediator> make_mediator() {
    auto mediator = std::make_shared<LoadBalancingMediator>();
    core::Agreement agreement;
    agreement.characteristic = loadbalancing_name();
    agreement.params = loadbalancing_descriptor().validate_params(
        {{"replicas", cdr::Any::from_string(group_ior())}});
    mediator->bind_agreement(agreement);
    return mediator;
  }

  /// Installs the client ORB's replica picker.
  naming::ReplicaSelector& arm_selector(naming::SelectorConfig config = {}) {
    return selector_.emplace(client_, config);
  }

  EchoStub stub_with(const std::shared_ptr<LoadBalancingMediator>& mediator) {
    EchoStub stub(client_, refs_.front());
    auto composite = std::make_shared<core::CompositeMediator>();
    composite->add(mediator);
    stub.set_mediator(composite);
    return stub;
  }

  /// qos_load of worker `i` (a QoS operation on its QoS skeleton).
  double poll_load(std::size_t i) {
    orb::RequestMessage probe;
    probe.object_key = refs_[i].object_key;
    probe.operation = "qos_load";
    orb::ReplyMessage rep =
        client_.invoke_plain(refs_[i].endpoint, std::move(probe));
    EXPECT_EQ(rep.status, orb::ReplyStatus::kOk);
    cdr::Decoder dec(rep.body);
    return dec.read_f64();
  }

  sim::EventLoop loop_;
  net::Network net_;
  orb::Orb client_;
  core::QosTransport client_transport_;
  std::optional<naming::ReplicaSelector> selector_;
  std::vector<std::unique_ptr<orb::Orb>> workers_;
  std::vector<std::shared_ptr<QosEchoImpl>> servants_;
  std::vector<std::shared_ptr<LoadReportingImpl>> reporting_;
  std::vector<orb::ObjRef> refs_;
};

TEST_F(LoadBalancingTest, RoundRobinSpreadsEvenly) {
  start_workers(4);
  naming::ReplicaSelector& selector = arm_selector();
  EchoStub stub = stub_with(make_mediator());
  for (int i = 0; i < 40; ++i) stub.echo("x");
  // Every call went through the selector; the size check keeps the
  // per-count loop from passing vacuously.
  EXPECT_EQ(selector.stats().selections, 40u);
  const std::vector<std::uint64_t> counts = selector.dispatch_counts("worker");
  ASSERT_EQ(counts.size(), 4u);
  for (const auto& count : counts) {
    EXPECT_EQ(count, 10u);
  }
  // Each worker actually served its share (redirection happened).
  for (const auto& servant : servants_) {
    EXPECT_EQ(servant->calls, 10);
  }
}

TEST_F(LoadBalancingTest, LeastLoadedAvoidsBusyWorker) {
  start_workers(3);
  // Worker 0 is very busy.
  reporting_[0]->add_synthetic_load(1000.0);
  naming::SelectorConfig config;
  config.policy = naming::SelectPolicy::kLeastLoaded;
  naming::ReplicaSelector& selector = arm_selector(config);
  EchoStub stub = stub_with(make_mediator());
  for (int i = 0; i < 60; ++i) {
    // The selector knows only the figures fed to it: qos_load every 8 calls.
    if (i % 8 == 0) {
      selector.update_loads("worker", {poll_load(0), poll_load(1),
                                       poll_load(2)});
    }
    stub.echo("x");
  }
  const std::vector<std::uint64_t> counts = selector.dispatch_counts("worker");
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0], 0u);
  EXPECT_EQ(counts[1] + counts[2], 60u);
  EXPECT_EQ(servants_[0]->calls, 0);
}

TEST_F(LoadBalancingTest, QosLoadOperationReportsServerLoad) {
  start_workers(1);
  EchoStub stub(client_, refs_[0]);
  for (int i = 0; i < 5; ++i) stub.echo("warm");
  EXPECT_GT(poll_load(0), 0.0);
  EXPECT_EQ(reporting_[0]->served(), 5u);
}

TEST_F(LoadBalancingTest, EmptyReplicaSetKeepsOriginalTarget) {
  start_workers(1);
  auto mediator = std::make_shared<LoadBalancingMediator>();
  core::Agreement agreement;
  agreement.characteristic = loadbalancing_name();
  agreement.params = loadbalancing_descriptor().default_params();
  mediator->bind_agreement(agreement);
  EchoStub stub = stub_with(mediator);
  EXPECT_EQ(stub.echo("fallthrough"), "fallthrough");
}

TEST_F(LoadBalancingTest, CrashedWorkerFailsOverTransparently) {
  start_workers(3);
  client_.set_default_timeout(50 * sim::kMillisecond);
  orb::BreakerConfig breaker;
  breaker.failure_threshold = 1;
  breaker.open_period = sim::kSecond;
  client_.set_breaker_config(breaker);
  // The timeout on the dead worker opens its breaker, the retried attempt
  // fast-fails with CIRCUIT_OPEN, and the selector re-targets a live one.
  core::RetryPolicy policy = core::RetryPolicy::idempotent();
  policy.max_attempts = 2;
  policy.initial_backoff = 0;
  core::RetryGovernor governor(policy);
  client_.set_retry_advisor(&governor);
  naming::ReplicaSelector& selector = arm_selector();
  EchoStub stub = stub_with(make_mediator());
  net_.crash("w1");
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(stub.echo("x"), "x");  // no fault reaches the caller
  }
  EXPECT_GE(selector.stats().failovers, 1u);
  EXPECT_EQ(servants_[0]->calls + servants_[2]->calls, 40);
}

TEST_F(LoadBalancingTest, FullNegotiationInstallsBalancer) {
  start_workers(2);
  arm_selector();
  core::ResourceManager resources;
  resources.declare("cpu", 100.0);
  core::ProviderRegistry providers;
  providers.add(make_loadbalancing_provider());
  // Negotiation service lives on worker 0's ORB.
  core::QosTransport server_transport(*workers_[0]);
  core::NegotiationService negotiation(server_transport, providers,
                                       resources);
  core::Negotiator negotiator(client_transport_, providers);

  orb::QosProfile profile;
  profile.characteristic = loadbalancing_name();
  orb::ObjRef ref = refs_[0];
  ref.qos = {profile};
  EchoStub stub(client_, ref);
  negotiator.negotiate(stub, loadbalancing_name(),
                       {{"replicas", cdr::Any::from_string(group_ior())}});
  for (int i = 0; i < 10; ++i) stub.echo("x");
  EXPECT_EQ(servants_[0]->calls, 5);
  EXPECT_EQ(servants_[1]->calls, 5);
}

/// An echo servant that runs `hook` inside each call it serves.
class HookedEcho final : public maqs::testing::EchoImpl {
 public:
  std::string echo(const std::string& s) override {
    if (hook) hook();
    return EchoImpl::echo(s);
  }
  std::function<void()> hook;
};

TEST_F(LoadBalancingTest, GroupReboundMidCallKeepsTheCallOnItsGroup) {
  start_workers(4);
  naming::SelectorConfig config;
  config.failover_on_timeout = true;
  naming::ReplicaSelector& selector = arm_selector(config);
  client_.set_default_timeout(50 * sim::kMillisecond);
  auto agreement_for = [this](std::size_t first) {
    orb::ObjRef group = refs_[first];
    const orb::ObjRef& second = refs_[first + 1];
    group.alternates.push_back(
        orb::AltProfile{second.endpoint, second.object_key});
    core::Agreement agreement;
    agreement.characteristic = loadbalancing_name();
    agreement.params = loadbalancing_descriptor().validate_params(
        {{"replicas", cdr::Any::from_string(group.to_string())}});
    return agreement;
  };
  auto mediator = std::make_shared<LoadBalancingMediator>();
  mediator->bind_agreement(agreement_for(0));  // workers 0 and 1
  auto composite = std::make_shared<core::CompositeMediator>();
  composite->add(mediator);
  EchoStub stub(client_, refs_.front());
  stub.set_mediator(composite);

  // Worker 0 serves the first call, rebinds the agreement to workers 2
  // and 3 meanwhile (a renegotiation pumped from inside the call) and
  // crashes, so the reply is lost: the call times out and fails over
  // below the mediator, to the other profile of the group it started on.
  auto hooked = std::make_shared<HookedEcho>();
  workers_[0]->adapter().deactivate("worker");
  workers_[0]->adapter().activate("worker", hooked);
  hooked->hook = [&] {
    composite->rebind(loadbalancing_name(), agreement_for(2));
    net_.crash("w0");
  };
  EXPECT_EQ(stub.echo("x"), "x");
  EXPECT_EQ(hooked->calls, 1);
  EXPECT_EQ(selector.stats().failovers, 1u);
  EXPECT_EQ(servants_[1]->calls, 1);
  EXPECT_EQ(servants_[2]->calls + servants_[3]->calls, 0);

  // The next call addresses the rebound group.
  EXPECT_EQ(stub.echo("y"), "y");
  EXPECT_EQ(servants_[1]->calls, 1);
  EXPECT_EQ(servants_[2]->calls + servants_[3]->calls, 1);
}

}  // namespace
}  // namespace maqs::characteristics
