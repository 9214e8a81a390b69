// ReplicaSelector: per-invocation profile choice (round-robin,
// least-loaded, locality), breaker-aware skipping, and transparent
// failover on synthesized faults.
#include <gtest/gtest.h>

#include "core/qos_transport.hpp"
#include "support/replica_world.hpp"
#include "trace/trace.hpp"

namespace maqs::testing {
namespace {

TEST(SelectorTest, RoundRobinSpreadsInvocationsEvenly) {
  ReplicaWorld world(3);
  world.register_all();
  const orb::ObjRef ref = world.lookup();
  ASSERT_EQ(ref.profile_count(), 3u);

  EchoStub stub(world.client, ref);
  for (int i = 0; i < 30; ++i) {
    ASSERT_EQ(stub.echo("m"), "m");
    world.loop.run_until_idle();
  }
  EXPECT_EQ(world.selector.stats().selections, 30u);
  for (const auto& replica : world.replicas) {
    EXPECT_EQ(replica.servant->calls, 10);
  }
}

TEST(SelectorTest, LeastLoadedPrefersTheIdleReplica) {
  naming::SelectorConfig config;
  config.policy = naming::SelectPolicy::kLeastLoaded;
  ReplicaWorld world(3, chaos_seed(), config);
  world.register_all();
  const orb::ObjRef ref = world.lookup();

  // Skewed load reports: replica 3 (index 2) is idle.
  world.selector.update_loads(ref.object_key, {5.0, 3.0, 0.0});
  EchoStub stub(world.client, ref);
  for (int i = 0; i < 10; ++i) {
    ASSERT_EQ(stub.echo("m"), "m");
    world.loop.run_until_idle();
  }
  EXPECT_EQ(world.replicas[2].servant->calls, 10);
  EXPECT_EQ(world.replicas[0].servant->calls, 0);
}

TEST(SelectorTest, LocalityPrefersTheCallersNode) {
  naming::SelectorConfig config;
  config.policy = naming::SelectPolicy::kLocality;
  ReplicaWorld world(2, chaos_seed(), config);
  world.register_all();
  // A collocated replica on the client's own node.
  orb::Orb local(world.net, "client", 9100);
  auto local_servant = std::make_shared<EchoImpl>();
  local.adapter().activate("echo-local", local_servant);
  world.directory->register_member(
      kReplicaService, local_servant->repo_id(),
      orb::AltProfile{local.endpoint(), "echo-local"}, 0.0, 0);

  const orb::ObjRef ref = world.lookup();
  ASSERT_EQ(ref.profile_count(), 3u);
  EchoStub stub(world.client, ref);
  for (int i = 0; i < 6; ++i) {
    ASSERT_EQ(stub.echo("m"), "m");
    world.loop.run_until_idle();
  }
  EXPECT_EQ(local_servant->calls, 6);
  EXPECT_EQ(world.replicas[0].servant->calls, 0);
  EXPECT_EQ(world.replicas[1].servant->calls, 0);
}

TEST(SelectorTest, CircuitOpenFailsOverToNextReplicaTransparently) {
  ReplicaWorld world(2);
  world.register_all();
  const orb::ObjRef ref = world.lookup();

  world.client.set_default_timeout(5 * sim::kMillisecond);
  orb::BreakerConfig breaker;
  breaker.failure_threshold = 1;
  breaker.open_period = sim::kSecond;
  world.client.set_breaker_config(breaker);

  // The timeout on the dead replica opens its breaker, the retried
  // attempt fast-fails with CIRCUIT_OPEN, and the failover interceptor
  // re-targets the live replica — the caller never sees a fault.
  core::RetryPolicy policy = core::RetryPolicy::idempotent();
  policy.max_attempts = 2;
  policy.initial_backoff = 0;
  core::RetryGovernor governor(policy, chaos_seed());
  world.client.set_retry_advisor(&governor);

  EchoStub stub(world.client, ref);
  ASSERT_EQ(stub.echo("warm"), "warm");  // replica 1 (round-robin start)
  world.net.crash("server-1");

  // Cursor: warm advanced it to replica 2, so call 1 lands live, call 2
  // round-robins onto the dead replica 1 and fails over.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(stub.echo("x"), "x");
  }
  EXPECT_GE(world.selector.stats().failovers, 1u);
  // Once quarantined/open, selection skips the dead replica: replica 2
  // serves the whole loop.
  EXPECT_EQ(world.replicas[1].servant->calls, 4);
  EXPECT_EQ(world.client.breaker_state(world.replicas[0].orb->endpoint(),
                                       "echo-1"),
            orb::BreakerState::kOpen);
}

TEST(SelectorTest, TimeoutFailoverIsIdempotencyGated) {
  // Without the opt-in, a timeout surfaces as TransportError (the call
  // may have executed); with it, the selector re-targets.
  for (const bool idempotent : {false, true}) {
    naming::SelectorConfig config;
    config.failover_on_timeout = idempotent;
    ReplicaWorld world(2, chaos_seed(), config);
    world.register_all();
    const orb::ObjRef ref = world.lookup();
    world.client.set_default_timeout(5 * sim::kMillisecond);

    EchoStub stub(world.client, ref);
    ASSERT_EQ(stub.echo("warm"), "warm");
    // Round-robin points the next call at replica 2 — crash it.
    world.net.crash("server-2");
    if (idempotent) {
      EXPECT_EQ(stub.echo("x"), "x");
      EXPECT_EQ(world.selector.stats().failovers, 1u);
    } else {
      EXPECT_THROW(stub.echo("x"), orb::TransportError);
      EXPECT_EQ(world.selector.stats().failovers, 0u);
      EXPECT_EQ(world.selector.stats().exhausted, 0u);
    }
  }
}

TEST(SelectorTest, AllReplicasDeadExhaustsAndSurfacesTheFault) {
  naming::SelectorConfig config;
  config.failover_on_timeout = true;
  ReplicaWorld world(2, chaos_seed(), config);
  world.register_all();
  const orb::ObjRef ref = world.lookup();
  world.client.set_default_timeout(5 * sim::kMillisecond);

  EchoStub stub(world.client, ref);
  world.net.crash("server-1");
  world.net.crash("server-2");
  EXPECT_THROW(stub.echo("x"), orb::TransportError);
  EXPECT_EQ(world.selector.stats().failovers, 1u);
  EXPECT_EQ(world.selector.stats().exhausted, 1u);
}

TEST(SelectorTest, SingleProfileRefsBypassSelection) {
  ReplicaWorld world(1);
  world.register_all();
  // A direct (single-profile) reference: the selector must stay inert.
  const orb::ObjRef direct = world.replicas[0].orb->adapter().reference(
      world.replicas[0].object_key);
  ASSERT_FALSE(direct.multi_profile());
  EchoStub stub(world.client, direct);
  ASSERT_EQ(stub.echo("m"), "m");
  EXPECT_EQ(world.selector.stats().selections, 0u);
}

TEST(SelectorTest, SelectionAndFailoverEmitTraceSpans) {
  naming::SelectorConfig config;
  config.failover_on_timeout = true;
  ReplicaWorld world(2, chaos_seed(), config);
  world.register_all();
  const orb::ObjRef ref = world.lookup();
  world.client.set_default_timeout(5 * sim::kMillisecond);

  trace::TraceRecorder recorder(world.loop);
  recorder.set_enabled(true);
  world.client.set_trace_recorder(&recorder);

  EchoStub stub(world.client, ref);
  ASSERT_EQ(stub.echo("warm"), "warm");
  // Next selection lands on the (crashed) replica 2 and fails over.
  world.net.crash("server-2");
  ASSERT_EQ(stub.echo("x"), "x");

  bool saw_select = false;
  bool saw_failover = false;
  for (const trace::Span& span : recorder.spans()) {
    if (std::string_view(span.name) == "replica.select") saw_select = true;
    if (std::string_view(span.name) == "replica.failover") {
      saw_failover = true;
    }
  }
  EXPECT_TRUE(saw_select);
  EXPECT_TRUE(saw_failover);
}

/// A transport module that keeps the default QosModule::invoke (send to
/// the endpoint it is handed) and records the object key of every request
/// it transforms.
class KeyRecordingModule final : public core::QosModule {
 public:
  static constexpr const char* kName = "selector-test-recorder";
  static std::vector<std::string>& keys() {
    static std::vector<std::string> recorded;
    return recorded;
  }
  KeyRecordingModule() : core::QosModule(kName) {}
  void transform_request(orb::RequestMessage& req) override {
    keys().push_back(req.object_key);
  }
};

TEST(SelectorTest, QosAwareGroupRoutesEachCallToTheChosenProfile) {
  auto& registry = core::ModuleFactoryRegistry::instance();
  if (!registry.contains(KeyRecordingModule::kName)) {
    registry.register_factory(KeyRecordingModule::kName, [] {
      return std::make_unique<KeyRecordingModule>();
    });
  }
  KeyRecordingModule::keys().clear();
  ReplicaWorld world(3);
  world.register_all();
  // Shaped like ReplicaGroup::group_reference(): a QoS tag naming the
  // module, every replica a profile (here each under its own key).
  orb::ObjRef group = world.lookup();
  ASSERT_EQ(group.profile_count(), 3u);
  orb::QosProfile tag;
  tag.characteristic = "KeyRecording";
  tag.properties = {{"module", KeyRecordingModule::kName}};
  group.qos = {tag};
  core::QosTransport transport(world.client);
  for (std::size_t i = 0; i < group.profile_count(); ++i) {
    transport.assign(group.profile(i).object_key, KeyRecordingModule::kName);
  }

  EchoStub stub(world.client, group);
  for (int i = 0; i < 6; ++i) {
    ASSERT_EQ(stub.echo("m"), "m");
  }
  // Round-robin rotates over the profiles; each call carries the chosen
  // profile's key, and reached it only because the module was handed that
  // profile's endpoint (every replica serves its own key alone).
  std::vector<std::string> expected;
  for (std::size_t i = 0; i < 6; ++i) {
    expected.push_back(group.profile(i % 3).object_key);
  }
  EXPECT_EQ(KeyRecordingModule::keys(), expected);
  EXPECT_EQ(transport.stats().requests_via_module, 6u);
  EXPECT_EQ(world.selector.stats().selections, 6u);
  for (const auto& replica : world.replicas) {
    EXPECT_EQ(replica.servant->calls, 2) << replica.object_key;
  }
}

}  // namespace
}  // namespace maqs::testing
