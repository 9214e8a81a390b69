// Chaos harness: a full client/server QoS world plus fault-injection
// helpers for the resilience integration suite.
//
// ChaosWorld wires the same stack as the adaptation tests (two ORBs, two
// QoS transports, negotiation service + negotiator + adaptation manager,
// resource manager) and adds:
//   - a plain Echo servant for transport-level scenarios (loss, crash,
//     partition) that need no QoS machinery,
//   - the "chaos.flaky" characteristic whose transport module fails on
//     demand, for the quarantine/renegotiation scenarios,
//   - schedule_at-style wrappers over the network fault-injection API so
//     scenarios read as timelines,
//   - a sequential workload runner reporting success/failure/latency.
//
// Determinism: every stochastic input (link loss, jitter) draws from the
// network's seeded RNG; MAQS_CHAOS_SEED overrides the seed so CI can run
// a small seed matrix over the same scenarios.
#pragma once

#include <cstdlib>
#include <memory>
#include <string>
#include <utility>

#include "characteristics/compression.hpp"
#include "characteristics/encryption.hpp"
#include "core/adaptation.hpp"
#include "core/retry.hpp"
#include "core/sched_bridge.hpp"
#include "net/network.hpp"
#include "sched/scheduler.hpp"
#include "support/qos_echo.hpp"

namespace maqs::testing {

/// Seed for chaos scenarios: MAQS_CHAOS_SEED when set, else 42.
inline std::uint64_t chaos_seed() {
  if (const char* env = std::getenv("MAQS_CHAOS_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 42;
}

// ---- flaky characteristic (module failure injection) ----

inline const std::string& flaky_module_name() {
  static const std::string kName = "chaos.flaky.module";
  return kName;
}

inline const std::string& flaky_name() {
  static const std::string kName = "chaos.flaky";
  return kName;
}

/// Shared failure switch: the test flips `failing`, the module (owned by
/// the transport) reads it per invocation.
struct FlakyState {
  bool failing = false;
  int invocations = 0;
  int failures = 0;
};

class FlakyModule final : public core::QosModule {
 public:
  explicit FlakyModule(std::shared_ptr<FlakyState> state)
      : core::QosModule(flaky_module_name()), state_(std::move(state)) {}

  orb::ReplyMessage invoke(orb::RequestMessage req,
                           const net::Address& dest) override {
    ++state_->invocations;
    if (state_->failing) {
      ++state_->failures;
      throw core::QosError("chaos: injected module failure");
    }
    return core::QosModule::invoke(std::move(req), dest);
  }

 private:
  std::shared_ptr<FlakyState> state_;
};

inline core::CharacteristicDescriptor flaky_descriptor() {
  return core::CharacteristicDescriptor(
      flaky_name(), core::QosCategory::kFaultTolerance, {},
      {
          core::DimensionDesc{"level",
                              {cdr::Any::from_long(64), cdr::Any::from_long(32),
                               cdr::Any::from_long(16), cdr::Any::from_long(8),
                               cdr::Any::from_long(4), cdr::Any::from_long(2),
                               cdr::Any::from_long(1)},
                              0},
      },
      {});
}

/// Provider for the flaky characteristic: module-level only (no mediator,
/// no server impl), demanding `level` cpu so admission and the halving
/// policy behave like the real characteristics.
inline core::CharacteristicProvider make_flaky_provider(
    std::shared_ptr<FlakyState> state) {
  core::CharacteristicProvider provider;
  provider.descriptor = flaky_descriptor();
  provider.module = flaky_module_name();
  auto& registry = core::ModuleFactoryRegistry::instance();
  if (!registry.contains(flaky_module_name())) {
    registry.register_factory(flaky_module_name(), [state] {
      return std::make_unique<FlakyModule>(state);
    });
  }
  provider.resource_demand =
      [](const std::map<std::string, cdr::Any>& params) {
        core::ResourceDemand demand;
        demand["cpu"] = static_cast<double>(params.at("level").as_integer());
        return demand;
      };
  return provider;
}

// ---- the world ----

struct ChaosWorld {
  explicit ChaosWorld(std::uint64_t seed = chaos_seed())
      : net(loop, seed),
        server(net, "server", 9000),
        client(net, "client", 9001),
        server_transport(server),
        client_transport(client),
        flaky_state(std::make_shared<FlakyState>()),
        providers(make_providers(flaky_state)),
        negotiation(server_transport, providers, resources),
        negotiator(client_transport, providers),
        adaptation(client_transport, negotiator) {
    resources.declare("cpu", 100.0);
    resources.declare("bandwidth", 1000.0);
    plain_servant = std::make_shared<EchoImpl>();
    plain_ref = server.adapter().activate("chaos-plain", plain_servant);
    qos_servant = std::make_shared<QosEchoImpl>();
    qos_servant->assign_characteristic(flaky_descriptor());
    orb::QosProfile profile;
    profile.characteristic = flaky_name();
    qos_ref = server.adapter().activate("chaos-echo", qos_servant, {profile});
    // Woven data-path servant for the bandwidth-collapse scenario:
    // compression + encryption negotiate real capability matrices here.
    stream_servant = std::make_shared<QosEchoImpl>();
    stream_servant->assign_characteristic(
        characteristics::compression_descriptor());
    stream_servant->assign_characteristic(
        characteristics::encryption_descriptor());
    orb::QosProfile compress;
    compress.characteristic = characteristics::compression_name();
    orb::QosProfile encrypt;
    encrypt.characteristic = characteristics::encryption_name();
    stream_ref = server.adapter().activate("chaos-stream", stream_servant,
                                           {compress, encrypt});
  }

  ~ChaosWorld() {
    // The factory closure captures this world's FlakyState; drop it so
    // the next world registers a fresh one.
    core::ModuleFactoryRegistry::instance().unregister(flaky_module_name());
  }

  static core::ProviderRegistry make_providers(
      const std::shared_ptr<FlakyState>& state) {
    core::ProviderRegistry registry;
    registry.add(make_flaky_provider(state));
    registry.add(characteristics::make_compression_provider());
    registry.add(characteristics::make_encryption_psk_provider());
    return registry;
  }

  /// One step down the agreement's preference lattice per violation,
  /// resource-aware (the cheapest step relieving a violated budget wins).
  core::AdaptationManager::Policy lattice_policy() const {
    return core::make_lattice_policy(providers);
  }

  /// Arms the server-side request scheduler (the overload scenario): a
  /// "gold" class with 3x the best-effort weight, bound to the QoS echo
  /// object, server paced at `service_rps`. The global bound sits below
  /// the sum of the class limits so gold arrivals under full queues evict
  /// best-effort victims, and the overload signal is wired to the
  /// negotiation service so the first gold shed of an episode pushes a
  /// violation (renegotiate-once) to the client's adaptation manager.
  sched::RequestScheduler& arm_scheduler(double service_rps) {
    sched::SchedulerConfig config;
    sched::ClassConfig gold;
    gold.name = "gold";
    gold.weight = 3.0;
    gold.deadline_budget = 50 * sim::kMillisecond;
    gold.queue_limit = 16;
    config.classes.push_back(gold);
    sched::ClassConfig best;
    best.name = sched::kBestEffortClassName;
    best.weight = 1.0;
    best.deadline_budget = 20 * sim::kMillisecond;
    best.queue_limit = 8;
    config.classes.push_back(best);
    config.service_rate_rps = service_rps;
    config.total_limit = 20;
    scheduler = std::make_unique<sched::RequestScheduler>(server, config);
    scheduler->classifier().bind_object("chaos-echo", "gold");
    core::attach_overload_renegotiation(*scheduler, negotiation);
    return *scheduler;
  }

  // ---- fault timeline helpers (absolute virtual-time points) ----

  void at(sim::TimePoint when, std::function<void()> action) {
    const sim::TimePoint now = loop.now();
    loop.schedule(when > now ? when - now : 0, std::move(action));
  }
  void crash_at(sim::TimePoint when, const net::NodeId& node) {
    at(when, [this, node] { net.crash(node); });
  }
  void restart_at(sim::TimePoint when, const net::NodeId& node) {
    at(when, [this, node] { net.restart(node); });
  }
  void partition_at(sim::TimePoint when, const net::NodeId& node,
                    int group) {
    at(when, [this, node, group] { net.set_partition(node, group); });
  }
  void heal_at(sim::TimePoint when) {
    at(when, [this] { net.heal_partitions(); });
  }

  sim::EventLoop loop;
  net::Network net;
  orb::Orb server;
  orb::Orb client;
  core::QosTransport server_transport;
  core::QosTransport client_transport;
  core::ResourceManager resources;
  std::shared_ptr<FlakyState> flaky_state;
  core::ProviderRegistry providers;
  core::NegotiationService negotiation;
  core::Negotiator negotiator;
  core::AdaptationManager adaptation;
  std::shared_ptr<EchoImpl> plain_servant;
  orb::ObjRef plain_ref;
  std::shared_ptr<QosEchoImpl> qos_servant;
  orb::ObjRef qos_ref;
  std::shared_ptr<QosEchoImpl> stream_servant;
  orb::ObjRef stream_ref;
  /// Present once arm_scheduler() ran; declared last so it unregisters
  /// from the server's chain and event loop before they are destroyed.
  std::unique_ptr<sched::RequestScheduler> scheduler;
};

// ---- workload runner ----

struct WorkloadReport {
  int attempted = 0;
  int succeeded = 0;
  int failed = 0;
  sim::Duration max_latency = 0;
};

/// Runs `count` sequential blocking calls, `spacing` of virtual time
/// apart, tallying outcomes. Sequential (call, then advance) keeps the
/// event-loop nesting flat and the timeline readable.
template <typename Call>
WorkloadReport run_workload(sim::EventLoop& loop, int count,
                            sim::Duration spacing, Call&& call) {
  WorkloadReport report;
  for (int i = 0; i < count; ++i) {
    ++report.attempted;
    const sim::TimePoint start = loop.now();
    try {
      call(i);
      ++report.succeeded;
    } catch (const Error&) {
      ++report.failed;
    }
    const sim::Duration took = loop.now() - start;
    if (took > report.max_latency) report.max_latency = took;
    loop.run_for(spacing);
  }
  return report;
}

// ---- overload storm (scheduler shed path) ----

/// Per-class tally of an asynchronous request storm. `answered()` vs
/// `sent` is the zero-silent-drop check: the scheduler's overload
/// contract says every request is eventually answered — served, or
/// rejected with a classified maqs/OVERLOAD — never dropped.
struct StormReport {
  int sent = 0;
  int ok = 0;        ///< kOk replies
  int overload = 0;  ///< maqs/OVERLOAD rejections
  int other = 0;     ///< anything else (timeouts, unexpected faults)

  int answered() const { return ok + overload + other; }
};

/// Schedules `count` asynchronous echo requests against `object_key`,
/// `spacing` of virtual time apart starting at `start`, tallying reply
/// outcomes into `report` (which must outlive the run).
inline void schedule_storm(ChaosWorld& world, const std::string& object_key,
                           int count, sim::Duration spacing,
                           sim::TimePoint start, StormReport& report) {
  for (int i = 0; i < count; ++i) {
    world.at(start + i * spacing, [&world, &report, object_key, i] {
      orb::RequestMessage req;
      req.operation = "echo";
      req.object_key = object_key;
      cdr::Encoder enc;
      enc.write_string("s" + std::to_string(i));
      req.body = enc.take();
      ++report.sent;
      world.client.send_request(
          world.server.endpoint(), std::move(req),
          [&report](const orb::ReplyMessage& rep) {
            if (rep.status == orb::ReplyStatus::kOk) {
              ++report.ok;
            } else if (rep.exception.rfind(sched::kOverloadException, 0) ==
                       0) {
              ++report.overload;
            } else {
              ++report.other;
            }
          });
    });
  }
}

}  // namespace maqs::testing
