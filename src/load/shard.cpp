#include "load/shard.hpp"

#include <array>
#include <memory>
#include <utility>

#include "cdr/decoder.hpp"
#include "cdr/encoder.hpp"
#include "characteristics/compression.hpp"
#include "characteristics/encryption.hpp"
#include "core/mediator.hpp"
#include "core/qos_skeleton.hpp"
#include "core/qos_transport.hpp"
#include "net/network.hpp"
#include "orb/dii.hpp"
#include "orb/orb.hpp"
#include "sched/classifier.hpp"
#include "util/strings.hpp"

namespace maqs::load {

namespace {

/// The woven interface: its installed QoS impls transform *every* request
/// body, so only woven traffic may target it.
constexpr const char* kWovenKey = "echo";
/// The plain interface serving untransformed add/echo traffic.
constexpr const char* kPlainKey = "calc";

/// Woven servant: the blob op rides through QosServantBase, so every
/// dispatch pays the genuine decrypt+inflate (and the reply the
/// compress+encrypt) of the negotiated characteristics.
class LoadWovenServant final : public core::QosServantBase {
 public:
  const std::string& repo_id() const override {
    static const std::string id = "IDL:maqs/load/Echo:1.0";
    return id;
  }

 protected:
  void dispatch_app(const std::string& operation, cdr::Decoder& args,
                    cdr::Encoder& out, orb::ServerContext& ctx) override {
    (void)ctx;
    if (operation == "blob") {
      const util::Bytes data = args.read_bytes();
      args.expect_end();
      out.write_bytes(data);
    } else {
      throw orb::BadOperation("LoadEcho: unknown operation " + operation);
    }
  }
};

/// Plain GIOP servant for the untransformed ops — plain peers need no QoS
/// machinery at all (they still get classified, via the context tag).
class LoadPlainServant final : public orb::Servant {
 public:
  const std::string& repo_id() const override {
    static const std::string id = "IDL:maqs/load/Calc:1.0";
    return id;
  }

  void dispatch(const std::string& operation, cdr::Decoder& args,
                cdr::Encoder& out, orb::ServerContext& ctx) override {
    (void)ctx;
    if (operation == "echo") {
      const std::string s = args.read_string();
      args.expect_end();
      out.write_string(s);
    } else if (operation == "add") {
      const std::int32_t a = args.read_i32();
      const std::int32_t b = args.read_i32();
      args.expect_end();
      out.write_i32(a + b);
    } else {
      throw orb::BadOperation("LoadCalc: unknown operation " + operation);
    }
  }
};

/// Compressible text payload for the woven blob op (mirrors the bench
/// payload shape: ~90% repeated phrase, ~10% seeded noise).
util::Bytes blob_payload(std::size_t size, util::Rng& rng) {
  const std::string phrase = "population shard woven payload frame ";
  util::Bytes out;
  out.reserve(size);
  while (out.size() < size) {
    if (rng.next_double() < 0.9) {
      const std::size_t n = std::min(phrase.size(), size - out.size());
      out.insert(out.end(), phrase.begin(), phrase.begin() + n);
    } else {
      const std::uint64_t word = rng.next();
      const auto* bytes = reinterpret_cast<const std::uint8_t*>(&word);
      const std::size_t n = std::min(sizeof(word), size - out.size());
      out.insert(out.end(), bytes, bytes + n);
    }
  }
  return out;
}

core::Agreement make_agreement(const std::string& characteristic,
                               std::map<std::string, cdr::Any> params) {
  core::Agreement agreement;
  agreement.id = 1;
  agreement.characteristic = characteristic;
  agreement.object_key = kWovenKey;
  agreement.params = std::move(params);
  agreement.state = core::AgreementState::kActive;
  return agreement;
}

/// All per-shard machinery the reply callbacks need. Lives on
/// run_shard's stack; the event loop is fully drained before it returns,
/// so no callback can outlive it.
struct Driver {
  const ShardConfig& cfg;
  sim::EventLoop& loop;
  orb::Orb& client;
  net::Address server_addr;
  util::Rng rng;
  /// Pre-built request per (tenant, op) — the woven body and its context
  /// tags are computed once through the mediator chain, then cloned.
  std::vector<std::array<orb::RequestMessage, kOpKindCount>> templates;
  std::vector<std::size_t> tenant_class;  // tenant -> scheduler class id
  std::vector<ClassOutcome>& outcomes;
  trace::TraceRecorder* recorder = nullptr;
  /// Client half of the weaving, run per woven request (the encryption
  /// nonce is bound to the request id, so bodies cannot be pre-sealed).
  core::CompositeMediator* mediator = nullptr;
  /// Ids are assigned here (never left 0) so the woven transform can seal
  /// against the id the wire will actually carry.
  std::uint64_t next_request_id = 1;
  MmppArrivals arrivals;
  std::uint64_t commands_ok = 0;
  std::uint64_t commands_error = 0;
  std::uint64_t open_loop_sent = 0;

  Driver(const ShardConfig& cfg_in, sim::EventLoop& loop_in,
         orb::Orb& client_in, std::vector<ClassOutcome>& outcomes_in)
      : cfg(cfg_in),
        loop(loop_in),
        client(client_in),
        // Decorrelate shards: the same base seed must not replay the same
        // draw sequence in every shard.
        rng(cfg_in.seed ^ (0x9E3779B97F4A7C15ULL * (cfg_in.shard + 1))),
        outcomes(outcomes_in),
        arrivals(cfg_in.mmpp) {}

  void issue(std::size_t tenant, bool closed_loop) {
    if (loop.now() >= cfg.horizon) return;
    const OpKind op = sample_op(cfg.tenants[tenant], rng);
    orb::RequestMessage req = templates[tenant][static_cast<std::size_t>(op)];
    req.request_id = next_request_id++;
    if (op == OpKind::kWovenBlob) {
      mediator->outbound(req);
    }
    if (recorder != nullptr) {
      // The async send path bypasses the client interceptor chain, so the
      // trace context is minted here; make_trace() applies head sampling.
      const trace::TraceContext ctx = recorder->make_trace();
      if (ctx.sampled()) {
        req.context.set(trace::kTraceContextKey, trace::encode_context(ctx));
      }
    }
    if (op != OpKind::kCommand) ++outcomes[tenant_class[tenant]].sent;
    const sim::TimePoint t0 = loop.now();
    client.send_request(
        server_addr, std::move(req),
        [this, tenant, op, t0, closed_loop](orb::ReplyMessage rep) {
          finish(tenant, op, t0, closed_loop, rep);
        },
        cfg.request_timeout);
  }

  void finish(std::size_t tenant, OpKind op, sim::TimePoint t0,
              bool closed_loop, const orb::ReplyMessage& rep) {
    if (op == OpKind::kCommand) {
      if (rep.status == orb::ReplyStatus::kOk) {
        ++commands_ok;
      } else {
        ++commands_error;
      }
    } else {
      ClassOutcome& out = outcomes[tenant_class[tenant]];
      if (rep.status == orb::ReplyStatus::kOk) {
        ++out.ok;
        out.latency.record(static_cast<std::uint64_t>(loop.now() - t0));
      } else if (util::starts_with(rep.exception, sched::kOverloadException)) {
        ++out.shed;
      } else if (rep.synthesized_locally) {
        ++out.timeout;
      } else {
        ++out.error;
      }
    }
    if (closed_loop && loop.now() < cfg.horizon) {
      const sim::Duration think = cfg.tenants[tenant].think.sample(rng);
      loop.schedule(think, [this, tenant] { issue(tenant, true); });
    }
  }

  /// Self-rescheduling open-loop arrival chain.
  void schedule_open_loop() {
    const sim::Duration gap = arrivals.next_arrival(rng);
    loop.schedule(gap, [this] {
      if (loop.now() >= cfg.horizon) return;
      ++open_loop_sent;
      issue(cfg.mmpp_tenant, /*closed_loop=*/false);
      schedule_open_loop();
    });
  }
};

}  // namespace

void ClassOutcome::merge(const ClassOutcome& other) {
  sent += other.sent;
  ok += other.ok;
  shed += other.shed;
  timeout += other.timeout;
  error += other.error;
  latency.merge(other.latency);
}

ShardResult run_shard(const ShardConfig& config) {
  // ---- the world ----
  sim::EventLoop loop;
  net::Network network{loop};
  network.set_default_link(net::LinkParams{.latency = 200 * sim::kMicrosecond,
                                           .bandwidth_bps = 1e9});
  orb::Orb server{network, "server", 9000};
  orb::Orb client{network, "client", 9001};
  core::QosTransport server_transport{server};

  trace::TraceRecorder recorder(loop, /*capacity=*/4096);
  if (config.trace_sample_every > 0) {
    recorder.set_enabled(true);
    recorder.set_sample_every(config.trace_sample_every);
    recorder.set_shard(config.shard);
    server.set_trace_recorder(&recorder);
  }

  // ---- servants: a woven blob interface and a plain calc interface ----
  auto woven_servant = std::make_shared<LoadWovenServant>();
  woven_servant->assign_characteristic(
      characteristics::compression_descriptor());
  woven_servant->assign_characteristic(
      characteristics::encryption_descriptor());
  orb::QosProfile compression;
  compression.characteristic = characteristics::compression_name();
  orb::QosProfile encryption;
  encryption.characteristic = characteristics::encryption_name();
  server.adapter().activate(kWovenKey, woven_servant,
                            {compression, encryption});
  auto plain_servant = std::make_shared<LoadPlainServant>();
  server.adapter().activate(kPlainKey, plain_servant);

  const core::Agreement compress_agreement =
      make_agreement(characteristics::compression_name(),
                     {{"algorithm", cdr::Any::from_string("lz77")},
                      {"level", cdr::Any::from_long(32)},
                      {"min_size", cdr::Any::from_long(64)}});
  const core::Agreement encrypt_agreement =
      make_agreement(characteristics::encryption_name(),
                     {{"psk", cdr::Any::from_string("load-psk")},
                      {"integrity", cdr::Any::from_bool(true)}});

  auto mediator = std::make_shared<core::CompositeMediator>();
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
  woven_servant->install_impl(compress_impl);
  auto encrypt_impl = std::make_shared<characteristics::EncryptionImpl>();
  encrypt_impl->bind_agreement(encrypt_agreement);
  woven_servant->install_impl(encrypt_impl);

  // ---- the paced QoS-class scheduler ----
  sched::SchedulerConfig sched_config;
  sched_config.classes = config.classes.empty() ? default_classes()
                                                : config.classes;
  sched_config.service_rate_rps = config.service_rate_rps;
  sched::RequestScheduler scheduler(server, sched_config);

  const auto& classifier = scheduler.classifier();
  std::vector<ClassOutcome> outcomes(classifier.class_count());
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    outcomes[i].name = classifier.class_name(i);
  }

  Driver driver(config, loop, client, outcomes);
  driver.server_addr = server.endpoint();
  if (config.trace_sample_every > 0) driver.recorder = &recorder;

  const std::vector<TenantSpec>& tenants = config.tenants;
  driver.tenant_class.reserve(tenants.size());
  for (const TenantSpec& tenant : tenants) {
    driver.tenant_class.push_back(classifier.class_id(tenant.qos_class)
                                      .value_or(classifier.best_effort()));
  }

  driver.mediator = mediator.get();

  // ---- request templates: one per (tenant, op) ----
  // Plain bodies are final; the woven blob template stays *unsealed* here
  // — the encryption nonce binds to the request id, so Driver::issue runs
  // the mediator chain per request, after assigning the id.
  std::array<orb::RequestMessage, kOpKindCount> base;
  {
    cdr::Encoder enc;
    enc.write_i32(7);
    enc.write_i32(35);
    base[0].object_key = kPlainKey;
    base[0].operation = "add";
    base[0].body = enc.take();
  }
  {
    cdr::Encoder enc;
    enc.write_string("population shard echo probe");
    base[1].object_key = kPlainKey;
    base[1].operation = "echo";
    base[1].body = enc.take();
  }
  {
    cdr::Encoder enc;
    enc.write_bytes(blob_payload(config.blob_size, driver.rng));
    base[2].object_key = kWovenKey;
    base[2].operation = "blob";
    base[2].qos_aware = true;
    base[2].body = enc.take();
  }
  {
    base[3].kind = orb::RequestKind::kCommand;
    base[3].qos_aware = true;
    base[3].operation = "ping";
    base[3].body = orb::encode_command_args({});
  }
  driver.templates.reserve(tenants.size());
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    std::array<orb::RequestMessage, kOpKindCount> per_tenant = base;
    const util::Bytes tag = util::to_bytes(tenants[t].qos_class);
    for (std::size_t op = 0; op < kOpKindCount; ++op) {
      // Classifier rule 1: the explicit class tag the client's agreement
      // bought (commands bypass classification; tagging them is harmless).
      per_tenant[op].context.set(sched::kClassContextKey, tag);
    }
    driver.templates.push_back(std::move(per_tenant));
  }

  // ---- population start: staggered by one think-time draw ----
  const std::vector<std::uint32_t> split =
      split_population(tenants, config.clients);
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    for (std::uint32_t i = 0; i < split[t]; ++i) {
      const sim::Duration stagger = tenants[t].think.sample(driver.rng);
      loop.schedule(stagger, [&driver, t] { driver.issue(t, true); });
    }
  }
  if (config.mmpp.enabled() && !tenants.empty()) {
    driver.schedule_open_loop();
  }

  // ---- run to the horizon, then let in-flight work settle ----
  loop.run_for(config.horizon);
  loop.run_until_idle();

  ShardResult result;
  result.shard = config.shard;
  result.classes = std::move(outcomes);
  result.sched = scheduler.stats();
  result.commands_ok = driver.commands_ok;
  result.commands_error = driver.commands_error;
  result.open_loop_sent = driver.open_loop_sent;
  if (config.trace_sample_every > 0) result.spans = recorder.spans();
  return result;
}

std::vector<sched::ClassConfig> default_classes() {
  sched::ClassConfig gold;
  gold.name = "gold";
  gold.weight = 8.0;
  gold.deadline_budget = 50 * sim::kMillisecond;
  gold.queue_limit = 256;
  sched::ClassConfig silver;
  silver.name = "silver";
  silver.weight = 3.0;
  silver.deadline_budget = 200 * sim::kMillisecond;
  silver.queue_limit = 512;
  sched::ClassConfig best_effort;
  best_effort.name = sched::kBestEffortClassName;
  best_effort.weight = 1.0;
  best_effort.deadline_budget = 500 * sim::kMillisecond;
  best_effort.queue_limit = 1024;
  return {gold, silver, best_effort};
}

std::vector<TenantSpec> default_tenants() {
  TenantSpec gold;
  gold.name = "interactive";
  gold.qos_class = "gold";
  gold.population_share = 0.15;
  gold.op_mix[0] = 0.50;  // add
  gold.op_mix[1] = 0.20;  // echo
  gold.op_mix[2] = 0.25;  // woven blob
  gold.op_mix[3] = 0.05;  // control-plane command
  gold.think.minimum = 2 * sim::kSecond;
  gold.think.cap = 60 * sim::kSecond;

  TenantSpec silver;
  silver.name = "dashboard";
  silver.qos_class = "silver";
  silver.population_share = 0.25;
  silver.op_mix[0] = 0.60;
  silver.op_mix[1] = 0.25;
  silver.op_mix[2] = 0.15;
  silver.op_mix[3] = 0.0;
  silver.think.minimum = 2 * sim::kSecond;
  silver.think.cap = 90 * sim::kSecond;

  TenantSpec bulk;
  bulk.name = "batch";
  bulk.qos_class = sched::kBestEffortClassName;
  bulk.population_share = 0.60;
  bulk.op_mix[0] = 0.70;
  bulk.op_mix[1] = 0.20;
  bulk.op_mix[2] = 0.10;
  bulk.op_mix[3] = 0.0;
  bulk.think.minimum = 2 * sim::kSecond;
  bulk.think.cap = 120 * sim::kSecond;

  return {gold, silver, bulk};
}

}  // namespace maqs::load
