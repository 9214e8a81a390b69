// E2 — performance through load balancing (paper §6).
//
// Workload: 8 concurrent clients fire 50 requests each (16 KiB replies)
// at a pool of workers; one worker is degraded (slow link + synthetic
// load). Clients run asynchronously so requests genuinely contend on the
// worker links (bandwidth serialization = queueing).
//
// Each client ORB runs one naming::ReplicaSelector, the picker the
// LoadBalancing characteristic binds onto. The async sends bypass the
// client chain, so every request goes to
// group.profile(selector.select(group)). Least-loaded is fed by the
// characteristic's qos_load: every 8 of its own calls a client polls every
// worker and passes the figures to ReplicaSelector::update_loads.
//
// Reports per (workers, policy): makespan, mean and p99 latency. Exits 1
// unless, at every pool size, least-loaded's p99 is below round-robin's
// (only least-loaded steers around the degraded worker) and round-robin's
// makespan falls as the pool grows.
#include <numeric>

#include "bench/support.hpp"
#include "characteristics/loadbalancing.hpp"
#include "naming/selector.hpp"

using namespace maqs;
using namespace maqs::bench;

namespace {

struct Result {
  double makespan_ms;
  double mean_ms;
  double p99_ms;
};

constexpr int kPollInterval = 8;

Result run(int workers, naming::SelectPolicy policy) {
  sim::EventLoop loop;
  net::Network network(loop, 99);
  network.set_default_link(net::LinkParams{
      .latency = 1 * sim::kMillisecond, .bandwidth_bps = 50e6});

  // Worker pool; worker 0 degraded.
  std::vector<std::unique_ptr<orb::Orb>> worker_orbs;
  std::vector<orb::ObjRef> refs;
  std::vector<std::shared_ptr<characteristics::LoadReportingImpl>> reporting;
  for (int i = 0; i < workers; ++i) {
    auto orb = std::make_unique<orb::Orb>(network, "w" + std::to_string(i),
                                          9000);
    auto servant = std::make_shared<maqs::testing::QosEchoImpl>();
    servant->assign_characteristic(
        characteristics::loadbalancing_descriptor());
    auto impl = std::make_shared<characteristics::LoadReportingImpl>();
    servant->set_active_impl(impl);
    refs.push_back(orb->adapter().activate("worker", servant));
    reporting.push_back(impl);
    worker_orbs.push_back(std::move(orb));
  }
  // Degrade worker 0: slow links from every client + standing load.
  reporting[0]->add_synthetic_load(50.0);

  // The pool as one replica group: worker 0 primary, the rest alternates.
  orb::ObjRef group = refs[0];
  for (std::size_t i = 1; i < refs.size(); ++i) {
    group.alternates.push_back(
        orb::AltProfile{refs[i].endpoint, refs[i].object_key});
  }

  const int kClients = 8;
  const int kRequestsPerClient = 50;
  const util::Bytes reply_payload = payload(16 * 1024, 0.0);

  std::vector<std::unique_ptr<orb::Orb>> client_orbs;
  std::vector<std::unique_ptr<naming::ReplicaSelector>> selectors;
  for (int c = 0; c < kClients; ++c) {
    auto orb = std::make_unique<orb::Orb>(network, "c" + std::to_string(c),
                                          1);
    orb->set_default_timeout(60 * sim::kSecond);
    network.set_link("c" + std::to_string(c), "w0",
                     net::LinkParams{.latency = 1 * sim::kMillisecond,
                                     .bandwidth_bps = 4e6});  // degraded
    selectors.push_back(std::make_unique<naming::ReplicaSelector>(
        *orb, naming::SelectorConfig{.policy = policy}));
    client_orbs.push_back(std::move(orb));
  }

  // qos_load from every worker, in profile order.
  auto poll_loads = [&](orb::Orb& orb) {
    std::vector<double> loads;
    for (const orb::ObjRef& ref : refs) {
      orb::RequestMessage probe;
      probe.object_key = ref.object_key;
      probe.operation = "qos_load";
      orb::ReplyMessage rep = orb.invoke_plain(ref.endpoint, std::move(probe));
      cdr::Decoder dec(rep.body);
      loads.push_back(dec.read_f64());
    }
    return loads;
  };

  std::vector<double> latencies;

  // Closed-loop clients: each issues its next request when the previous
  // one completes (callback chaining keeps the 8 clients concurrent).
  std::function<void(int, int)> issue = [&](int client, int remaining) {
    if (remaining == 0) return;
    orb::Orb& orb = *client_orbs[static_cast<std::size_t>(client)];
    naming::ReplicaSelector& selector =
        *selectors[static_cast<std::size_t>(client)];
    if (policy == naming::SelectPolicy::kLeastLoaded &&
        (kRequestsPerClient - remaining) % kPollInterval == 0) {
      selector.update_loads(group.object_key, poll_loads(orb));
    }
    const orb::AltProfile target = group.profile(selector.select(group));
    orb::RequestMessage req;
    req.operation = "blob";
    req.object_key = target.object_key;
    cdr::Encoder args;
    args.write_bytes(reply_payload);
    req.body = args.take();
    const sim::TimePoint t0 = loop.now();
    orb.send_request(target.endpoint, std::move(req),
                     [&, client, remaining, t0](const orb::ReplyMessage&) {
                       latencies.push_back(sim::to_millis(loop.now() - t0));
                       issue(client, remaining - 1);
                     });
  };
  for (int c = 0; c < kClients; ++c) issue(c, kRequestsPerClient);
  loop.run_until_idle();

  std::sort(latencies.begin(), latencies.end());
  Result result;
  result.makespan_ms = sim::to_millis(loop.now());
  result.mean_ms =
      std::accumulate(latencies.begin(), latencies.end(), 0.0) /
      static_cast<double>(latencies.size());
  result.p99_ms = latencies[static_cast<std::size_t>(
      static_cast<double>(latencies.size() - 1) * 0.99)];
  return result;
}

}  // namespace

int main() {
  header("E2: load balancing — 8 clients, 16 KiB replies, worker 0 degraded");
  std::printf("%8s %13s | %12s %10s %10s\n", "workers", "policy",
              "makespan ms", "mean ms", "p99 ms");
  row_rule();
  bool ok = true;
  double previous_rr_makespan = 0;
  for (int workers : {2, 4, 8}) {
    const Result rr = run(workers, naming::SelectPolicy::kRoundRobin);
    const Result ll = run(workers, naming::SelectPolicy::kLeastLoaded);
    std::printf("%8d %13s | %12.1f %10.2f %10.2f\n", workers, "round-robin",
                rr.makespan_ms, rr.mean_ms, rr.p99_ms);
    std::printf("%8d %13s | %12.1f %10.2f %10.2f\n", workers, "least-loaded",
                ll.makespan_ms, ll.mean_ms, ll.p99_ms);
    row_rule();
    ok = ok && ll.p99_ms < rr.p99_ms;
    ok = ok && (previous_rr_makespan == 0 ||
                rr.makespan_ms < previous_rr_makespan);
    previous_rr_makespan = rr.makespan_ms;
  }
  std::printf(
      "shape check: least-loaded avoids the degraded worker and wins the\n"
      "tail at every pool size; round-robin's makespan falls as workers\n"
      "are added. Least-loaded's makespan grows instead: each client's\n"
      "blocking qos_load poll visits every worker every %d calls.\n"
      "%s\n",
      kPollInterval, ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
