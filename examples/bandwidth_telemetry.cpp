// Telemetry over a narrow link: Compression + Actuality stacked on one
// stub (multi-category QoS, the paper's core motivation).
//
// A field gateway polls a sensor archive over a 64 kbit/s uplink. The
// operator negotiates two characteristics on the same interface:
//   - Compression (bandwidth category) shrinks the bulk transfers,
//   - Actuality (actuality category) serves repeat reads from cache as
//     long as they are younger than the freshness bound.
// The example prints the virtual-time cost of each stage.
#include <iostream>

#include "characteristics/actuality.hpp"
#include "characteristics/compression.hpp"
#include "core/negotiation.hpp"
#include "core/stats.hpp"
#include "net/network.hpp"
#include "support/qos_echo_example.hpp"
#include "trace/trace.hpp"

using namespace maqs;

namespace {

util::Bytes sensor_archive(std::size_t n) {
  util::Bytes data;
  int frame = 0;
  while (data.size() < n) {
    const std::string record = "frame=" + std::to_string(frame++) +
                               " temp=21.5 rh=40.2 pm10=12 status=OK;";
    for (char c : record) data.push_back(static_cast<std::uint8_t>(c));
  }
  data.resize(n);
  return data;
}

}  // namespace

int main() {
  sim::EventLoop loop;
  net::Network network(loop);
  // The narrow uplink: 64 kbit/s, 40 ms one way.
  network.set_default_link(net::LinkParams{
      .latency = 40 * sim::kMillisecond, .bandwidth_bps = 64'000.0});

  orb::Orb sensor(network, "sensor", 9000);
  orb::Orb gateway(network, "gateway", 9001);
  // One recorder shared by both ends: client and server spans of each
  // request land in the same ring, joined by the propagated context.
  trace::TraceRecorder recorder(loop);
  recorder.set_enabled(true);
  sensor.set_trace_recorder(&recorder);
  gateway.set_trace_recorder(&recorder);
  // Bulk transfers over 64 kbit/s take seconds; raise the RPC timeout.
  gateway.set_default_timeout(120 * sim::kSecond);
  core::QosTransport sensor_transport(sensor);
  core::QosTransport gateway_transport(gateway);

  core::ProviderRegistry providers;
  providers.add(characteristics::make_compression_provider());
  providers.add(characteristics::make_actuality_provider());
  core::ResourceManager resources;
  resources.declare("cpu", 1000.0);
  resources.declare("bandwidth", 1000.0);
  core::NegotiationService negotiation(sensor_transport, providers,
                                       resources);
  core::Negotiator negotiator(gateway_transport, providers);

  auto servant = std::make_shared<examples::TelemetryImpl>();
  servant->archive = sensor_archive(60'000);
  orb::QosProfile compression_profile;
  compression_profile.characteristic = characteristics::compression_name();
  orb::QosProfile actuality_profile;
  actuality_profile.characteristic = characteristics::actuality_name();
  orb::ObjRef ref = sensor.adapter().activate(
      "telemetry", servant, {compression_profile, actuality_profile});

  examples::TelemetryStub stub(gateway, ref);

  // --- stage 1: plain fetch ---
  sim::TimePoint t0 = loop.now();
  stub.fetch_archive();
  std::cout << "plain fetch:        " << sim::to_millis(loop.now() - t0)
            << " ms over the 64 kbit/s link\n";

  // --- stage 2: negotiate actuality (caching) ---
  negotiator.negotiate(
      stub, characteristics::actuality_name(),
      {{"max_age_ms", cdr::Any::from_long(30000)},
       {"cacheable_ops", cdr::Any::from_string("fetch_archive,reading")}});
  stub.fetch_archive();  // fills the cache
  t0 = loop.now();
  for (int i = 0; i < 25; ++i) stub.fetch_archive();
  std::cout << "25 cached fetches:  " << sim::to_millis(loop.now() - t0)
            << " ms (Actuality cache, zero wire traffic)\n";

  // --- stage 3: stack compression on top for the cache misses ---
  negotiator.negotiate(stub, characteristics::compression_name(),
                       {{"level", cdr::Any::from_long(64)}});
  const auto composite =
      std::dynamic_pointer_cast<core::CompositeMediator>(stub.mediator());
  const auto actuality =
      std::dynamic_pointer_cast<characteristics::ActualityMediator>(
          composite->find(characteristics::actuality_name()));
  // Weaving a second characteristic re-versions the channel and rebinds
  // Actuality under its unchanged agreement, which keeps the entries.
  std::uint64_t hits_before = actuality->cache_hits();
  t0 = loop.now();
  stub.fetch_archive();
  if (actuality->cache_hits() <= hits_before) {
    std::cerr << "weaving Compression dropped the Actuality cache\n";
    return 1;
  }
  std::cout << "fetch w/ both QoS:  " << sim::to_millis(loop.now() - t0)
            << " ms (still served from cache)\n";

  // --- freshness bound honoured; refetch is now compressed ---
  loop.run_for(40 * sim::kSecond);  // cache entry ages out
  recorder.clear();  // keep only the refetch in the dump below
  t0 = loop.now();
  stub.fetch_archive();
  std::cout << "stale refetch:      " << sim::to_millis(loop.now() - t0)
            << " ms (bound exceeded; went to the wire, compressed)\n";

  std::cout << "mediator chain length on the stub: " << composite->size()
            << " (Compression + Actuality woven together)\n";

  // The unified counter view: one snapshot gathers the gateway ORB's
  // dispatch counters, its transport's routing decisions, the shared
  // network's byte counts and the recorder's sampling totals.
  std::cout << "\n--- gateway stats snapshot ---\n"
            << core::collect_stats(gateway, &gateway_transport).to_string();

  // Where did the stale refetch spend its time? The last trace in the
  // ring shows the woven path stage by stage.
  std::cout << "\n--- last trace (stale refetch) ---\n";
  recorder.dump_tree(std::cout);

  // The compressed refetch refilled the cache: the next read is local and
  // returns the archive intact, whatever order the two were negotiated in.
  hits_before = actuality->cache_hits();
  t0 = loop.now();
  const util::Bytes refetched = stub.fetch_archive();
  if (actuality->cache_hits() <= hits_before ||
      refetched != servant->archive) {
    std::cerr << "stacked cache missed or corrupted the archive\n";
    return 1;
  }
  std::cout << "\nfetch after refill: " << sim::to_millis(loop.now() - t0)
            << " ms (served from cache, archive intact)\n";
  return 0;
}
