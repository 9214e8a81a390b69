// The infrastructure services of §2.2 and the outlook of §6 in one
// scenario, assembled from mechanisms the framework already has:
//
//   1. trading: two providers register their QoS-enabled offers with the
//      naming directory on the market host, under the name of the
//      characteristic their interface carries
//   2. discovery: a client looks the characteristic up and gets one
//      candidate per provider
//   3. preferences: the client walks its preference list (gold, then
//      silver) against every candidate with bounded negotiation, so a
//      counter-offer outside a level's bounds falls through to the next
//      level ("client preferences have to be incorporated in the
//      negotiation process", paper §6), and keeps the best offer
//   4. accounting: usage under the chosen agreement is metered and priced
//   5. the catalog (§6): one line per characteristic the registry knows
//
// Tariffs and preference orders are application policy, so they live in
// the application. Exits 0 only when every step came out as described.
#include <algorithm>
#include <iostream>

#include "characteristics/compression.hpp"
#include "core/negotiation.hpp"
#include "naming/directory.hpp"
#include "naming/directory_client.hpp"
#include "net/network.hpp"
#include "support/qos_echo_example.hpp"

using namespace maqs;

namespace {

struct Provider {
  std::unique_ptr<orb::Orb> orb;
  std::unique_ptr<core::QosTransport> transport;
  std::unique_ptr<core::ResourceManager> resources;
  std::unique_ptr<core::NegotiationService> negotiation;
  orb::ObjRef ref;
};

Provider make_provider(net::Network& network, const std::string& host,
                       double cpu_capacity,
                       const core::ProviderRegistry& providers) {
  Provider p;
  p.orb = std::make_unique<orb::Orb>(network, host, 9000);
  p.transport = std::make_unique<core::QosTransport>(*p.orb);
  p.resources = std::make_unique<core::ResourceManager>();
  p.resources->declare("cpu", cpu_capacity);
  p.resources->declare("bandwidth", 1000.0);
  p.negotiation = std::make_unique<core::NegotiationService>(
      *p.transport, providers, *p.resources);
  auto servant = std::make_shared<examples::TelemetryImpl>();
  servant->archive.assign(20'000, 0x51);
  orb::QosProfile profile;
  profile.characteristic = characteristics::compression_name();
  p.ref = p.orb->adapter().activate("feed", servant, {profile});
  return p;
}

/// One level of the client's preference list, most preferred first.
struct PreferenceLevel {
  std::string label;
  std::int32_t level = 0;  // proposed compression level
  /// Counter-offers outside these bounds are refused.
  core::ClientPreferences bounds;
};

/// A provider's offer: the first level of the list it admitted.
struct Offer {
  std::string provider;
  std::size_t rank = 0;  // index into the preference list
  core::Agreement agreement;
  std::unique_ptr<examples::TelemetryStub> stub;
};

}  // namespace

int main() {
  sim::EventLoop loop;
  net::Network network(loop);
  core::ProviderRegistry providers;
  providers.add(characteristics::make_compression_provider());
  const std::string& characteristic = characteristics::compression_name();

  // --- the marketplace: a naming directory on its own host ---
  orb::Orb market(network, "market", 7000);
  market.adapter().activate(naming::directory_object_key(),
                            std::make_shared<naming::ServiceDirectory>(loop));

  // --- two providers with different capacity register their offers ---
  // The service name is the characteristic. Equal epochs keep
  // registration order in the lookup, so provider-big comes first.
  Provider big = make_provider(network, "provider-big", 200.0, providers);
  Provider small = make_provider(network, "provider-small", 20.0, providers);
  for (const Provider* p : {&big, &small}) {
    naming::DirectoryClient(*p->orb, market.endpoint())
        .register_member(characteristic, p->ref.repo_id,
                         {p->ref.endpoint, p->ref.object_key}, 0.0, 0);
  }
  std::cout << "market: 2 offers registered\n";

  // --- the client discovers candidates by characteristic ---
  orb::Orb client(network, "client", 5000);
  core::QosTransport client_transport(client);
  core::Negotiator negotiator(client_transport, providers);
  std::vector<orb::ObjRef> candidates;
  const auto view =
      naming::DirectoryClient(client, market.endpoint()).lookup(characteristic);
  for (std::size_t i = 0; view && i < view->ref.profile_count(); ++i) {
    // The directory carries no QoS tags; the characteristic is the
    // service name, so each candidate gets it back.
    const orb::AltProfile profile = view->ref.profile(i);
    candidates.push_back(orb::ObjRef{.repo_id = view->ref.repo_id,
                                     .endpoint = profile.endpoint,
                                     .object_key = profile.object_key,
                                     .qos = {{characteristic, {}}},
                                     .alternates = {}});
  }
  std::cout << "client: directory returned " << candidates.size()
            << " candidates for " << characteristic << "\n";

  // Gold wants a heavy level and only lz77: a provider that can afford
  // the level only with a cheaper algorithm falls through to silver.
  PreferenceLevel gold{"gold", 128, {}};
  gold.bounds.bounds["level"] = {.min = 100, .max = std::nullopt};
  gold.bounds.allowed["algorithm"] = {cdr::Any::from_string("lz77")};
  PreferenceLevel silver{"silver", 16, {}};
  silver.bounds.bounds["level"] = {.min = 8, .max = std::nullopt};
  const std::vector<PreferenceLevel> preferences = {gold, silver};

  // --- each provider's offer is the first level it admits ---
  std::vector<Offer> offers;
  for (const orb::ObjRef& candidate : candidates) {
    auto stub = std::make_unique<examples::TelemetryStub>(client, candidate);
    const std::string& node = candidate.endpoint.node;
    for (std::size_t rank = 0; rank < preferences.size(); ++rank) {
      const PreferenceLevel& level = preferences[rank];
      try {
        core::Agreement agreement = negotiator.negotiate(
            *stub, characteristic,
            {{"level", cdr::Any::from_long(level.level)}}, &level.bounds);
        std::cout << "client: " << node << " admits '" << level.label
                  << "' (level " << agreement.int_param("level") << ")\n";
        offers.push_back({node, rank, std::move(agreement), std::move(stub)});
        break;
      } catch (const core::NegotiationFailed&) {
      }
    }
    // An admitted level took the stub along with the offer.
    if (stub) std::cout << "client: " << node << " rejected every level\n";
  }
  if (offers.empty()) {
    std::cerr << "marketplace: no provider admitted any level\n";
    return 1;
  }

  // --- keep the best offer, release the rest ---
  const auto best = std::min_element(
      offers.begin(), offers.end(),
      [](const Offer& a, const Offer& b) { return a.rank < b.rank; });
  for (const Offer& offer : offers) {
    if (&offer != &*best) negotiator.terminate(*offer.stub, offer.agreement);
  }
  std::cout << "client: selected '" << preferences[best->rank].label
            << "' (level " << best->agreement.int_param("level") << ", "
            << best->agreement.string_param("algorithm") << ")\n";

  // --- metered usage under the chosen agreement ---
  // Tariff: 0.01 credits per level-second under agreement plus 2 credits
  // per MiB delivered.
  const sim::TimePoint opened = loop.now();
  std::uint64_t requests = 0;
  std::uint64_t bytes = 0;
  for (int i = 0; i < 20; ++i) {
    bytes += best->stub->fetch_archive().size();
    ++requests;
    loop.run_for(100 * sim::kMillisecond);
  }
  const double level_seconds =
      static_cast<double>(best->agreement.int_param("level")) *
      sim::to_seconds(loop.now() - opened);
  const double mebibytes = static_cast<double>(bytes) / (1024.0 * 1024.0);
  std::cout << "accounting: " << requests << " requests, " << bytes
            << " bytes, invoice " << 0.01 * level_seconds + 2.0 * mebibytes
            << " credits\n";

  // --- the catalog (paper §6) ---
  const core::CharacteristicCatalog catalog = providers.catalog();
  for (const std::string& name : catalog.names()) {
    const core::CharacteristicDescriptor& entry = catalog.get(name);
    std::cout << "catalog: " << name << " ("
              << core::qos_category_name(entry.category()) << "): "
              << entry.params().size() << " params, "
              << entry.dimensions().size() << " dimensions, "
              << entry.operations().size() << " QoS operations\n";
  }

  const auto admitted = [&](const std::string& node, std::size_t rank) {
    return std::any_of(offers.begin(), offers.end(), [&](const Offer& o) {
      return o.provider == node && o.rank == rank;
    });
  };
  const bool held = candidates.size() == 2 && admitted("provider-big", 0) &&
                    admitted("provider-small", 1) && best->rank == 0 &&
                    requests == 20 && bytes == 400'000;
  if (!held) {
    std::cerr << "marketplace: expected 2 candidates, provider-big at gold, "
                 "provider-small at silver, gold selected and 20 requests / "
                 "400000 bytes metered\n";
  }
  return held ? 0 : 1;
}
