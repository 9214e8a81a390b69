// Capability-matrix protocol properties:
//   1. counter-offer convergence: against a fixed-capacity server, the
//      offer/counter/accept loop settles within dimensions+1 rounds for
//      random preference lattices and random budgets,
//   2. lattice-degradation monotonicity: no degradation step of the real
//      characteristics increases any resource cost, and the resource-aware
//      lattice policy strictly relieves the violated budget,
//   3. version rollback: a failed server-side rebind restores the exact
//      prior matrix, params, and version, and the next renegotiation
//      against that version succeeds.
#include <gtest/gtest.h>

#include "characteristics/compression.hpp"
#include "characteristics/encryption.hpp"
#include "core/adaptation.hpp"
#include "core/negotiation.hpp"
#include "net/network.hpp"
#include "support/qos_echo.hpp"
#include "util/rng.hpp"

namespace maqs::core {
namespace {

using maqs::testing::EchoStub;
using maqs::testing::QosEchoImpl;

// ---- 1. counter-offer convergence ----

/// Random lattice whose dimension values ARE their own cost: ranked longs,
/// strictly decreasing, so every degradation step is cheaper and the
/// summed demand is monotone by construction.
CharacteristicProvider random_provider(util::Rng& rng) {
  const std::size_t dims = 1 + rng.next() % 4;
  std::vector<DimensionDesc> dimensions;
  for (std::size_t d = 0; d < dims; ++d) {
    const std::size_t depth = 2 + rng.next() % 4;
    std::vector<cdr::Any> ranked;
    std::int64_t cost = 1 + static_cast<std::int64_t>(rng.next() % 20);
    for (std::size_t r = 0; r < depth; ++r) {
      ranked.push_back(cdr::Any::from_longlong(cost));
      cost += 1 + static_cast<std::int64_t>(rng.next() % 20);
    }
    std::reverse(ranked.begin(), ranked.end());  // best (priciest) first
    dimensions.push_back(DimensionDesc{"dim" + std::to_string(d),
                                       std::move(ranked),
                                       static_cast<int>(rng.next() % 3)});
  }
  CharacteristicProvider provider;
  provider.descriptor = CharacteristicDescriptor(
      "prop.random", QosCategory::kOther, {}, std::move(dimensions), {});
  provider.resource_demand =
      [](const std::map<std::string, cdr::Any>& params) {
        ResourceDemand demand;
        double total = 0.0;
        for (const auto& [_, value] : params) {
          total += static_cast<double>(value.as_integer());
        }
        demand["capacity"] = total;
        return demand;
      };
  return provider;
}

TEST(CapabilityPropertyTest, CounterOfferLoopConvergesWithinDimsPlusOne) {
  util::Rng rng(0xC0FFEE);
  for (int iteration = 0; iteration < 200; ++iteration) {
    const CharacteristicProvider provider = random_provider(rng);
    const std::size_t dims = provider.descriptor.dimensions().size();

    // Random budget between "nothing fits" and "everything fits".
    double max_total = 0.0;
    for (const DimensionDesc& dim : provider.descriptor.dimensions()) {
      max_total += static_cast<double>(dim.ranked.front().as_integer());
    }
    ResourceManager resources;
    resources.declare("capacity",
                      rng.next_double() * (max_total + 10.0));

    // Client model: offer at a random restricted point, confirm whatever
    // the server counters (no preference bounds).
    CapabilityMatrix offer = provider.descriptor.default_matrix();
    for (const DimensionDesc& dim : provider.descriptor.dimensions()) {
      const cdr::Any& start = dim.ranked[rng.next() % dim.ranked.size()];
      ASSERT_TRUE(offer.restrict_to(dim.name, start));
    }

    int rounds = 0;
    bool settled = false;
    while (!settled && rounds <= static_cast<int>(dims) + 1) {
      ++rounds;
      const OfferReview review =
          review_offer(provider, resources, offer, {});
      switch (review.kind) {
        case AdmissionDecision::Kind::kAccept:
          // Accepted demand is reserved and within budget.
          EXPECT_TRUE(review.reserved);
          EXPECT_LE(resources.reserved("capacity"),
                    resources.capacity("capacity"));
          settled = true;
          break;
        case AdmissionDecision::Kind::kReject:
          settled = true;
          break;
        case AdmissionDecision::Kind::kCounter: {
          // Counters never hold resources and are strictly lower in the
          // lattice than the client's offer.
          EXPECT_DOUBLE_EQ(resources.reserved("capacity"), 0.0);
          EXPECT_GT(review.matrix.rank_distance(), offer.rank_distance());
          offer = review.matrix;
          break;
        }
      }
    }
    ASSERT_TRUE(settled) << "no convergence within dims+1 = " << dims + 1
                         << " rounds (iteration " << iteration << ")";
  }
}

// ---- 2. lattice-degradation monotonicity ----

/// Every point of the descriptor's lattice, by chosen-index enumeration.
std::vector<CapabilityMatrix> all_points(
    const CharacteristicDescriptor& descriptor) {
  std::vector<CapabilityMatrix> points{descriptor.default_matrix()};
  for (std::size_t d = 0; d < descriptor.dimensions().size(); ++d) {
    std::vector<CapabilityMatrix> expanded;
    for (const CapabilityMatrix& base : points) {
      for (const cdr::Any& value : descriptor.dimensions()[d].ranked) {
        CapabilityMatrix point = base;
        EXPECT_TRUE(point.choose(descriptor.dimensions()[d].name, value));
        expanded.push_back(std::move(point));
      }
    }
    points = std::move(expanded);
  }
  return points;
}

void expect_no_cost_increase(const CharacteristicProvider& provider,
                             const std::map<std::string, cdr::Any>& scalars) {
  for (const CapabilityMatrix& point :
       all_points(provider.descriptor)) {
    std::map<std::string, cdr::Any> before_params = scalars;
    for (const auto& [name, value] : point.chosen_params()) {
      before_params[name] = value;
    }
    const ResourceDemand before = provider.resource_demand(before_params);
    for (std::size_t d = 0; d < point.dimensions().size(); ++d) {
      CapabilityMatrix stepped = point;
      if (!stepped.degrade_dimension(d)) continue;
      std::map<std::string, cdr::Any> after_params = scalars;
      for (const auto& [name, value] : stepped.chosen_params()) {
        after_params[name] = value;
      }
      const ResourceDemand after = provider.resource_demand(after_params);
      for (const auto& [resource, cost] : after) {
        const auto it = before.find(resource);
        ASSERT_NE(it, before.end());
        EXPECT_LE(cost, it->second)
            << provider.descriptor.name() << ": degrading dimension "
            << point.dimensions()[d].name << " raised " << resource;
      }
    }
  }
}

TEST(CapabilityPropertyTest, DegradationNeverIncreasesAnyResourceCost) {
  expect_no_cost_increase(
      characteristics::make_compression_provider(),
      {{"level", cdr::Any::from_long(32)},
       {"min_size", cdr::Any::from_long(64)}});
  expect_no_cost_increase(characteristics::make_encryption_psk_provider(),
                          {{"psk", cdr::Any::from_string("prop")}});
}

TEST(CapabilityPropertyTest, LatticePolicyStrictlyRelievesViolatedResource) {
  ProviderRegistry providers;
  providers.add(characteristics::make_compression_provider());
  const AdaptationManager::Policy policy = make_lattice_policy(providers);
  const CharacteristicProvider& provider =
      providers.get(characteristics::compression_name());

  for (const CapabilityMatrix& point : all_points(provider.descriptor)) {
    Agreement agreement;
    agreement.characteristic = characteristics::compression_name();
    agreement.matrix = point;
    agreement.params = {{"level", cdr::Any::from_long(32)},
                        {"min_size", cdr::Any::from_long(64)}};
    for (const auto& [name, value] : point.chosen_params()) {
      agreement.params[name] = value;
    }
    const ResourceDemand before =
        provider.resource_demand(agreement.params);

    const auto proposal =
        policy(agreement, "resource overload: bandwidth");
    if (point.at_floor()) {
      EXPECT_FALSE(proposal.has_value());  // nothing left: terminate
      continue;
    }
    ASSERT_TRUE(proposal.has_value());
    std::map<std::string, cdr::Any> after_params = agreement.params;
    for (const auto& [name, value] : *proposal) after_params[name] = value;
    const ResourceDemand after = provider.resource_demand(after_params);
    // The step strictly relieves the violated budget and raises nothing.
    EXPECT_LT(after.at("bandwidth"), before.at("bandwidth"));
    for (const auto& [resource, cost] : after) {
      EXPECT_LE(cost, before.at(resource));
    }
  }
}

// ---- 3. version rollback ----

const std::string& rollback_name() {
  static const std::string kName = "prop.rollback";
  return kName;
}

/// Server delegate that refuses to rebind when the agreement carries
/// poison=true — the hook the rollback property needs to force a rebind
/// failure mid-renegotiation.
class PoisonImpl final : public QosImpl {
 public:
  PoisonImpl() : QosImpl(rollback_name()) {}
  void bind_agreement(const Agreement& agreement) override {
    if (agreement.bool_param_or("poison", false)) {
      throw QosError("prop.rollback: poisoned rebind");
    }
    QosImpl::bind_agreement(agreement);
  }
};

CharacteristicProvider make_rollback_provider() {
  CharacteristicProvider provider;
  provider.descriptor = CharacteristicDescriptor(
      rollback_name(), QosCategory::kOther,
      {ParamDesc{"poison", cdr::TypeCode::boolean_tc(),
                 cdr::Any::from_bool(false), std::nullopt, std::nullopt}},
      {DimensionDesc{"mode",
                     {cdr::Any::from_string("full"),
                      cdr::Any::from_string("lite"),
                      cdr::Any::from_string("off")},
                     0}},
      {});
  provider.make_impl = [](const Agreement&, orb::Orb&, QosTransport&) {
    return std::make_shared<PoisonImpl>();
  };
  return provider;
}

TEST(CapabilityPropertyTest, FailedRebindRollsBackToExactPriorMatrix) {
  sim::EventLoop loop;
  net::Network net(loop);
  orb::Orb server(net, "server", 9000);
  orb::Orb client(net, "client", 9001);
  QosTransport server_transport(server);
  QosTransport client_transport(client);
  ResourceManager resources;
  ProviderRegistry providers;
  providers.add(make_rollback_provider());
  NegotiationService negotiation(server_transport, providers, resources);
  Negotiator negotiator(client_transport, providers);

  auto servant = std::make_shared<QosEchoImpl>();
  servant->assign_characteristic(make_rollback_provider().descriptor);
  orb::QosProfile profile;
  profile.characteristic = rollback_name();
  const orb::ObjRef ref =
      server.adapter().activate("rollback-1", servant, {profile});
  EchoStub stub(client, ref);

  const Agreement agreement =
      negotiator.negotiate(stub, rollback_name(), {});
  EXPECT_EQ(agreement.version(), 1);
  EXPECT_EQ(agreement.string_param("mode"), "full");
  const Agreement* server_side = negotiation.agreements().find(agreement.id);
  ASSERT_NE(server_side, nullptr);
  const CapabilityMatrix before = server_side->matrix;
  const std::map<std::string, cdr::Any> before_params = server_side->params;

  // Poisoned renegotiation: the server accepts the offer, bumps the
  // draft, then the rebind throws — everything must roll back.
  EXPECT_THROW(
      negotiator.renegotiate(stub, agreement,
                             {{"mode", cdr::Any::from_string("lite")},
                              {"poison", cdr::Any::from_bool(true)}}),
      NegotiationFailed);
  server_side = negotiation.agreements().find(agreement.id);
  ASSERT_NE(server_side, nullptr);
  EXPECT_EQ(server_side->version(), 1);  // exact prior version
  EXPECT_TRUE(server_side->matrix.same_point(before));
  EXPECT_EQ(server_side->string_param("mode"), "full");
  EXPECT_FALSE(server_side->bool_param_or("poison", false));
  EXPECT_EQ(server_side->params.size(), before_params.size());
  EXPECT_EQ(server_side->state, AgreementState::kActive);

  // The restored generation is fully functional: a clean renegotiation
  // against the rolled-back version succeeds and increments it by one.
  const Agreement updated = negotiator.renegotiate(
      stub, agreement, {{"mode", cdr::Any::from_string("lite")}});
  EXPECT_EQ(updated.version(), 2);
  EXPECT_EQ(updated.string_param("mode"), "lite");
}

}  // namespace
}  // namespace maqs::core
