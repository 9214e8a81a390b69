// CapabilityMatrix unit suite: the preference-lattice operations every
// negotiation and adaptation path leans on, plus the shared offer-review
// helper behind handle_negotiate/handle_renegotiate.
#include <gtest/gtest.h>

#include "core/capability.hpp"
#include "core/negotiation.hpp"
#include "core/provider.hpp"
#include "core/resource.hpp"

namespace maqs::core {
namespace {

cdr::Any S(const char* s) { return cdr::Any::from_string(s); }
cdr::Any L(std::int32_t v) { return cdr::Any::from_long(v); }
cdr::Any B(bool v) { return cdr::Any::from_bool(v); }

/// Three dimensions with distinct degradation priorities: the algorithm
/// drops first, the key size second, integrity last.
CapabilityMatrix make_matrix() {
  return CapabilityMatrix({
      DimensionDesc{"algorithm", {S("lz77"), S("rle"), S("none")}, 0},
      DimensionDesc{"key_bits", {L(128), L(64)}, 1},
      DimensionDesc{"integrity", {B(true), B(false)}, 2},
  });
}

TEST(CapabilityMatrixTest, ConstructionChoosesMostPreferredPoint) {
  const CapabilityMatrix matrix = make_matrix();
  EXPECT_FALSE(matrix.empty());
  EXPECT_EQ(matrix.version(), 0);
  EXPECT_EQ(matrix.rank_distance(), 0u);
  EXPECT_FALSE(matrix.at_floor());
  ASSERT_NE(matrix.find_value("algorithm"), nullptr);
  EXPECT_EQ(matrix.find_value("algorithm")->as_string(), "lz77");
  EXPECT_EQ(matrix.find_value("key_bits")->as_integer(), 128);
  EXPECT_TRUE(matrix.find_value("integrity")->as_bool());
  EXPECT_EQ(matrix.find_value("no-such-dimension"), nullptr);
  EXPECT_EQ(matrix.find_dimension("missing"), CapabilityMatrix::npos);
}

TEST(CapabilityMatrixTest, ChoosePinsRankedValuesOnly) {
  CapabilityMatrix matrix = make_matrix();
  EXPECT_TRUE(matrix.choose("algorithm", S("rle")));
  EXPECT_EQ(matrix.find_value("algorithm")->as_string(), "rle");
  EXPECT_EQ(matrix.rank_distance(), 1u);
  // Neither unknown values nor unknown dimensions are choosable.
  EXPECT_FALSE(matrix.choose("algorithm", S("zip")));
  EXPECT_FALSE(matrix.choose("cipher", S("rle")));
  EXPECT_EQ(matrix.find_value("algorithm")->as_string(), "rle");
}

TEST(CapabilityMatrixTest, RestrictToCutsPrefixButKeepsDegradationRoom) {
  CapabilityMatrix matrix = make_matrix();
  ASSERT_TRUE(matrix.restrict_to("algorithm", S("rle")));
  // The more-preferred prefix (lz77) is gone; rle is now the top...
  const std::size_t i = matrix.find_dimension("algorithm");
  ASSERT_NE(i, CapabilityMatrix::npos);
  ASSERT_EQ(matrix.dimensions()[i].ranked.size(), 2u);
  EXPECT_EQ(matrix.find_value("algorithm")->as_string(), "rle");
  EXPECT_EQ(matrix.rank_distance(), 0u);
  // ...and degradation below the restricted point still works.
  EXPECT_TRUE(matrix.degrade_dimension(i));
  EXPECT_EQ(matrix.find_value("algorithm")->as_string(), "none");
  EXPECT_FALSE(matrix.degrade_dimension(i));
}

TEST(CapabilityMatrixTest, DegradeStepWalksDimensionsByDegradeRank) {
  CapabilityMatrix matrix = make_matrix();
  // The algorithm (rank 0) floors first, then key_bits, then integrity.
  EXPECT_EQ(matrix.degrade_step(), "algorithm");  // lz77 -> rle
  EXPECT_EQ(matrix.degrade_step(), "algorithm");  // rle -> none
  EXPECT_EQ(matrix.degrade_step(), "key_bits");   // 128 -> 64
  EXPECT_EQ(matrix.degrade_step(), "integrity");  // true -> false
  EXPECT_TRUE(matrix.at_floor());
  EXPECT_EQ(matrix.degrade_step(), std::nullopt);
  EXPECT_EQ(matrix.rank_distance(), 4u);
}

TEST(CapabilityMatrixTest, ChosenParamsFlattenTheCurrentPoint) {
  CapabilityMatrix matrix = make_matrix();
  ASSERT_TRUE(matrix.choose("key_bits", L(64)));
  const std::map<std::string, cdr::Any> params = matrix.chosen_params();
  ASSERT_EQ(params.size(), 3u);
  EXPECT_EQ(params.at("algorithm").as_string(), "lz77");
  EXPECT_EQ(params.at("key_bits").as_integer(), 64);
  EXPECT_TRUE(params.at("integrity").as_bool());
}

TEST(CapabilityMatrixTest, SamePointComparesChosenValuesNotVersions) {
  CapabilityMatrix a = make_matrix();
  CapabilityMatrix b = make_matrix();
  b.set_version(5);
  EXPECT_TRUE(a.same_point(b));
  ASSERT_TRUE(b.choose("algorithm", S("none")));
  EXPECT_FALSE(a.same_point(b));
}

TEST(CapabilityMatrixTest, WireRoundTripPreservesLatticePointAndVersion) {
  CapabilityMatrix matrix = make_matrix();
  ASSERT_TRUE(matrix.choose("algorithm", S("rle")));
  matrix.set_version(7);

  const CapabilityMatrix decoded = CapabilityMatrix::from_any(matrix.to_any());
  EXPECT_EQ(decoded.version(), 7);
  ASSERT_EQ(decoded.dimensions().size(), 3u);
  EXPECT_TRUE(decoded.same_point(matrix));
  EXPECT_EQ(decoded.find_value("algorithm")->as_string(), "rle");
  // The lattice itself survives, not just the point: degradation order
  // and remaining room are intact on the decoded side.
  CapabilityMatrix walk = decoded;
  EXPECT_EQ(walk.degrade_step(), "algorithm");
  EXPECT_EQ(walk.find_value("algorithm")->as_string(), "none");
}

// ---- review_offer: the shared validation/admission helper ----

/// One dimension whose three points demand 50/20/5 bandwidth, plus a
/// scalar level param feeding the cpu demand.
CharacteristicProvider make_provider() {
  CharacteristicProvider provider;
  provider.descriptor = CharacteristicDescriptor(
      "test.capability", QosCategory::kBandwidth,
      {ParamDesc{"level", cdr::TypeCode::long_tc(), L(8), 1, 64}},
      {DimensionDesc{"algorithm", {S("heavy"), S("light"), S("off")}, 0}},
      {});
  provider.resource_demand =
      [](const std::map<std::string, cdr::Any>& params) {
        ResourceDemand demand;
        const std::string algorithm = params.at("algorithm").as_string();
        demand["bandwidth"] =
            algorithm == "heavy" ? 50.0 : algorithm == "light" ? 20.0 : 5.0;
        demand["cpu"] = static_cast<double>(params.at("level").as_integer());
        return demand;
      };
  return provider;
}

TEST(ReviewOfferTest, AcceptsAtOfferedPointAndKeepsDemandReserved) {
  const CharacteristicProvider provider = make_provider();
  ResourceManager resources;
  resources.declare("cpu", 100.0);
  resources.declare("bandwidth", 100.0);

  const OfferReview review =
      review_offer(provider, resources,
                   provider.descriptor.default_matrix(), {});
  EXPECT_EQ(review.kind, AdmissionDecision::Kind::kAccept);
  EXPECT_TRUE(review.reserved);
  EXPECT_EQ(review.flattened.at("algorithm").as_string(), "heavy");
  EXPECT_EQ(review.flattened.at("level").as_integer(), 8);  // default filled
  EXPECT_DOUBLE_EQ(review.demand.at("bandwidth"), 50.0);
  // An accept leaves the demand reserved for the drafted agreement.
  EXPECT_DOUBLE_EQ(resources.reserved("bandwidth"), 50.0);
  EXPECT_DOUBLE_EQ(resources.reserved("cpu"), 8.0);
}

TEST(ReviewOfferTest, CountersAtBestFeasiblePointWithoutHoldingResources) {
  const CharacteristicProvider provider = make_provider();
  ResourceManager resources;
  resources.declare("cpu", 100.0);
  resources.declare("bandwidth", 30.0);  // heavy (50) cannot fit

  const OfferReview review =
      review_offer(provider, resources,
                   provider.descriptor.default_matrix(), {});
  EXPECT_EQ(review.kind, AdmissionDecision::Kind::kCounter);
  EXPECT_FALSE(review.reserved);
  // Best feasible point in the offered lattice, one step down.
  EXPECT_EQ(review.matrix.find_value("algorithm")->as_string(), "light");
  EXPECT_EQ(review.flattened.at("algorithm").as_string(), "light");
  // Counters hold nothing until the client confirms.
  EXPECT_DOUBLE_EQ(resources.reserved("bandwidth"), 0.0);
  EXPECT_DOUBLE_EQ(resources.reserved("cpu"), 0.0);
}

TEST(ReviewOfferTest, RejectsDemandNamingUndeclaredResources) {
  const CharacteristicProvider provider = make_provider();
  ResourceManager resources;
  resources.declare("cpu", 100.0);  // no bandwidth budget declared

  const OfferReview review =
      review_offer(provider, resources,
                   provider.descriptor.default_matrix(), {});
  EXPECT_EQ(review.kind, AdmissionDecision::Kind::kReject);
  EXPECT_NE(review.reason.find("undeclared resource"), std::string::npos);
  EXPECT_FALSE(review.reserved);
}

}  // namespace
}  // namespace maqs::core
