// Actuality characteristic: freshness-bounded caching, server timestamps,
// write invalidation, traffic savings.
#include "characteristics/actuality.hpp"

#include <gtest/gtest.h>

#include "characteristics/compression.hpp"
#include "characteristics/encryption.hpp"
#include "core/negotiation.hpp"
#include "net/network.hpp"
#include "support/qos_echo.hpp"

namespace maqs::characteristics {
namespace {

using maqs::testing::EchoStub;
using maqs::testing::QosEchoImpl;

class ActualityTest : public ::testing::Test {
 protected:
  ActualityTest()
      : net_(loop_),
        server_(net_, "server", 9000),
        client_(net_, "client", 9001),
        server_transport_(server_),
        client_transport_(client_) {
    servant_ = std::make_shared<QosEchoImpl>();
    servant_->assign_characteristic(actuality_descriptor());
    orb::QosProfile profile;
    profile.characteristic = actuality_name();
    ref_ = server_.adapter().activate("echo-1", servant_, {profile});
    resources_.declare("cpu", 100.0);
  }

  /// Negotiates Actuality with `value` cacheable and the given bound.
  std::pair<EchoStub, std::shared_ptr<ActualityMediator>> make_cached_stub(
      core::Negotiator& negotiator, std::int32_t max_age_ms) {
    EchoStub stub(client_, ref_);
    negotiator.negotiate(
        stub, actuality_name(),
        {{"max_age_ms", cdr::Any::from_long(max_age_ms)},
         {"cacheable_ops", cdr::Any::from_string("value,echo,blob")}});
    auto composite =
        std::dynamic_pointer_cast<core::CompositeMediator>(stub.mediator());
    auto mediator = std::dynamic_pointer_cast<ActualityMediator>(
        composite->find(actuality_name()));
    return {stub, mediator};
  }

  sim::EventLoop loop_;
  net::Network net_;
  orb::Orb server_;
  orb::Orb client_;
  core::QosTransport server_transport_;
  core::QosTransport client_transport_;
  core::ResourceManager resources_;
  std::shared_ptr<QosEchoImpl> servant_;
  orb::ObjRef ref_;
};

TEST_F(ActualityTest, FreshReadsServedFromCache) {
  core::ProviderRegistry providers;
  providers.add(make_actuality_provider());
  core::NegotiationService negotiation(server_transport_, providers,
                                       resources_);
  core::Negotiator negotiator(client_transport_, providers);
  auto [stub, mediator] = make_cached_stub(negotiator, 1000);

  stub.set_value(42);
  EXPECT_EQ(stub.value(), 42);  // miss, fills cache
  const int calls_after_fill = servant_->calls;
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(stub.value(), 42);  // hits
  }
  EXPECT_EQ(servant_->calls, calls_after_fill);  // server untouched
  EXPECT_EQ(mediator->cache_hits(), 10u);
}

TEST_F(ActualityTest, StaleEntriesRefetchedAfterBound) {
  core::ProviderRegistry providers;
  providers.add(make_actuality_provider());
  core::NegotiationService negotiation(server_transport_, providers,
                                       resources_);
  core::Negotiator negotiator(client_transport_, providers);
  auto [stub, mediator] = make_cached_stub(negotiator, 100);

  stub.set_value(1);
  EXPECT_EQ(stub.value(), 1);
  const int calls_after_fill = servant_->calls;
  loop_.run_for(50 * sim::kMillisecond);
  EXPECT_EQ(stub.value(), 1);  // still fresh
  EXPECT_EQ(servant_->calls, calls_after_fill);
  loop_.run_for(200 * sim::kMillisecond);
  EXPECT_EQ(stub.value(), 1);  // stale -> refetch
  EXPECT_GT(servant_->calls, calls_after_fill);
}

TEST_F(ActualityTest, StalenessNeverExceedsBound) {
  core::ProviderRegistry providers;
  providers.add(make_actuality_provider());
  core::NegotiationService negotiation(server_transport_, providers,
                                       resources_);
  core::Negotiator negotiator(client_transport_, providers);
  const std::int32_t bound_ms = 80;
  auto [stub, mediator] = make_cached_stub(negotiator, bound_ms);
  stub.value();
  for (int i = 0; i < 50; ++i) {
    loop_.run_for(13 * sim::kMillisecond);
    stub.value();
    EXPECT_LE(mediator->last_staleness(), bound_ms * sim::kMillisecond);
  }
}

TEST_F(ActualityTest, WritesInvalidateCache) {
  core::ProviderRegistry providers;
  providers.add(make_actuality_provider());
  core::NegotiationService negotiation(server_transport_, providers,
                                       resources_);
  core::Negotiator negotiator(client_transport_, providers);
  auto [stub, mediator] = make_cached_stub(negotiator, 10000);

  stub.set_value(1);
  EXPECT_EQ(stub.value(), 1);
  stub.set_value(2);  // write through the same stub invalidates
  EXPECT_EQ(stub.value(), 2);  // must NOT serve the cached 1
}

TEST_F(ActualityTest, DistinctArgumentsCachedSeparately) {
  core::ProviderRegistry providers;
  providers.add(make_actuality_provider());
  core::NegotiationService negotiation(server_transport_, providers,
                                       resources_);
  core::Negotiator negotiator(client_transport_, providers);
  auto [stub, mediator] = make_cached_stub(negotiator, 10000);

  EXPECT_EQ(stub.echo("a"), "a");
  EXPECT_EQ(stub.echo("b"), "b");
  const int calls = servant_->calls;
  EXPECT_EQ(stub.echo("a"), "a");  // hit
  EXPECT_EQ(stub.echo("b"), "b");  // hit
  EXPECT_EQ(servant_->calls, calls);
  EXPECT_EQ(mediator->cache_misses(), 2u);
  EXPECT_EQ(mediator->cache_hits(), 2u);
}

TEST_F(ActualityTest, ServerTimestampsStampedByEpilog) {
  core::ProviderRegistry providers;
  providers.add(make_actuality_provider());
  core::NegotiationService negotiation(server_transport_, providers,
                                       resources_);
  core::Negotiator negotiator(client_transport_, providers);
  auto [stub, mediator] = make_cached_stub(negotiator, 1000);
  (void)mediator;
  // Raw request shows the timestamp context entry.
  orb::RequestMessage req;
  req.object_key = "echo-1";
  req.operation = "value";
  orb::ReplyMessage rep = client_.invoke_plain(ref_.endpoint, std::move(req));
  EXPECT_TRUE(rep.context.contains(actuality_timestamp_key()));
}

TEST_F(ActualityTest, CacheHitsSaveTraffic) {
  core::ProviderRegistry providers;
  providers.add(make_actuality_provider());
  core::NegotiationService negotiation(server_transport_, providers,
                                       resources_);
  core::Negotiator negotiator(client_transport_, providers);
  auto [stub, mediator] = make_cached_stub(negotiator, 100000);
  stub.value();
  net_.reset_stats();
  for (int i = 0; i < 100; ++i) stub.value();
  EXPECT_EQ(net_.stats().messages_sent, 0u);
}

TEST_F(ActualityTest, QosOperationReportsHits) {
  core::ProviderRegistry providers;
  providers.add(make_actuality_provider());
  core::NegotiationService negotiation(server_transport_, providers,
                                       resources_);
  core::Negotiator negotiator(client_transport_, providers);
  auto [stub, mediator] = make_cached_stub(negotiator, 10000);
  stub.value();
  stub.value();
  EXPECT_EQ(mediator->qos_operation("qos_cache_hits", {}).as_longlong(), 1);
}

TEST_F(ActualityTest, RenegotiationClearsCache) {
  core::ProviderRegistry providers;
  providers.add(make_actuality_provider());
  core::NegotiationService negotiation(server_transport_, providers,
                                       resources_);
  core::Negotiator negotiator(client_transport_, providers);
  EchoStub stub(client_, ref_);
  core::Agreement agreement = negotiator.negotiate(
      stub, actuality_name(),
      {{"max_age_ms", cdr::Any::from_long(10000)},
       {"cacheable_ops", cdr::Any::from_string("value")}});
  stub.set_value(9);
  stub.value();
  const int calls = servant_->calls;
  negotiator.renegotiate(stub, agreement,
                         {{"max_age_ms", cdr::Any::from_long(50)},
                          {"cacheable_ops", cdr::Any::from_string("value")}});
  stub.value();  // cache was cleared by rebinding
  EXPECT_GT(servant_->calls, calls);
}

/// Actuality stacked with the payload-transforming characteristics on one
/// object, negotiated in the order of the parameter.
class StackedActualityTest
    : public ActualityTest,
      public ::testing::WithParamInterface<std::vector<std::string>> {
 protected:
  StackedActualityTest() {
    stacked_ = std::make_shared<QosEchoImpl>();
    std::vector<orb::QosProfile> profiles;
    for (const core::CharacteristicDescriptor& descriptor :
         {actuality_descriptor(), compression_descriptor(),
          encryption_descriptor()}) {
      stacked_->assign_characteristic(descriptor);
      orb::QosProfile profile;
      profile.characteristic = descriptor.name();
      profiles.push_back(profile);
    }
    stacked_ref_ = server_.adapter().activate("stacked", stacked_, profiles);
    resources_.declare("bandwidth", 100.0);
    providers_.add(make_actuality_provider());
    providers_.add(make_compression_provider());
    providers_.add(make_encryption_psk_provider());
  }

  std::map<std::string, cdr::Any> params_for(const std::string& name) const {
    if (name == actuality_name()) {
      return {{"max_age_ms", cdr::Any::from_long(10000)},
              {"cacheable_ops", cdr::Any::from_string("echo")}};
    }
    if (name == encryption_name()) {
      return {{"psk", cdr::Any::from_string("stacked")}};
    }
    return {};
  }

  core::ProviderRegistry providers_;
  std::shared_ptr<QosEchoImpl> stacked_;
  orb::ObjRef stacked_ref_;
};

TEST_P(StackedActualityTest, RepeatedReadsServedFromCache) {
  // Stacking order must not matter: the cache keys on the arguments as
  // the stub marshaled them and stores the reply as the stub unmarshals
  // it, whatever the payload stages do on the wire.
  core::NegotiationService negotiation(server_transport_, providers_,
                                       resources_);
  core::Negotiator negotiator(client_transport_, providers_);
  EchoStub stub(client_, stacked_ref_);
  for (const std::string& name : GetParam()) {
    negotiator.negotiate(stub, name, params_for(name));
  }

  std::string input;
  while (input.size() < 300) input += "sensor=7 reading=21.5;";
  input.resize(300);
  EXPECT_EQ(stub.echo(input), input);  // miss, fills the cache
  const int calls_after_fill = stacked_->calls;
  EXPECT_EQ(stub.echo(input), input);
  EXPECT_EQ(stub.echo(input), input);
  EXPECT_EQ(stacked_->calls - calls_after_fill, 0);
}

TEST_F(StackedActualityTest, WeavingAnotherCharacteristicKeepsTheCache) {
  // Each weave re-versions the channel and rebinds Actuality under its
  // unchanged agreement; that rebind must not drop the cached entries.
  core::NegotiationService negotiation(server_transport_, providers_,
                                       resources_);
  core::Negotiator negotiator(client_transport_, providers_);
  EchoStub stub(client_, stacked_ref_);
  negotiator.negotiate(stub, actuality_name(), params_for(actuality_name()));
  EXPECT_EQ(stub.echo("reading=21.5"), "reading=21.5");  // fills the cache
  for (const std::string& name : {compression_name(), encryption_name()}) {
    negotiator.negotiate(stub, name, params_for(name));
  }
  const int calls_after_weave = stacked_->calls;
  EXPECT_EQ(stub.echo("reading=21.5"), "reading=21.5");
  EXPECT_EQ(stacked_->calls - calls_after_weave, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Orders, StackedActualityTest,
    ::testing::Values(
        std::vector<std::string>{actuality_name(), compression_name()},
        std::vector<std::string>{compression_name(), actuality_name()},
        std::vector<std::string>{actuality_name(), encryption_name()},
        std::vector<std::string>{actuality_name(), compression_name(),
                                 encryption_name()},
        std::vector<std::string>{compression_name(), encryption_name(),
                                 actuality_name()}),
    [](const ::testing::TestParamInfo<std::vector<std::string>>& order) {
      std::string label;
      for (const std::string& name : order.param) label += name.front();
      return label;
    });

}  // namespace
}  // namespace maqs::characteristics
