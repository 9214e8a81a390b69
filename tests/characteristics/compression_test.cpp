// Compression characteristic at both integration layers (Fig. 1).
#include "characteristics/compression.hpp"

#include <gtest/gtest.h>

#include "core/mediator.hpp"
#include "core/negotiation.hpp"
#include "net/network.hpp"
#include "support/qos_echo.hpp"

namespace maqs::characteristics {
namespace {

using core::Agreement;
using maqs::testing::EchoStub;
using maqs::testing::QosEchoImpl;

class CompressionTest : public ::testing::Test {
 protected:
  CompressionTest()
      : net_(loop_),
        server_(net_, "server", 9000),
        client_(net_, "client", 9001),
        server_transport_(server_),
        client_transport_(client_) {
    servant_ = std::make_shared<QosEchoImpl>();
    servant_->assign_characteristic(compression_descriptor());
    orb::QosProfile profile;
    profile.characteristic = compression_name();
    ref_ = server_.adapter().activate("echo-1", servant_, {profile});
    resources_.declare("cpu", 1000.0);
    resources_.declare("bandwidth", 1000.0);
  }

  util::Bytes compressible(std::size_t n) const {
    util::Bytes data;
    const std::string phrase = "stock-quote update symbol=ACME ";
    while (data.size() < n) {
      for (char c : phrase) {
        if (data.size() >= n) break;
        data.push_back(static_cast<std::uint8_t>(c));
      }
    }
    return data;
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

TEST_F(CompressionTest, ApplicationCenteredRoundTrip) {
  core::ProviderRegistry providers;
  providers.add(make_compression_provider());
  core::NegotiationService negotiation(server_transport_, providers,
                                       resources_);
  core::Negotiator negotiator(client_transport_, providers);
  EchoStub stub(client_, ref_);
  negotiator.negotiate(stub, compression_name(), {});

  const util::Bytes payload = compressible(20000);
  EXPECT_EQ(stub.blob(payload), payload);
  EXPECT_EQ(stub.echo("small"), "small");
  EXPECT_EQ(stub.add(1, 2), 3);
}

TEST_F(CompressionTest, ApplicationCenteredSavesWireBytes) {
  core::ProviderRegistry providers;
  providers.add(make_compression_provider());
  core::NegotiationService negotiation(server_transport_, providers,
                                       resources_);
  core::Negotiator negotiator(client_transport_, providers);
  const util::Bytes payload = compressible(50000);

  EchoStub plain_stub(client_, ref_);
  plain_stub.blob(payload);
  const std::uint64_t plain_bytes = net_.bytes_between("client", "server");

  net_.reset_stats();
  EchoStub stub(client_, ref_);
  negotiator.negotiate(stub, compression_name(), {});
  stub.blob(payload);
  const std::uint64_t compressed_bytes =
      net_.bytes_between("client", "server");
  EXPECT_LT(compressed_bytes, plain_bytes / 3);
}

TEST_F(CompressionTest, MediatorReportsCompressionRatio) {
  auto mediator = std::make_shared<CompressionMediator>();
  Agreement agreement;
  agreement.characteristic = compression_name();
  agreement.params = compression_descriptor().default_params();
  mediator->bind_agreement(agreement);
  EXPECT_EQ(mediator->compression_ratio(), 1.0);
  core::CompositeMediator composite;
  composite.add(mediator);

  orb::RequestMessage req;
  req.body = compressible(10000);
  composite.outbound(req);
  EXPECT_LT(mediator->compression_ratio(), 0.5);
  EXPECT_EQ(
      mediator->qos_operation("qos_compression_ratio", {}).as_double(),
      mediator->compression_ratio());
  EXPECT_THROW(mediator->qos_operation("qos_nope", {}), core::QosError);
}

TEST_F(CompressionTest, SmallPayloadsShipRaw) {
  auto mediator = std::make_shared<CompressionMediator>();
  Agreement agreement;
  agreement.characteristic = compression_name();
  agreement.params = compression_descriptor().default_params();  // min 64
  mediator->bind_agreement(agreement);
  core::CompositeMediator composite;
  composite.add(mediator);
  orb::RequestMessage req;
  req.body = util::to_bytes("tiny");
  composite.outbound(req);
  EXPECT_EQ(req.body.size(), 5u);  // marker + 4 raw bytes
  EXPECT_EQ(req.body[0], 0x00);
}

TEST_F(CompressionTest, IncompressiblePayloadsShipRaw) {
  auto mediator = std::make_shared<CompressionMediator>();
  Agreement agreement;
  agreement.characteristic = compression_name();
  agreement.params = compression_descriptor().default_params();
  mediator->bind_agreement(agreement);
  core::CompositeMediator composite;
  composite.add(mediator);
  util::Rng rng(7);
  util::Bytes noise(4096);
  for (auto& b : noise) b = static_cast<std::uint8_t>(rng.next());
  orb::RequestMessage req;
  req.body = noise;
  composite.outbound(req);
  EXPECT_EQ(req.body.size(), noise.size() + 1);  // bounded expansion
}

TEST_F(CompressionTest, NetworkCenteredModuleRoundTrip) {
  core::ProviderRegistry providers;
  providers.add(make_compression_module_provider());
  core::NegotiationService negotiation(server_transport_, providers,
                                       resources_);
  core::Negotiator negotiator(client_transport_, providers);
  register_compression_module();

  EchoStub stub(client_, ref_);
  negotiator.negotiate(stub, compression_name(), {});
  EXPECT_TRUE(client_transport_.is_loaded(compression_module_name()));
  EXPECT_TRUE(server_transport_.is_loaded(compression_module_name()));

  const util::Bytes payload = compressible(20000);
  EXPECT_EQ(stub.blob(payload), payload);
  EXPECT_EQ(client_transport_.stats().requests_via_module, 1u);
}

TEST_F(CompressionTest, NetworkCenteredSavesWireBytes) {
  core::ProviderRegistry providers;
  providers.add(make_compression_module_provider());
  core::NegotiationService negotiation(server_transport_, providers,
                                       resources_);
  core::Negotiator negotiator(client_transport_, providers);
  register_compression_module();
  EchoStub stub(client_, ref_);
  negotiator.negotiate(stub, compression_name(), {});

  const util::Bytes payload = compressible(50000);
  net_.reset_stats();
  stub.blob(payload);
  EXPECT_LT(net_.bytes_between("client", "server"), payload.size() / 3);
}

TEST_F(CompressionTest, RleCodecSelectableViaParams) {
  core::ProviderRegistry providers;
  providers.add(make_compression_provider());
  core::NegotiationService negotiation(server_transport_, providers,
                                       resources_);
  core::Negotiator negotiator(client_transport_, providers);
  EchoStub stub(client_, ref_);
  negotiator.negotiate(stub, compression_name(),
                       {{"algorithm", cdr::Any::from_string("rle")}});
  const util::Bytes runs(10000, 0x7A);
  net_.reset_stats();
  EXPECT_EQ(stub.blob(runs), runs);
  EXPECT_LT(net_.bytes_between("client", "server"), 500u);
}

TEST_F(CompressionTest, ModuleCommands) {
  register_compression_module();
  auto& module = client_transport_.load_module(compression_module_name());
  module.command("set_codec", {cdr::Any::from_string("rle"),
                               cdr::Any::from_longlong(1)});
  module.command("set_min_size", {cdr::Any::from_longlong(10)});
  EXPECT_EQ(module.command("info", {}).as_string(), "rle/min=10");
  EXPECT_THROW(module.command("set_codec", {}), core::QosError);
  EXPECT_THROW(module.command("nope", {}), core::QosError);
}

TEST_F(CompressionTest, CorruptFrameRejected) {
  CompressionImpl impl;
  Agreement agreement;
  agreement.characteristic = compression_name();
  agreement.params = compression_descriptor().default_params();
  impl.bind_agreement(agreement);
  // The skeleton restores arguments with a reverse run over the stage.
  core::TransformChain chain;
  chain.add(impl.streaming_transform());
  util::Bytes empty;
  EXPECT_THROW(chain.run_reverse(empty, {}), compress::CodecError);
  util::Bytes bad_marker{0x77, 1, 2};
  EXPECT_THROW(chain.run_reverse(bad_marker, {}), compress::CodecError);
}

}  // namespace
}  // namespace maqs::characteristics
