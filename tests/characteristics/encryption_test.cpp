// Encryption characteristic: DH handshake, payload confidentiality,
// on-the-fly key change, tamper detection, PSK app-layer variant.
#include "characteristics/encryption.hpp"

#include <gtest/gtest.h>

#include "core/negotiation.hpp"
#include "net/network.hpp"
#include "support/qos_echo.hpp"

namespace maqs::characteristics {
namespace {

using maqs::testing::EchoStub;
using maqs::testing::QosEchoImpl;

class EncryptionTest : public ::testing::Test {
 protected:
  EncryptionTest()
      : net_(loop_),
        server_(net_, "server", 9000),
        client_(net_, "client", 9001),
        server_transport_(server_),
        client_transport_(client_) {
    servant_ = std::make_shared<QosEchoImpl>();
    servant_->assign_characteristic(encryption_descriptor());
    orb::QosProfile profile;
    profile.characteristic = encryption_name();
    ref_ = server_.adapter().activate("echo-1", servant_, {profile});
    resources_.declare("cpu", 1000.0);
    register_encryption_module();
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

TEST_F(EncryptionTest, NegotiatedModuleRoundTrip) {
  core::ProviderRegistry providers;
  providers.add(make_encryption_provider());
  core::NegotiationService negotiation(server_transport_, providers,
                                       resources_);
  core::Negotiator negotiator(client_transport_, providers);
  EchoStub stub(client_, ref_);
  negotiator.negotiate(stub, encryption_name(), {});

  EXPECT_EQ(stub.echo("top secret"), "top secret");
  EXPECT_EQ(stub.add(20, 22), 42);
  EXPECT_EQ(client_transport_.stats().requests_via_module, 2u);
}

TEST_F(EncryptionTest, DhHandshakeAgreesAcrossTheWire) {
  auto& client_module = dynamic_cast<EncryptionModule&>(
      client_transport_.load_module(encryption_module_name()));
  const std::int64_t epoch =
      encryption_rotate_key(client_, client_transport_, ref_, 1, 0xAAA);
  EXPECT_EQ(epoch, 1);
  EXPECT_EQ(client_module.current_epoch(), 1);
  auto& server_module = dynamic_cast<EncryptionModule&>(
      *server_transport_.find_module(encryption_module_name()));
  EXPECT_EQ(server_module.current_epoch(), 1);

  // Same key on both sides: a frame sealed by one side opens on the other.
  orb::RequestMessage req;
  req.request_id = 99;
  req.body = util::to_bytes("probe");
  client_module.transform_request(req);
  EXPECT_NE(req.body, util::to_bytes("probe"));
  server_module.restore_request(req);
  EXPECT_EQ(req.body, util::to_bytes("probe"));
}

TEST_F(EncryptionTest, PayloadIsUnreadableOnTheWire) {
  core::ProviderRegistry providers;
  providers.add(make_encryption_provider());
  core::NegotiationService negotiation(server_transport_, providers,
                                       resources_);
  core::Negotiator negotiator(client_transport_, providers);
  EchoStub stub(client_, ref_);
  negotiator.negotiate(stub, encryption_name(), {});

  // Tap the wire by unbinding/rebinding the server endpoint with a
  // recording wrapper is intrusive; instead seal a known plaintext and
  // check the ciphertext hides it.
  auto& module = dynamic_cast<EncryptionModule&>(
      *client_transport_.find_module(encryption_module_name()));
  const std::string secret = "PIN=12345 PIN=12345 PIN=12345";
  orb::RequestMessage req;
  req.request_id = 7;
  req.body = util::to_bytes(secret);
  module.transform_request(req);
  const std::string wire = util::to_string(req.body);
  EXPECT_EQ(wire.find("PIN"), std::string::npos);
  EXPECT_EQ(wire.find("12345"), std::string::npos);
}

TEST_F(EncryptionTest, KeyChangeUnderTrafficIsSeamless) {
  core::ProviderRegistry providers;
  providers.add(make_encryption_provider());
  core::NegotiationService negotiation(server_transport_, providers,
                                       resources_);
  core::Negotiator negotiator(client_transport_, providers);
  EchoStub stub(client_, ref_);
  negotiator.negotiate(stub, encryption_name(), {});

  EXPECT_EQ(stub.echo("epoch1"), "epoch1");
  // Rotate on the fly (paper: "on the fly change of encryption keys").
  encryption_rotate_key(client_, client_transport_, ref_, 2, 0xBBB);
  EXPECT_EQ(stub.echo("epoch2"), "epoch2");
  encryption_rotate_key(client_, client_transport_, ref_, 3, 0xCCC);
  EXPECT_EQ(stub.echo("epoch3"), "epoch3");

  auto& server_module = dynamic_cast<EncryptionModule&>(
      *server_transport_.find_module(encryption_module_name()));
  EXPECT_EQ(server_module.current_epoch(), 3);
}

TEST_F(EncryptionTest, OldEpochFramesStillDecryptAfterRotation) {
  auto& client_module = dynamic_cast<EncryptionModule&>(
      client_transport_.load_module(encryption_module_name()));
  encryption_rotate_key(client_, client_transport_, ref_, 1, 0x1);
  orb::RequestMessage old_frame;
  old_frame.request_id = 5;
  old_frame.body = util::to_bytes("in flight");
  client_module.transform_request(old_frame);  // sealed under epoch 1

  encryption_rotate_key(client_, client_transport_, ref_, 2, 0x2);
  auto& server_module = dynamic_cast<EncryptionModule&>(
      *server_transport_.find_module(encryption_module_name()));
  // The old frame carries its epoch and still opens.
  server_module.restore_request(old_frame);
  EXPECT_EQ(old_frame.body, util::to_bytes("in flight"));
}

TEST_F(EncryptionTest, TamperingDetectedByIntegrityTag) {
  auto& client_module = dynamic_cast<EncryptionModule&>(
      client_transport_.load_module(encryption_module_name()));
  encryption_rotate_key(client_, client_transport_, ref_, 1, 0x9);
  orb::RequestMessage req;
  req.request_id = 11;
  req.body = util::to_bytes("transfer 100");
  client_module.transform_request(req);
  req.body[req.body.size() - 1] ^= 0x01;  // flip one ciphertext bit
  const util::Bytes arrived = req.body;
  auto& server_module = dynamic_cast<EncryptionModule&>(
      *server_transport_.find_module(encryption_module_name()));
  EXPECT_THROW(server_module.restore_request(req), core::QosError);
  // Nothing unverified is released: the body is exactly what arrived.
  EXPECT_EQ(req.body, arrived);
}

TEST_F(EncryptionTest, TrafficWithoutKeyRefused) {
  auto& module = dynamic_cast<EncryptionModule&>(
      client_transport_.load_module(encryption_module_name()));
  orb::RequestMessage req;
  req.request_id = 1;
  req.body = util::to_bytes("x");
  EXPECT_THROW(module.transform_request(req), core::QosError);
}

TEST_F(EncryptionTest, UnknownEpochRefused) {
  auto& module = dynamic_cast<EncryptionModule&>(
      client_transport_.load_module(encryption_module_name()));
  module.install_key(1, util::to_bytes("k"));
  EXPECT_THROW(module.set_current_epoch(9), core::QosError);
}

TEST_F(EncryptionTest, ModuleCommandsValidation) {
  auto& module = client_transport_.load_module(encryption_module_name());
  EXPECT_THROW(module.command("dh_exchange", {}), core::QosError);
  EXPECT_THROW(module.command("set_epoch", {}), core::QosError);
  EXPECT_THROW(module.command("unknown", {}), core::QosError);
  EXPECT_EQ(module.command("current_epoch", {}).as_longlong(), -1);
}

TEST_F(EncryptionTest, PskVariantWeavesAtApplicationLayer) {
  core::ProviderRegistry providers;
  providers.add(make_encryption_psk_provider());
  core::NegotiationService negotiation(server_transport_, providers,
                                       resources_);
  core::Negotiator negotiator(client_transport_, providers);
  EchoStub stub(client_, ref_);
  negotiator.negotiate(
      stub, encryption_name(),
      {{"psk", cdr::Any::from_string("shared-secret-42")}});

  EXPECT_EQ(stub.echo("psk secret"), "psk secret");
  EXPECT_EQ(stub.add(3, 4), 7);
  // No transport module involved: pure app-layer weaving.
  EXPECT_EQ(client_transport_.stats().requests_via_module, 0u);
  EXPECT_EQ(client_transport_.stats().requests_fallback_plain, 2u);
}

TEST_F(EncryptionTest, PskMismatchFailsClosed) {
  // Client and server bound to different secrets: traffic must not pass.
  auto mediator = std::make_shared<EncryptionMediator>();
  core::Agreement client_side;
  client_side.characteristic = encryption_name();
  client_side.params = encryption_descriptor().validate_params(
      {{"psk", cdr::Any::from_string("alpha")}});
  mediator->bind_agreement(client_side);

  auto impl = std::make_shared<EncryptionImpl>();
  core::Agreement server_side = client_side;
  server_side.params = encryption_descriptor().validate_params(
      {{"psk", cdr::Any::from_string("beta")}});
  impl->bind_agreement(server_side);
  servant_->set_active_impl(impl);

  EchoStub stub(client_, ref_);
  auto composite = std::make_shared<core::CompositeMediator>();
  composite->add(mediator);
  stub.set_mediator(composite);
  EXPECT_THROW(stub.echo("x"), orb::SystemException);
}

}  // namespace
}  // namespace maqs::characteristics
