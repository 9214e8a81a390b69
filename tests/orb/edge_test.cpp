// ORB edge cases: misbehaving routers, re-entrant adapters, garbage
// frames, collocated traffic, timeout interleavings.
#include <gtest/gtest.h>

#include "net/network.hpp"
#include "orb/orb.hpp"
#include "support/echo.hpp"
#include "util/log.hpp"

namespace maqs::orb {
namespace {

class EdgeTest : public ::testing::Test {
 protected:
  EdgeTest()
      : net_(loop_),
        server_(net_, "server", 9000),
        client_(net_, "client", 9001) {
    impl_ = std::make_shared<maqs::testing::EchoImpl>();
    ref_ = server_.adapter().activate("echo", impl_);
  }

  sim::EventLoop loop_;
  net::Network net_;
  Orb server_;
  Orb client_;
  std::shared_ptr<maqs::testing::EchoImpl> impl_;
  ObjRef ref_;
};

/// A router whose inbound hook throws: the server must answer with a
/// system exception, not die.
class ThrowingRouter : public RequestRouter {
 public:
  ReplyMessage route(const net::Address&, RequestMessage) override {
    throw SystemException("router: route exploded");
  }
  std::optional<ReplyMessage> inbound(RequestMessage&,
                                      const net::Address&) override {
    throw SystemException("router: inbound exploded");
  }
  void outbound(const RequestMessage&, ReplyMessage&) override {}
};

TEST_F(EdgeTest, ServerRouterExceptionBecomesSystemException) {
  ThrowingRouter router;
  server_.set_router(&router);
  RequestMessage req;
  req.object_key = "echo";
  req.operation = "echo";
  req.qos_aware = true;  // forces the router inbound path
  cdr::Encoder enc;
  enc.write_string("x");
  req.body = enc.take();
  ReplyMessage rep = client_.invoke_plain(ref_.endpoint, std::move(req));
  EXPECT_EQ(rep.status, ReplyStatus::kSystemException);
  server_.set_router(nullptr);
}

TEST_F(EdgeTest, ClientRouterExceptionPropagatesToCaller) {
  ThrowingRouter router;
  client_.set_router(&router);
  ObjRef qos_ref = ref_;
  QosProfile profile;
  profile.characteristic = "X";
  qos_ref.qos = {profile};
  maqs::testing::EchoStub stub(client_, qos_ref);
  EXPECT_THROW(stub.echo("x"), SystemException);
  client_.set_router(nullptr);
}

TEST_F(EdgeTest, GarbageFramesAreDroppedQuietly) {
  util::Logger::instance().set_level(util::LogLevel::kOff);
  net_.send(client_.endpoint(), server_.endpoint(), util::Bytes{0x00, 0x01});
  net_.send(client_.endpoint(), server_.endpoint(), util::Bytes{});
  // Truncated request frame: magic only.
  net_.send(client_.endpoint(), server_.endpoint(), util::Bytes{0xA1});
  loop_.run_until_idle();
  util::Logger::instance().set_level(util::LogLevel::kWarn);
  // The ORB still works afterwards.
  maqs::testing::EchoStub stub(client_, ref_);
  EXPECT_EQ(stub.echo("still alive"), "still alive");
}

TEST_F(EdgeTest, CollocatedClientAndServerOnOneOrb) {
  // A stub whose ORB hosts the target object: loopback path.
  maqs::testing::EchoStub stub(server_, ref_);
  EXPECT_EQ(stub.add(1, 1), 2);
}

/// Servant that deactivates ITSELF during dispatch — the adapter copy in
/// dispatch keeps the servant alive until the call completes.
class SelfDeactivating : public maqs::testing::EchoSkeleton {
 public:
  SelfDeactivating(ObjectAdapter& adapter, std::string key)
      : adapter_(adapter), key_(std::move(key)) {}
  std::string echo(const std::string& s) override {
    adapter_.deactivate(key_);
    return s + "/last words";
  }
  std::int32_t add(std::int32_t a, std::int32_t b) override { return a + b; }
  void set_value(std::int32_t) override {}
  std::int32_t value() override { return 0; }
  util::Bytes blob(const util::Bytes& d) override { return d; }
  void boom() override {}

 private:
  ObjectAdapter& adapter_;
  std::string key_;
};

TEST_F(EdgeTest, ServantMayDeactivateItselfMidCall) {
  auto servant =
      std::make_shared<SelfDeactivating>(server_.adapter(), "suicidal");
  ObjRef suicidal_ref = server_.adapter().activate("suicidal", servant);
  maqs::testing::EchoStub stub(client_, suicidal_ref);
  EXPECT_EQ(stub.echo("bye"), "bye/last words");
  EXPECT_THROW(stub.echo("again"), ObjectNotExist);
}

TEST_F(EdgeTest, LateReplyAfterTimeoutIsOrphaned) {
  // Slow link: reply arrives after the client's timeout fired.
  net_.set_link("client", "server",
                net::LinkParams{.latency = 300 * sim::kMillisecond,
                                .bandwidth_bps = 0});
  client_.set_default_timeout(100 * sim::kMillisecond);
  maqs::testing::EchoStub stub(client_, ref_);
  EXPECT_THROW(stub.echo("slow"), TransportError);
  loop_.run_until_idle();  // the late reply lands now
  EXPECT_EQ(client_.stats().replies_orphaned, 1u);
  // The server still processed the request.
  EXPECT_EQ(impl_->calls, 1);
}

TEST_F(EdgeTest, ManyOutstandingRequestsResolveIndependently) {
  int done = 0;
  for (int i = 0; i < 64; ++i) {
    RequestMessage req;
    req.object_key = "echo";
    req.operation = "add";
    cdr::Encoder enc;
    enc.write_i32(i);
    enc.write_i32(1);
    req.body = enc.take();
    client_.send_request(ref_.endpoint, std::move(req),
                         [&done, i](const ReplyMessage& rep) {
                           cdr::Decoder dec(rep.body);
                           EXPECT_EQ(dec.read_i32(), i + 1);
                           ++done;
                         });
  }
  loop_.run_until_idle();
  EXPECT_EQ(done, 64);
}

TEST_F(EdgeTest, RebindingEndpointAfterOrbDestruction) {
  {
    Orb temporary(net_, "temp", 7777);
    EXPECT_TRUE(net_.is_bound({"temp", 7777}));
  }
  EXPECT_FALSE(net_.is_bound({"temp", 7777}));
  Orb again(net_, "temp", 7777);  // rebind works
  EXPECT_TRUE(net_.is_bound({"temp", 7777}));
}

TEST_F(EdgeTest, ZeroLengthOperationAndKey) {
  RequestMessage req;  // everything empty
  ReplyMessage rep = client_.invoke_plain(ref_.endpoint, std::move(req));
  EXPECT_EQ(rep.status, ReplyStatus::kNoSuchObject);
}

}  // namespace
}  // namespace maqs::orb
