// Multi-category server weaving: per-characteristic delegate slots
// (our extension of Fig. 2's single exchanged delegate — required for
// simultaneously negotiated agreements of different categories).
#include <gtest/gtest.h>

#include <algorithm>

#include "core/mediator.hpp"
#include "core/qos_skeleton.hpp"
#include "net/network.hpp"
#include "support/qos_echo.hpp"

namespace maqs::core {
namespace {

using maqs::testing::EchoStub;
using maqs::testing::QosEchoImpl;

CharacteristicDescriptor characteristic(const std::string& name) {
  return CharacteristicDescriptor(
      name, QosCategory::kOther, {},
      {QosOpDesc{"qos_" + name, QosOpKind::kMechanism}});
}

/// Tags the front of the argument/result stream with one byte on each
/// side, through its own payload stage, so the nesting order is
/// observable.
class TaggingImpl : public QosImpl, public StreamingTransform {
 public:
  TaggingImpl(const std::string& name, std::uint8_t tag,
              std::vector<std::string>& trace)
      : QosImpl(name), tag_(tag), trace_(trace) {}

  void prolog(orb::ServerContext&) override {
    trace_.push_back("prolog:" + characteristic());
  }
  void epilog(orb::ServerContext&) override {
    trace_.push_back("epilog:" + characteristic());
  }
  StreamingTransform* streaming_transform() override { return this; }
  const std::string& label() const override { return characteristic(); }
  std::size_t forward_overhead() const noexcept override { return 1; }
  void reverse(ChainBuf& buf, const TransformContext&) override {
    // Inverse of the client transform: strip our tag from the front.
    trace_.push_back("args:" + characteristic());
    if (buf.empty() || buf.view()[0] != tag_) {
      throw QosError(characteristic() + ": bad nesting");
    }
    buf.drop_front(1);
  }
  void forward(ChainBuf& buf, const TransformContext&) override {
    trace_.push_back("result:" + characteristic());
    if (buf.headroom() < 1) {
      // First stage over the borrowed body: move the payload into an
      // arena region with room for this tag and every later one.
      const std::size_t reserve = buf.reserve_front();
      const std::size_t n = buf.size();
      std::span<std::uint8_t> region = buf.arena().allocate(reserve + 1 + n);
      std::copy(buf.view().begin(), buf.view().end(),
                region.begin() + static_cast<std::ptrdiff_t>(reserve + 1));
      buf.adopt(region, reserve + 1, n);
    }
    *buf.prepend(1) = tag_;
  }
  void dispatch_qos_op(const std::string& op, cdr::Decoder& args,
                       cdr::Encoder& out, orb::ServerContext&) override {
    args.expect_end();
    out.write_string(op + "@" + characteristic());
  }

 private:
  std::uint8_t tag_;
  std::vector<std::string>& trace_;
};

class MultiDelegateTest : public ::testing::Test {
 protected:
  MultiDelegateTest() {
    servant_ = std::make_shared<QosEchoImpl>();
    servant_->assign_characteristic(characteristic("A"));
    servant_->assign_characteristic(characteristic("B"));
  }

  std::shared_ptr<QosEchoImpl> servant_;
  std::vector<std::string> trace_;
};

TEST_F(MultiDelegateTest, InstallTwoDelegatesKeepsBoth) {
  servant_->install_impl(std::make_shared<TaggingImpl>("A", 0xA, trace_));
  servant_->install_impl(std::make_shared<TaggingImpl>("B", 0xB, trace_));
  EXPECT_EQ(servant_->active_impls().size(), 2u);
  EXPECT_NE(servant_->impl_for("A"), nullptr);
  EXPECT_NE(servant_->impl_for("B"), nullptr);
  EXPECT_EQ(servant_->impl_for("C"), nullptr);
}

TEST_F(MultiDelegateTest, InstallReplacesSameCharacteristic) {
  auto first = std::make_shared<TaggingImpl>("A", 1, trace_);
  auto second = std::make_shared<TaggingImpl>("A", 2, trace_);
  servant_->install_impl(first);
  servant_->install_impl(second);
  EXPECT_EQ(servant_->active_impls().size(), 1u);
  EXPECT_EQ(servant_->impl_for("A"), second);
}

TEST_F(MultiDelegateTest, InstallNullOrUnassignedRejected) {
  EXPECT_THROW(servant_->install_impl(nullptr), QosError);
  EXPECT_THROW(
      servant_->install_impl(std::make_shared<TaggingImpl>("C", 1, trace_)),
      QosError);
}

TEST_F(MultiDelegateTest, SetActiveImplKeepsPaperSemantics) {
  // The paper-faithful API clears everything and installs one delegate.
  servant_->install_impl(std::make_shared<TaggingImpl>("A", 1, trace_));
  servant_->set_active_impl(std::make_shared<TaggingImpl>("B", 2, trace_));
  EXPECT_EQ(servant_->active_impls().size(), 1u);
  EXPECT_EQ(servant_->impl_for("A"), nullptr);
  EXPECT_EQ(servant_->active_impl()->characteristic(), "B");
}

TEST_F(MultiDelegateTest, RemoveImplDetaches) {
  servant_->install_impl(std::make_shared<TaggingImpl>("A", 1, trace_));
  servant_->install_impl(std::make_shared<TaggingImpl>("B", 2, trace_));
  servant_->remove_impl("A");
  EXPECT_EQ(servant_->impl_for("A"), nullptr);
  EXPECT_NE(servant_->impl_for("B"), nullptr);
  servant_->remove_impl("A");  // idempotent
  servant_->clear_impls();
  EXPECT_TRUE(servant_->active_impls().empty());
  EXPECT_EQ(servant_->active_impl(), nullptr);
}

class MultiDelegateRpcTest : public MultiDelegateTest {
 protected:
  MultiDelegateRpcTest()
      : net_(loop_),
        server_(net_, "server", 9000),
        client_(net_, "client", 9001) {
    ref_ = server_.adapter().activate("echo", servant_);
  }

  sim::EventLoop loop_;
  net::Network net_;
  orb::Orb server_;
  orb::Orb client_;
  orb::ObjRef ref_;
};

/// Client-side mirror of TaggingImpl: tags the front of the request body,
/// strips the tag from the front of the reply.
class TaggingMediator : public Mediator {
 public:
  TaggingMediator(const std::string& name, std::uint8_t tag)
      : Mediator(name), tag_(tag) {}
  void outbound(orb::RequestMessage& req) override {
    req.body.insert(req.body.begin(), tag_);
  }
  void inbound(const orb::RequestMessage&, orb::ReplyMessage& rep) override {
    if (rep.status != orb::ReplyStatus::kOk) return;
    ASSERT_FALSE(rep.body.empty());
    ASSERT_EQ(rep.body.front(), tag_);
    rep.body.erase(rep.body.begin());
  }

 private:
  std::uint8_t tag_;
};

TEST_F(MultiDelegateRpcTest, TransformNestingMatchesMediatorChain) {
  // Client chain [A, B]: outbound prepends A then B (B outermost).
  // Server must strip B first (reverse install order on args) and tag
  // results in install order (A then B) so the client chain unwinds.
  servant_->install_impl(std::make_shared<TaggingImpl>("A", 0xA, trace_));
  servant_->install_impl(std::make_shared<TaggingImpl>("B", 0xB, trace_));
  EchoStub stub(client_, ref_);
  auto composite = std::make_shared<CompositeMediator>();
  composite->add(std::make_shared<TaggingMediator>("A", 0xA));
  composite->add(std::make_shared<TaggingMediator>("B", 0xB));
  stub.set_mediator(composite);

  EXPECT_EQ(stub.add(2, 3), 5);
  EXPECT_EQ(trace_,
            (std::vector<std::string>{"prolog:A", "prolog:B", "args:B",
                                      "args:A", "result:A", "result:B",
                                      "epilog:B", "epilog:A"}));
}

TEST_F(MultiDelegateRpcTest, EachCharacteristicsQosOpsDispatchToItsImpl) {
  servant_->install_impl(std::make_shared<TaggingImpl>("A", 0xA, trace_));
  servant_->install_impl(std::make_shared<TaggingImpl>("B", 0xB, trace_));
  for (const char* name : {"A", "B"}) {
    orb::RequestMessage req;
    req.object_key = "echo";
    req.operation = std::string("qos_") + name;
    orb::ReplyMessage rep = client_.invoke_plain(ref_.endpoint, std::move(req));
    ASSERT_EQ(rep.status, orb::ReplyStatus::kOk);
    cdr::Decoder dec(rep.body);
    EXPECT_EQ(dec.read_string(), std::string("qos_") + name + "@" + name);
  }
}

TEST_F(MultiDelegateRpcTest, RemovedCharacteristicRaisesNotNegotiatedAgain) {
  servant_->install_impl(std::make_shared<TaggingImpl>("A", 0xA, trace_));
  servant_->remove_impl("A");
  orb::RequestMessage req;
  req.object_key = "echo";
  req.operation = "qos_A";
  EXPECT_EQ(client_.invoke_plain(ref_.endpoint, std::move(req)).status,
            orb::ReplyStatus::kNotNegotiated);
}

}  // namespace
}  // namespace maqs::core
