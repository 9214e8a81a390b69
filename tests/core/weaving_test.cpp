// Fig. 2 semantics: client mediator weaving, server QoS-skeleton weaving,
// delegate exchange, prolog/epilog bracketing, NotNegotiated raising.
#include <gtest/gtest.h>

#include "core/mediator.hpp"
#include "core/qos_skeleton.hpp"
#include "net/network.hpp"
#include "support/qos_echo.hpp"

namespace maqs::core {
namespace {

using maqs::testing::EchoStub;
using maqs::testing::QosEchoImpl;

CharacteristicDescriptor fake_characteristic(const std::string& name) {
  return CharacteristicDescriptor(
      name, QosCategory::kOther, {},
      {QosOpDesc{"qos_" + name + "_op", QosOpKind::kMechanism}});
}

/// Records the weaving order; its own identity payload stage logs the
/// argument (reverse) and result (forward) transforms.
class TracingImpl : public QosImpl, public StreamingTransform {
 public:
  explicit TracingImpl(const std::string& characteristic,
                       std::vector<std::string>& trace)
      : QosImpl(characteristic), trace_(trace) {}

  void prolog(orb::ServerContext&) override { trace_.push_back("prolog"); }
  void epilog(orb::ServerContext&) override { trace_.push_back("epilog"); }
  StreamingTransform* streaming_transform() override { return this; }
  const std::string& label() const override { return characteristic(); }
  std::size_t forward_overhead() const noexcept override { return 0; }
  void reverse(ChainBuf&, const TransformContext&) override {
    trace_.push_back("args");
  }
  void forward(ChainBuf&, const TransformContext&) override {
    trace_.push_back("result");
  }
  void dispatch_qos_op(const std::string& op, cdr::Decoder& args,
                       cdr::Encoder& out, orb::ServerContext&) override {
    args.expect_end();
    trace_.push_back("qos:" + op);
    out.write_string("qos-result");
  }

 private:
  std::vector<std::string>& trace_;
};

/// Logs every Fig. 2 step it takes part in, tagged with its
/// characteristic; its prolog throws after logging when asked to.
class StepImpl : public QosImpl, public StreamingTransform {
 public:
  StepImpl(const std::string& characteristic, std::vector<std::string>& trace,
           bool prolog_throws = false)
      : QosImpl(characteristic), trace_(trace), prolog_throws_(prolog_throws) {}

  void prolog(orb::ServerContext&) override {
    trace_.push_back("prolog:" + characteristic());
    if (prolog_throws_) throw QosError("prolog refuses the call");
  }
  void epilog(orb::ServerContext&) override {
    trace_.push_back("epilog:" + characteristic());
  }
  StreamingTransform* streaming_transform() override { return this; }
  const std::string& label() const override { return characteristic(); }
  std::size_t forward_overhead() const noexcept override { return 0; }
  void reverse(ChainBuf&, const TransformContext&) override {
    trace_.push_back("args:" + characteristic());
  }
  void forward(ChainBuf&, const TransformContext&) override {
    trace_.push_back("result:" + characteristic());
  }

 private:
  std::vector<std::string>& trace_;
  bool prolog_throws_;
};

class WeavingTest : public ::testing::Test {
 protected:
  WeavingTest()
      : net_(loop_),
        server_(net_, "server", 9000),
        client_(net_, "client", 9001) {
    impl_ = std::make_shared<QosEchoImpl>();
    impl_->assign_characteristic(fake_characteristic("FT"));
    impl_->assign_characteristic(fake_characteristic("LB"));
    ref_ = server_.adapter().activate("echo-1", impl_);
  }

  sim::EventLoop loop_;
  net::Network net_;
  orb::Orb server_;
  orb::Orb client_;
  std::shared_ptr<QosEchoImpl> impl_;
  orb::ObjRef ref_;
  std::vector<std::string> trace_;
};

TEST_F(WeavingTest, AppOperationsWorkWithoutNegotiation) {
  EchoStub stub(client_, ref_);
  EXPECT_EQ(stub.add(1, 2), 3);
}

TEST_F(WeavingTest, QosOpOnAssignedButNotNegotiatedRaisesNotNegotiated) {
  // Fig. 2: "only the operations of the actual negotiated QoS
  // characteristic are processed while others raise an exception".
  orb::RequestMessage req;
  req.object_key = "echo-1";
  req.operation = "qos_FT_op";
  orb::ReplyMessage rep = client_.invoke_plain(ref_.endpoint, std::move(req));
  EXPECT_EQ(rep.status, orb::ReplyStatus::kNotNegotiated);
}

TEST_F(WeavingTest, NegotiatedCharacteristicProcessesItsQosOps) {
  impl_->set_active_impl(std::make_shared<TracingImpl>("FT", trace_));
  orb::RequestMessage req;
  req.object_key = "echo-1";
  req.operation = "qos_FT_op";
  orb::ReplyMessage rep = client_.invoke_plain(ref_.endpoint, std::move(req));
  EXPECT_EQ(rep.status, orb::ReplyStatus::kOk);
  EXPECT_EQ(trace_, (std::vector<std::string>{"qos:qos_FT_op"}));
}

TEST_F(WeavingTest, OtherAssignedCharacteristicStillRaises) {
  impl_->set_active_impl(std::make_shared<TracingImpl>("FT", trace_));
  orb::RequestMessage req;
  req.object_key = "echo-1";
  req.operation = "qos_LB_op";  // assigned, but LB is not negotiated
  orb::ReplyMessage rep = client_.invoke_plain(ref_.endpoint, std::move(req));
  EXPECT_EQ(rep.status, orb::ReplyStatus::kNotNegotiated);
}

TEST_F(WeavingTest, PrologEpilogBracketEveryAppOperation) {
  impl_->set_active_impl(std::make_shared<TracingImpl>("FT", trace_));
  EchoStub stub(client_, ref_);
  stub.add(1, 2);
  EXPECT_EQ(trace_, (std::vector<std::string>{"prolog", "args", "result",
                                              "epilog"}));
  trace_.clear();
  stub.echo("x");
  EXPECT_EQ(trace_.size(), 4u);
}

TEST_F(WeavingTest, ThrowingPrologSkipsEveryLaterStep) {
  impl_->install_impl(std::make_shared<StepImpl>("FT", trace_));
  impl_->install_impl(
      std::make_shared<StepImpl>("LB", trace_, /*prolog_throws=*/true));
  EchoStub stub(client_, ref_);
  EXPECT_THROW(stub.add(1, 2), orb::SystemException);
  // LB's prolog logged, then threw: no argument transform, application
  // call, result transform or epilog follows.
  EXPECT_EQ(trace_, (std::vector<std::string>{"prolog:FT", "prolog:LB"}));
  EXPECT_EQ(impl_->calls, 0);
}

TEST_F(WeavingTest, ThrowingAppSkipsResultTransformsAndEpilogs) {
  impl_->install_impl(std::make_shared<StepImpl>("FT", trace_));
  impl_->install_impl(std::make_shared<StepImpl>("LB", trace_));
  EchoStub stub(client_, ref_);
  EXPECT_THROW(stub.boom(), orb::UserException);
  // Both prologs and the argument transforms (reverse installation order)
  // ran before the application raised; nothing after it did.
  EXPECT_EQ(trace_, (std::vector<std::string>{"prolog:FT", "prolog:LB",
                                              "args:LB", "args:FT"}));
  EXPECT_EQ(impl_->calls, 1);
}

TEST_F(WeavingTest, DelegateExchangeAtRuntime) {
  impl_->set_active_impl(std::make_shared<TracingImpl>("FT", trace_));
  EXPECT_EQ(impl_->active_impl()->characteristic(), "FT");
  // Exchange to LB at runtime (renegotiation of a different
  // characteristic).
  impl_->set_active_impl(std::make_shared<TracingImpl>("LB", trace_));
  EXPECT_EQ(impl_->active_impl()->characteristic(), "LB");
  orb::RequestMessage req;
  req.object_key = "echo-1";
  req.operation = "qos_LB_op";
  EXPECT_EQ(client_.invoke_plain(ref_.endpoint, std::move(req)).status,
            orb::ReplyStatus::kOk);
  orb::RequestMessage req2;
  req2.object_key = "echo-1";
  req2.operation = "qos_FT_op";
  EXPECT_EQ(client_.invoke_plain(ref_.endpoint, std::move(req2)).status,
            orb::ReplyStatus::kNotNegotiated);
}

TEST_F(WeavingTest, ClearingDelegateDisablesQosOps) {
  impl_->set_active_impl(std::make_shared<TracingImpl>("FT", trace_));
  impl_->set_active_impl(nullptr);
  orb::RequestMessage req;
  req.object_key = "echo-1";
  req.operation = "qos_FT_op";
  EXPECT_EQ(client_.invoke_plain(ref_.endpoint, std::move(req)).status,
            orb::ReplyStatus::kNotNegotiated);
}

TEST_F(WeavingTest, UnassignedCharacteristicImplRejected) {
  EXPECT_THROW(
      impl_->set_active_impl(std::make_shared<TracingImpl>("XX", trace_)),
      QosError);
}

TEST_F(WeavingTest, DuplicateAssignmentRejected) {
  EXPECT_THROW(impl_->assign_characteristic(fake_characteristic("FT")),
               QosError);
}

TEST_F(WeavingTest, ClashingQosOpNamesRejected) {
  auto other = std::make_shared<QosEchoImpl>();
  other->assign_characteristic(fake_characteristic("A"));
  // Second characteristic with the same op name.
  CharacteristicDescriptor clash(
      "B", QosCategory::kOther, {},
      {QosOpDesc{"qos_A_op", QosOpKind::kMechanism}});
  EXPECT_THROW(other->assign_characteristic(clash), QosError);
}

TEST_F(WeavingTest, AttachDetachLifecycle) {
  class LifecycleImpl : public QosImpl {
   public:
    LifecycleImpl() : QosImpl("FT") {}
    void attach(QosServerContext& ctx) override { attached = &ctx; }
    void detach() override { attached = nullptr; }
    QosServerContext* attached = nullptr;
  };
  auto lifecycle = std::make_shared<LifecycleImpl>();
  impl_->set_active_impl(lifecycle);
  ASSERT_NE(lifecycle->attached, nullptr);
  // The aspect-integration interface is reachable through the context.
  EXPECT_NE(lifecycle->attached->state_access(), nullptr);
  impl_->set_active_impl(nullptr);
  EXPECT_EQ(lifecycle->attached, nullptr);
}

TEST_F(WeavingTest, WovenServantAppliesSameRules) {
  auto plain = std::make_shared<maqs::testing::EchoImpl>();
  auto woven = std::make_shared<WovenServant>(plain);
  woven->assign_characteristic(fake_characteristic("FT"));
  orb::ObjRef ref = server_.adapter().activate("woven-1", woven);
  EchoStub stub(client_, ref);
  EXPECT_EQ(stub.add(2, 3), 5);
  orb::RequestMessage req;
  req.object_key = "woven-1";
  req.operation = "qos_FT_op";
  EXPECT_EQ(client_.invoke_plain(ref.endpoint, std::move(req)).status,
            orb::ReplyStatus::kNotNegotiated);
  // EchoImpl has no state access.
  EXPECT_EQ(woven->state_access(), nullptr);
}

TEST_F(WeavingTest, WovenServantRejectsNull) {
  EXPECT_THROW(WovenServant(nullptr), QosError);
}

// ---- client-side mediator weaving ----

class TaggingMediator : public Mediator {
 public:
  TaggingMediator(std::string name, std::vector<std::string>& trace)
      : Mediator(std::move(name)), trace_(trace) {}

  void outbound(orb::RequestMessage& req) override {
    trace_.push_back("out:" + characteristic());
    req.body.push_back(0xFF);  // visible payload change
  }
  void inbound(const orb::RequestMessage&, orb::ReplyMessage&) override {
    trace_.push_back("in:" + characteristic());
  }

 private:
  std::vector<std::string>& trace_;
};

TEST_F(WeavingTest, MediatorInterceptsEveryCall) {
  // Use a plain echo (no QoS skeleton) and a mediator that appends one
  // byte: the server must see the modified stream (here: trailing garbage
  // is rejected by the skeleton, proving interception happened).
  EchoStub stub(client_, ref_);
  auto composite = std::make_shared<CompositeMediator>();
  composite->add(std::make_shared<TaggingMediator>("T", trace_));
  stub.set_mediator(composite);
  EXPECT_THROW(stub.add(1, 2), orb::SystemException);  // trailing byte
  EXPECT_EQ(trace_, (std::vector<std::string>{"out:T", "in:T"}));
}

TEST_F(WeavingTest, CompositeMediatorOrdering) {
  CompositeMediator composite;
  composite.add(std::make_shared<TaggingMediator>("A", trace_));
  composite.add(std::make_shared<TaggingMediator>("B", trace_));
  orb::RequestMessage req;
  composite.outbound(req);
  orb::ReplyMessage rep;
  composite.inbound(req, rep);
  // Outbound in order, inbound reversed.
  EXPECT_EQ(trace_, (std::vector<std::string>{"out:A", "out:B", "in:B",
                                              "in:A"}));
}

TEST_F(WeavingTest, CompositeMediatorManagement) {
  CompositeMediator composite;
  composite.add(std::make_shared<TaggingMediator>("A", trace_));
  EXPECT_THROW(composite.add(std::make_shared<TaggingMediator>("A", trace_)),
               QosError);
  EXPECT_NE(composite.find("A"), nullptr);
  EXPECT_EQ(composite.find("B"), nullptr);
  EXPECT_TRUE(composite.remove("A"));
  EXPECT_FALSE(composite.remove("A"));
  EXPECT_EQ(composite.size(), 0u);
  EXPECT_THROW(composite.add(nullptr), QosError);
}

TEST_F(WeavingTest, MediatorDefaultQosOperationRejects) {
  TaggingMediator mediator("X", trace_);
  EXPECT_THROW(mediator.qos_operation("qos_anything", {}), QosError);
}

}  // namespace
}  // namespace maqs::core
