// Replication characteristic: k-availability under crash injection, state
// transfer to late joiners, majority voting against faulty replicas.
#include "characteristics/replication.hpp"

#include <gtest/gtest.h>

#include "core/negotiation.hpp"
#include "net/network.hpp"
#include "support/qos_echo.hpp"

namespace maqs::characteristics {
namespace {

using maqs::testing::EchoStub;
using maqs::testing::QosEchoImpl;

class ReplicationTest : public ::testing::Test {
 protected:
  ReplicationTest()
      : net_(loop_),
        client_(net_, "client", 1),
        client_transport_(client_),
        group_(net_, "grp-echo", "echo-svc") {
    register_replication_module();
  }

  /// Spins up a replica on its own host.
  std::shared_ptr<QosEchoImpl> add_replica() {
    const std::string node = "replica-" + std::to_string(replicas_.size());
    auto orb = std::make_unique<orb::Orb>(net_, node, 9000);
    auto servant = std::make_shared<QosEchoImpl>();
    servant->assign_characteristic(replication_descriptor());
    group_.add_replica(*orb, servant);
    replicas_.push_back(std::move(orb));
    servants_.push_back(servant);
    return servant;
  }

  /// Client stub wired through the replication module.
  EchoStub make_stub(const std::string& mode, int quorum) {
    orb::ObjRef ref = group_.group_reference();
    client_transport_.load_module(replication_module_name())
        .command("configure",
                 {cdr::Any::from_string(group_.group()),
                  cdr::Any::from_string(mode),
                  cdr::Any::from_longlong(quorum)});
    client_transport_.assign(group_.object_key(),
                             replication_module_name());
    return EchoStub(client_, ref);
  }

  sim::EventLoop loop_;
  net::Network net_;
  orb::Orb client_;
  core::QosTransport client_transport_;
  ReplicaGroup group_;
  std::vector<std::unique_ptr<orb::Orb>> replicas_;
  std::vector<std::shared_ptr<QosEchoImpl>> servants_;
};

TEST_F(ReplicationTest, FailoverMasksCrashes) {
  add_replica();
  add_replica();
  add_replica();
  EchoStub stub = make_stub("failover", 1);
  EXPECT_EQ(stub.echo("all up"), "all up");

  net_.crash("replica-0");
  EXPECT_EQ(stub.echo("one down"), "one down");
  net_.crash("replica-1");
  EXPECT_EQ(stub.echo("two down"), "two down");
}

TEST_F(ReplicationTest, AllReplicasDownTimesOut) {
  add_replica();
  add_replica();
  client_.set_default_timeout(100 * sim::kMillisecond);
  EchoStub stub = make_stub("failover", 1);
  net_.crash("replica-0");
  net_.crash("replica-1");
  EXPECT_THROW(stub.echo("anyone?"), orb::TransportError);
}

TEST_F(ReplicationTest, WritesReachAllReplicas) {
  auto s0 = add_replica();
  auto s1 = add_replica();
  auto s2 = add_replica();
  EchoStub stub = make_stub("failover", 1);
  stub.set_value(77);
  loop_.run_until_idle();  // let the multicast reach everyone
  EXPECT_EQ(s0->value(), 77);
  EXPECT_EQ(s1->value(), 77);
  EXPECT_EQ(s2->value(), 77);
}

TEST_F(ReplicationTest, LateJoinerReceivesStateTransfer) {
  auto s0 = add_replica();
  EchoStub stub = make_stub("failover", 1);
  stub.set_value(123);
  loop_.run_until_idle();
  // New replica joins after the write: must be initialized to the same
  // state ("new replicas need to be initialized to the same state as
  // already running replicas", §3.1).
  auto late = add_replica();
  EXPECT_EQ(late->value(), 123);
}

TEST_F(ReplicationTest, StateTransferSkipsCrashedSource) {
  auto s0 = add_replica();
  auto s1 = add_replica();
  EchoStub stub = make_stub("failover", 1);
  stub.set_value(55);
  loop_.run_until_idle();
  net_.crash("replica-0");
  // State must come from the surviving replica... replica-0 is first in
  // the member list but dead; the group helper skips it.
  auto late = add_replica();
  EXPECT_EQ(late->value(), 55);
}

TEST_F(ReplicationTest, CrashedReplicaRecoversViaStateTransfer) {
  auto s0 = add_replica();
  auto s1 = add_replica();
  EchoStub stub = make_stub("failover", 1);
  stub.set_value(10);
  loop_.run_until_idle();
  net_.crash("replica-1");
  group_.remove_replica(*replicas_[1]);
  stub.set_value(20);
  loop_.run_until_idle();
  // Recover node 1 with a fresh servant; it must pick up value 20.
  net_.restart("replica-1");
  auto recovered = std::make_shared<QosEchoImpl>();
  recovered->assign_characteristic(replication_descriptor());
  auto orb = std::make_unique<orb::Orb>(net_, "replica-1", 9001);
  group_.add_replica(*orb, recovered);
  replicas_.push_back(std::move(orb));
  EXPECT_EQ(recovered->value(), 20);
}

TEST_F(ReplicationTest, VotingReachesQuorumWithHealthyReplicas) {
  add_replica();
  add_replica();
  add_replica();
  EchoStub stub = make_stub("voting", 2);
  EXPECT_EQ(stub.add(20, 22), 42);
}

class FaultyEcho : public QosEchoImpl {
 public:
  std::int32_t add(std::int32_t a, std::int32_t b) override {
    return a + b + 1000;  // wrong result, not a crash
  }
};

TEST_F(ReplicationTest, VotingOutvotesFaultyReplica) {
  add_replica();
  add_replica();
  // Third replica returns wrong results ("diversity through majority
  // votes on results", §6).
  auto faulty = std::make_shared<FaultyEcho>();
  faulty->assign_characteristic(replication_descriptor());
  auto orb = std::make_unique<orb::Orb>(net_, "replica-faulty", 9000);
  group_.add_replica(*orb, faulty);
  replicas_.push_back(std::move(orb));

  EchoStub stub = make_stub("voting", 2);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(stub.add(i, i), 2 * i);  // the two honest replicas agree
  }
}

TEST_F(ReplicationTest, VotingWithoutQuorumFails) {
  add_replica();
  auto faulty = std::make_shared<FaultyEcho>();
  faulty->assign_characteristic(replication_descriptor());
  auto orb = std::make_unique<orb::Orb>(net_, "replica-faulty", 9000);
  group_.add_replica(*orb, faulty);
  replicas_.push_back(std::move(orb));

  client_.set_default_timeout(100 * sim::kMillisecond);
  // Quorum 2 but the two replicas disagree: no two identical replies.
  EchoStub stub = make_stub("voting", 2);
  EXPECT_THROW(stub.add(1, 1), orb::SystemException);
}

TEST_F(ReplicationTest, ModuleConfigurationValidation) {
  auto& module = client_transport_.load_module(replication_module_name());
  EXPECT_THROW(module.command("configure", {}), core::QosError);
  EXPECT_THROW(module.command("configure",
                              {cdr::Any::from_string("g"),
                               cdr::Any::from_string("bad-mode"),
                               cdr::Any::from_longlong(1)}),
               core::QosError);
  EXPECT_THROW(module.command("configure",
                              {cdr::Any::from_string("g"),
                               cdr::Any::from_string("voting"),
                               cdr::Any::from_longlong(0)}),
               core::QosError);
  module.command("configure", {cdr::Any::from_string("g"),
                               cdr::Any::from_string("voting"),
                               cdr::Any::from_longlong(3)});
  EXPECT_EQ(module.command("info", {}).as_string(), "g/voting/q=3");
}

TEST_F(ReplicationTest, UnconfiguredModuleRefusesTraffic) {
  add_replica();
  orb::ObjRef ref = group_.group_reference();
  client_transport_.assign(group_.object_key(), replication_module_name());
  EchoStub stub(client_, ref);
  EXPECT_THROW(stub.echo("x"), core::QosError);
}

TEST_F(ReplicationTest, GroupRequiresAssignedCharacteristic) {
  auto servant = std::make_shared<QosEchoImpl>();  // nothing assigned
  auto orb = std::make_unique<orb::Orb>(net_, "replica-x", 9000);
  EXPECT_THROW(group_.add_replica(*orb, servant), core::QosError);
}

TEST_F(ReplicationTest, EmptyGroupHasNoReference) {
  EXPECT_THROW(group_.group_reference(), core::QosError);
}

TEST_F(ReplicationTest, StateAspectReachableViaQosOps) {
  auto s0 = add_replica();
  s0->set_value(31);
  orb::RequestMessage req;
  req.object_key = "echo-svc";
  req.operation = "qos_get_state";
  orb::ReplyMessage rep =
      client_.invoke_plain(replicas_[0]->endpoint(), std::move(req));
  ASSERT_EQ(rep.status, orb::ReplyStatus::kOk);
  cdr::Decoder dec(rep.body);
  const util::Bytes state_bytes = dec.read_bytes();
  cdr::Decoder inner{util::BytesView(state_bytes)};
  EXPECT_EQ(inner.read_i32(), 31);
}

TEST_F(ReplicationTest, PassiveModePrimaryServesAlone) {
  auto primary = add_replica();
  auto backup_a = add_replica();
  auto backup_b = add_replica();

  // Primary-backup is not a module mode: with no module assigned the QoS
  // transport falls back to the plain path, which sends to the group
  // reference's leading profile (the primary); backups see no traffic.
  EXPECT_THROW(make_stub("passive", 1), core::QosError);
  EchoStub stub(client_, group_.group_reference());
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(stub.add(i, i), 2 * i);
  }
  EXPECT_EQ(primary->calls, 5);
  EXPECT_EQ(backup_a->calls, 0);
  EXPECT_EQ(backup_b->calls, 0);
}

TEST_F(ReplicationTest, GroupReferenceCarriesEveryMemberAsProfile) {
  add_replica();
  add_replica();
  add_replica();
  const orb::ObjRef ref = group_.group_reference();
  EXPECT_TRUE(ref.multi_profile());
  ASSERT_EQ(ref.profile_count(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(ref.profile(i).endpoint, replicas_[i]->endpoint());
    EXPECT_EQ(ref.profile(i).object_key, group_.object_key());
  }
}

TEST_F(ReplicationTest, StateTransferAdvancesTheEpoch) {
  auto primary = add_replica();
  EchoStub seed_stub = make_stub("failover", 1);
  seed_stub.set_value(7);

  // The late joiner receives one state transfer: epoch 0 -> 1; the
  // long-running primary never received one and stays at 0. Both are
  // readable over the wire through the qos_epoch aspect op.
  add_replica();
  auto epoch_of = [&](std::size_t i) {
    orb::RequestMessage req;
    req.object_key = group_.object_key();
    req.operation = "qos_epoch";
    orb::ReplyMessage rep =
        client_.invoke_plain(replicas_[i]->endpoint(), std::move(req));
    EXPECT_EQ(rep.status, orb::ReplyStatus::kOk);
    cdr::Decoder dec(rep.body);
    const std::uint64_t epoch = dec.read_u64();
    dec.expect_end();
    return epoch;
  };
  EXPECT_EQ(epoch_of(0), 0u);
  EXPECT_EQ(epoch_of(1), 1u);
  (void)primary;
}

}  // namespace
}  // namespace maqs::characteristics
