// Replication QoS characteristic ("fault-tolerance through replica
// groups", paper §6).
//
// The mechanism reuses the network's multicast exactly as the paper
// motivates for the two-layer hierarchy (§4): the application-layer
// characteristic (k-availability) is implemented on top of a transport
// module that multicasts the request to a replica group and collects
// replies. Two delivery modes share the same multicast machinery —
// mechanism reuse across characteristics, the paper's own example of
// "a multicast on network layer can be used for k-availability as well as
// for diversity through majority votes on results" (§6, experiment E7):
//
//   - "failover": first successful reply wins (masks up to N-1 crashes),
//   - "voting":   wait for a majority of identical reply bodies (masks
//                 byzantine/faulty results, not just crashes).
//
// State initialization of new replicas ("new replicas need to be
// initialized to the same state as already running replicas", §3.1) uses
// the QoS-aspect-integration interface: ReplicationImpl exposes the QoS
// operations qos_get_state/qos_set_state, which reach the servant's
// StateAccess aspect. ReplicaGroup::add_replica performs the transfer.
#pragma once

#include <memory>
#include <vector>

#include "core/provider.hpp"

namespace maqs::characteristics {

const std::string& replication_name();         // "Replication"
const std::string& replication_module_name();  // "replication"

core::CharacteristicDescriptor replication_descriptor();
core::CharacteristicProvider make_replication_provider();
void register_replication_module();

/// Transport module: multicast invoke + reply collection.
class ReplicationModule final : public core::QosModule {
 public:
  ReplicationModule();

  orb::ReplyMessage invoke(orb::RequestMessage req,
                           const net::Address& dest) override;

  /// Commands: configure(group, mode, quorum); info().
  cdr::Any command(const std::string& op,
                   const std::vector<cdr::Any>& args) override;

  /// Replies that arrived after the decision (observability).
  std::uint64_t late_replies() const noexcept { return late_replies_; }

 private:
  orb::ReplyMessage invoke_failover(orb::RequestMessage req);
  orb::ReplyMessage invoke_voting(orb::RequestMessage req);

  std::string group_;
  std::string mode_ = "failover";
  int quorum_ = 2;
  std::uint64_t late_replies_ = 0;
};

/// Server-side QoS implementation: state-transfer QoS operations through
/// the aspect-integration interface, plus the replica's state epoch
/// (directory heartbeats carry it; lookups order profiles by it, so the
/// most caught-up replica leads as primary — the profile a client with no
/// replication module assigned sends to).
class ReplicationImpl final : public core::QosImpl {
 public:
  ReplicationImpl();

  void attach(core::QosServerContext& ctx) override;
  void detach() override;
  void dispatch_qos_op(const std::string& op, cdr::Decoder& args,
                       cdr::Encoder& out, orb::ServerContext& ctx) override;

  /// State version of this replica; bumped by each qos_set_state transfer
  /// and by advance_epoch(). Readable over the wire via the qos_epoch
  /// aspect op; feed naming::HeartbeatAgent::Config::epoch_probe from it.
  std::uint64_t epoch() const noexcept { return epoch_; }
  /// Called by the primary after a local state mutation, so its epoch
  /// stays ahead of every backup's.
  void advance_epoch() noexcept { ++epoch_; }

 private:
  core::QosServerContext* host_ = nullptr;
  std::uint64_t epoch_ = 0;
};

/// Management helper that wires a replica group: activates each replica's
/// servant under a shared object key, joins the ORB endpoints to the
/// multicast group and performs state transfer to late joiners. In a full
/// deployment this is the group-management infrastructure service; here
/// it doubles as the test/bench harness for E1/E7.
class ReplicaGroup {
 public:
  /// `group` is the multicast group name; `object_key` the shared key.
  ReplicaGroup(net::Network& network, std::string group,
               std::string object_key);

  const std::string& group() const noexcept { return group_; }
  const std::string& object_key() const noexcept { return object_key_; }
  std::size_t size() const noexcept { return members_.size(); }

  /// Registers a replica hosted by `orb`. `servant` must derive from
  /// QosServantBase with Replication assigned. When the group already has
  /// live members, state is transferred from the first live one (via the
  /// qos_get_state/qos_set_state QoS operations over the wire).
  orb::ObjRef add_replica(orb::Orb& orb,
                          std::shared_ptr<core::QosServantBase> servant);

  /// Removes the replica hosted by `orb` from the multicast group.
  void remove_replica(orb::Orb& orb);

  /// A client-facing reference carrying the QoS tag (group name).
  orb::ObjRef group_reference() const;

 private:
  struct Member {
    orb::Orb* orb;
    std::shared_ptr<core::QosServantBase> servant;
  };

  net::Network& network_;
  std::string group_;
  std::string object_key_;
  std::string repo_id_;
  std::vector<Member> members_;
};

}  // namespace maqs::characteristics
