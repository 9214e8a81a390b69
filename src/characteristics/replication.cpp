#include "characteristics/replication.hpp"

#include <algorithm>
#include <map>

#include "orb/dii.hpp"
#include "orb/stub.hpp"
#include "util/log.hpp"

namespace maqs::characteristics {

const std::string& replication_name() {
  static const std::string kName = "Replication";
  return kName;
}

const std::string& replication_module_name() {
  static const std::string kName = "replication";
  return kName;
}

core::CharacteristicDescriptor replication_descriptor() {
  return core::CharacteristicDescriptor(
      replication_name(), core::QosCategory::kFaultTolerance,
      {
          core::ParamDesc{"group", cdr::TypeCode::string_tc(),
                          cdr::Any::from_string(""), {}, {}},
          core::ParamDesc{"mode", cdr::TypeCode::string_tc(),
                          cdr::Any::from_string("failover"), {}, {}},
          core::ParamDesc{"quorum", cdr::TypeCode::long_tc(),
                          cdr::Any::from_long(2), 1, 15},
      },
      {
          core::QosOpDesc{"qos_get_state", core::QosOpKind::kAspect},
          core::QosOpDesc{"qos_set_state", core::QosOpKind::kAspect},
          core::QosOpDesc{"qos_epoch", core::QosOpKind::kAspect},
      });
}

// ---- module ----

ReplicationModule::ReplicationModule()
    : core::QosModule(replication_module_name()) {}

cdr::Any ReplicationModule::command(const std::string& op,
                                    const std::vector<cdr::Any>& args) {
  if (op == "configure") {
    if (args.size() < 3) {
      throw core::QosError("replication: configure(group, mode, quorum)");
    }
    group_ = args[0].as_string();
    mode_ = args[1].as_string();
    quorum_ = static_cast<int>(args[2].as_integer());
    if (mode_ != "failover" && mode_ != "voting") {
      throw core::QosError("replication: unknown mode '" + mode_ + "'");
    }
    if (quorum_ < 1) throw core::QosError("replication: quorum must be >= 1");
    return cdr::Any::make_void();
  }
  if (op == "info") {
    return cdr::Any::from_string(group_ + "/" + mode_ + "/q=" +
                                 std::to_string(quorum_));
  }
  return core::QosModule::command(op, args);
}

orb::ReplyMessage ReplicationModule::invoke(orb::RequestMessage req,
                                            const net::Address& /*dest*/) {
  if (group_.empty()) {
    throw core::QosError("replication: module not configured with a group");
  }
  req.context[core::kModuleContextKey] = util::to_bytes(name());
  if (mode_ == "voting") return invoke_voting(std::move(req));
  return invoke_failover(std::move(req));
}

orb::ReplyMessage ReplicationModule::invoke_failover(
    orb::RequestMessage req) {
  orb::Orb& orb = context().orb();
  std::optional<orb::ReplyMessage> winner;
  std::uint64_t request_id = 0;
  request_id = orb.send_multicast_request(
      group_, std::move(req), [&](const orb::ReplyMessage& rep) {
        if (winner.has_value()) {
          ++late_replies_;
          return;
        }
        winner = rep;  // first reply (or the synthesized timeout) decides
        if (rep.exception != "maqs/TIMEOUT") {
          orb.cancel_request(request_id);
        }
      });
  orb.run_until([&] { return winner.has_value(); });
  if (!winner.has_value()) {
    orb.cancel_request(request_id);
    throw orb::TransportError("replication: event loop drained");
  }
  return *std::move(winner);
}

orb::ReplyMessage ReplicationModule::invoke_voting(orb::RequestMessage req) {
  orb::Orb& orb = context().orb();
  // Tally identical (status, body) pairs until one reaches the quorum.
  std::map<std::pair<std::uint8_t, util::Bytes>, int> tally;
  std::optional<orb::ReplyMessage> winner;
  bool timed_out = false;
  std::uint64_t request_id = 0;
  request_id = orb.send_multicast_request(
      group_, std::move(req), [&](const orb::ReplyMessage& rep) {
        if (winner.has_value() || timed_out) {
          ++late_replies_;
          return;
        }
        if (rep.exception == "maqs/TIMEOUT") {
          timed_out = true;
          return;
        }
        const int votes =
            ++tally[{static_cast<std::uint8_t>(rep.status), rep.body}];
        if (votes >= quorum_) {
          winner = rep;
          orb.cancel_request(request_id);
        }
      });
  orb.run_until([&] { return winner.has_value() || timed_out; });
  if (winner.has_value()) return *std::move(winner);
  orb.cancel_request(request_id);
  orb::ReplyMessage failure;
  failure.status = orb::ReplyStatus::kSystemException;
  failure.exception = "maqs/NO_QUORUM";
  return failure;
}

void register_replication_module() {
  auto& registry = core::ModuleFactoryRegistry::instance();
  if (!registry.contains(replication_module_name())) {
    registry.register_factory(replication_module_name(), [] {
      return std::make_unique<ReplicationModule>();
    });
  }
}

// ---- server-side impl (state aspect) ----

ReplicationImpl::ReplicationImpl() : core::QosImpl(replication_name()) {}

void ReplicationImpl::attach(core::QosServerContext& ctx) {
  host_ = &ctx;
}

void ReplicationImpl::detach() {
  host_ = nullptr;
}

void ReplicationImpl::dispatch_qos_op(const std::string& op,
                                      cdr::Decoder& args, cdr::Encoder& out,
                                      orb::ServerContext& ctx) {
  if (op == "qos_get_state" || op == "qos_set_state") {
    if (host_ == nullptr || host_->state_access() == nullptr) {
      throw core::QosError(
          "replication: servant exposes no state-access aspect");
    }
    if (op == "qos_get_state") {
      args.expect_end();
      out.write_bytes(host_->state_access()->get_state());
    } else {
      const util::Bytes state = args.read_bytes();
      args.expect_end();
      host_->state_access()->set_state(state);
      // A state transfer brings this replica up to a new version.
      ++epoch_;
    }
    return;
  }
  if (op == "qos_epoch") {
    args.expect_end();
    out.write_u64(epoch_);
    return;
  }
  core::QosImpl::dispatch_qos_op(op, args, out, ctx);
}

// ---- provider ----

core::CharacteristicProvider make_replication_provider() {
  // Any side holding the provider may have to load the module.
  register_replication_module();
  core::CharacteristicProvider provider;
  provider.descriptor = replication_descriptor();
  provider.module = replication_module_name();
  provider.make_impl = [](const core::Agreement&, orb::Orb&,
                          core::QosTransport&) {
    return std::make_shared<ReplicationImpl>();
  };
  provider.client_setup = [](const core::Agreement& agreement,
                             const orb::ObjRef& target, orb::Orb&,
                             core::QosTransport& transport) {
    register_replication_module();
    std::string group = agreement.string_param("group");
    if (group.empty()) {
      if (const orb::QosProfile* profile =
              target.find_profile(replication_name())) {
        if (auto it = profile->properties.find("group");
            it != profile->properties.end()) {
          group = it->second;
        }
      }
    }
    if (group.empty()) {
      throw core::QosError(
          "replication: no group in agreement or IOR profile");
    }
    transport.load_module(replication_module_name())
        .command("configure",
                 {cdr::Any::from_string(group),
                  cdr::Any::from_string(agreement.string_param("mode")),
                  cdr::Any::from_longlong(agreement.int_param("quorum"))});
  };
  provider.resource_demand =
      [](const std::map<std::string, cdr::Any>& params) {
        return core::ResourceDemand{
            {"replicas",
             static_cast<double>(params.at("quorum").as_integer())}};
      };
  return provider;
}

// ---- group management ----

ReplicaGroup::ReplicaGroup(net::Network& network, std::string group,
                           std::string object_key)
    : network_(network),
      group_(std::move(group)),
      object_key_(std::move(object_key)) {
  network_.create_group(group_);
}

orb::ObjRef ReplicaGroup::add_replica(
    orb::Orb& orb, std::shared_ptr<core::QosServantBase> servant) {
  if (!servant->is_assigned(replication_name())) {
    throw core::QosError(
        "replica group: servant has no Replication characteristic "
        "assigned");
  }
  // Arm the server half of the characteristic (group-managed binding).
  auto impl = std::make_shared<ReplicationImpl>();
  core::Agreement agreement;
  agreement.characteristic = replication_name();
  agreement.object_key = object_key_;
  agreement.params = replication_descriptor().default_params();
  agreement.state = core::AgreementState::kActive;
  impl->bind_agreement(agreement);
  servant->set_active_impl(impl);

  orb::QosProfile profile;
  profile.characteristic = replication_name();
  profile.properties = {{"group", group_},
                        {"module", replication_module_name()}};
  orb::ObjRef ref =
      orb.adapter().activate(object_key_, servant, {profile});
  if (repo_id_.empty()) repo_id_ = servant->repo_id();

  // State transfer from the first live member, over the wire through the
  // aspect-integration QoS operations.
  for (const Member& member : members_) {
    if (!network_.is_alive(member.orb->endpoint().node)) continue;
    orb::RequestMessage get_state;
    get_state.object_key = object_key_;
    get_state.operation = "qos_get_state";
    orb::ReplyMessage rep =
        orb.invoke_plain(member.orb->endpoint(), std::move(get_state));
    orb::raise_for_status(rep);
    cdr::Decoder dec(rep.body);
    const util::Bytes state = dec.read_bytes();
    if (core::StateAccess* access = servant->state_access()) {
      access->set_state(state);
      impl->advance_epoch();  // same bump a wire qos_set_state performs
    }
    break;
  }

  network_.join_group(group_, orb.endpoint());
  members_.push_back(Member{&orb, std::move(servant)});
  return ref;
}

void ReplicaGroup::remove_replica(orb::Orb& orb) {
  network_.leave_group(group_, orb.endpoint());
  std::erase_if(members_,
                [&](const Member& member) { return member.orb == &orb; });
}

orb::ObjRef ReplicaGroup::group_reference() const {
  if (members_.empty()) {
    throw core::QosError("replica group: empty group has no reference");
  }
  orb::QosProfile profile;
  profile.characteristic = replication_name();
  profile.properties = {{"group", group_},
                        {"module", replication_module_name()}};
  orb::ObjRef ref;
  ref.repo_id = repo_id_;
  ref.endpoint = members_.front().orb->endpoint();
  ref.object_key = object_key_;
  ref.qos = {profile};
  // Every member is an alternate profile: clients running a
  // naming::ReplicaSelector can re-target per invocation; without one the
  // plain path sends to the leading profile, the primary.
  for (std::size_t i = 1; i < members_.size(); ++i) {
    ref.alternates.push_back(
        orb::AltProfile{members_[i].orb->endpoint(), object_key_});
  }
  return ref;
}

}  // namespace maqs::characteristics
