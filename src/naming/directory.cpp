#include "naming/directory.hpp"

#include <algorithm>
#include <utility>

#include "orb/exceptions.hpp"
#include "trace/trace.hpp"
#include "util/log.hpp"

namespace maqs::naming {

const std::string& directory_object_key() {
  static const std::string kKey = "maqs.directory";
  return kKey;
}

const std::string& directory_repo_id() {
  static const std::string kId = "IDL:maqs/ServiceDirectory:1.0";
  return kId;
}

ServiceDirectory::ServiceDirectory(sim::EventLoop& loop,
                                   DirectoryConfig config)
    : loop_(loop), config_(config) {}

void ServiceDirectory::register_member(const std::string& service,
                                       const std::string& repo_id,
                                       const orb::AltProfile& profile,
                                       double load, std::uint64_t epoch) {
  ++stats_.registers;
  Group& group = groups_[service];
  if (group.repo_id.empty()) group.repo_id = repo_id;
  prune(group);
  const sim::TimePoint expires = loop_.now() + config_.member_ttl;
  for (MemberRecord& member : group.members) {
    if (member.profile == profile) {
      member.load = load;
      member.epoch = epoch;
      member.expires = expires;
      return;
    }
  }
  group.members.push_back(MemberRecord{profile, load, epoch, expires});
  MAQS_INFO() << "directory: " << service << " += "
              << profile.endpoint.to_string() << "/" << profile.object_key
              << " (" << group.members.size() << " members)";
}

bool ServiceDirectory::heartbeat(const std::string& service,
                                 const orb::AltProfile& profile, double load,
                                 std::uint64_t epoch) {
  ++stats_.heartbeats;
  auto it = groups_.find(service);
  if (it != groups_.end()) {
    prune(it->second);
    for (MemberRecord& member : it->second.members) {
      if (member.profile == profile) {
        member.load = load;
        member.epoch = epoch;
        member.expires = loop_.now() + config_.member_ttl;
        return true;
      }
    }
  }
  ++stats_.unknown_heartbeats;
  return false;
}

void ServiceDirectory::deregister(const std::string& service,
                                  const orb::AltProfile& profile) {
  ++stats_.deregisters;
  auto it = groups_.find(service);
  if (it == groups_.end()) return;
  std::erase_if(it->second.members, [&](const MemberRecord& member) {
    return member.profile == profile;
  });
}

void ServiceDirectory::prune(Group& group) {
  const sim::TimePoint now = loop_.now();
  const std::size_t before = group.members.size();
  std::erase_if(group.members, [now](const MemberRecord& member) {
    return member.expires <= now;
  });
  stats_.expirations += before - group.members.size();
}

std::vector<const MemberRecord*> ServiceDirectory::ordered(
    const Group& group) const {
  std::vector<const MemberRecord*> out;
  out.reserve(group.members.size());
  for (const MemberRecord& member : group.members) out.push_back(&member);
  // Highest epoch leads (the primary-backup primary); stable keeps
  // registration order among equals, so the ordering is deterministic.
  std::stable_sort(out.begin(), out.end(),
                   [](const MemberRecord* a, const MemberRecord* b) {
                     return a->epoch > b->epoch;
                   });
  return out;
}

std::vector<MemberRecord> ServiceDirectory::members(
    const std::string& service) {
  auto it = groups_.find(service);
  if (it == groups_.end()) return {};
  prune(it->second);
  std::vector<MemberRecord> out;
  for (const MemberRecord* member : ordered(it->second)) {
    out.push_back(*member);
  }
  return out;
}

orb::ObjRef ServiceDirectory::lookup(const std::string& service) {
  ++stats_.lookups;
  orb::ObjRef ref;
  auto it = groups_.find(service);
  if (it == groups_.end()) return ref;
  prune(it->second);
  if (it->second.members.empty()) return ref;
  const std::vector<const MemberRecord*> order = ordered(it->second);
  ref.repo_id = it->second.repo_id;
  ref.endpoint = order.front()->profile.endpoint;
  ref.object_key = order.front()->profile.object_key;
  for (std::size_t i = 1; i < order.size(); ++i) {
    ref.alternates.push_back(order[i]->profile);
  }
  return ref;
}

std::size_t ServiceDirectory::member_count(const std::string& service) {
  auto it = groups_.find(service);
  if (it == groups_.end()) return 0;
  prune(it->second);
  return it->second.members.size();
}

void ServiceDirectory::dispatch(const std::string& operation,
                                cdr::Decoder& args, cdr::Encoder& out,
                                orb::ServerContext& ctx) {
  (void)ctx;
  if (operation == "register") {
    const std::string service = args.read_string();
    const std::string repo = args.read_string();
    orb::AltProfile profile;
    profile.endpoint.node = args.read_string();
    profile.endpoint.port = args.read_u16();
    profile.object_key = args.read_string();
    const double load = args.read_f64();
    const std::uint64_t epoch = args.read_u64();
    args.expect_end();
    register_member(service, repo, profile, load, epoch);
    out.write_bool(true);
  } else if (operation == "heartbeat") {
    const std::string service = args.read_string();
    orb::AltProfile profile;
    profile.endpoint.node = args.read_string();
    profile.endpoint.port = args.read_u16();
    profile.object_key = args.read_string();
    const double load = args.read_f64();
    const std::uint64_t epoch = args.read_u64();
    args.expect_end();
    out.write_bool(heartbeat(service, profile, load, epoch));
  } else if (operation == "deregister") {
    const std::string service = args.read_string();
    orb::AltProfile profile;
    profile.endpoint.node = args.read_string();
    profile.endpoint.port = args.read_u16();
    profile.object_key = args.read_string();
    args.expect_end();
    deregister(service, profile);
  } else if (operation == "lookup") {
    const std::string service = args.read_string();
    args.expect_end();
    // The reference (nil for unknown services) plus the per-profile load
    // and epoch reports, aligned with the reference's profile indices —
    // the client-side selector feeds its least-loaded policy from these.
    auto it = groups_.find(service);
    orb::ObjRef ref = lookup(service);
    out.write_bytes(ref.encode());
    if (ref.is_nil() || it == groups_.end()) {
      out.write_u32(0);
      return;
    }
    const std::vector<const MemberRecord*> order = ordered(it->second);
    out.write_u32(static_cast<std::uint32_t>(order.size()));
    for (const MemberRecord* member : order) {
      out.write_f64(member->load);
      out.write_u64(member->epoch);
    }
  } else {
    throw orb::BadOperation("ServiceDirectory: unknown operation " +
                            operation);
  }
}

}  // namespace maqs::naming
