// Service directory: replica-group membership for the many-node system.
//
// The paper's validation leans on fault tolerance through replica groups
// and performance through load balancing; both need an infrastructure
// service that knows *where* the replicas of a logical service are. The
// ServiceDirectory is that service — itself an ordinary CORBA-style
// servant reached over the existing ORB and interceptor chain, so
// directory traffic enjoys the same resilience stack (retry, breaker,
// tracing) as application traffic.
//
// The model: a *service* (by name) owns a replica group; each member is
// one (endpoint, object key) profile plus the load and state epoch its
// last heartbeat advertised. lookup() hands out a multi-profile ObjRef
// (the primary plus alternates, see orb::ObjRef::alternates) ordered by
// state epoch — the most caught-up replica leads, which is exactly the
// primary a primary-backup client wants. Membership is leased:
// members that miss heartbeats for the configured TTL expire lazily on
// the next operation that touches their service, so expiry is a pure
// function of virtual time and stays deterministic under a fixed seed.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "orb/ior.hpp"
#include "orb/servant.hpp"
#include "sim/event_loop.hpp"

namespace maqs::naming {

/// Well-known object key the directory servant activates under.
const std::string& directory_object_key();  // "maqs.directory"
const std::string& directory_repo_id();     // "IDL:maqs/ServiceDirectory:1.0"

struct DirectoryConfig {
  /// Membership lease: a member expires this long after its last
  /// register/heartbeat.
  sim::Duration member_ttl = 500 * sim::kMillisecond;
};

struct DirectoryStats {
  std::uint64_t registers = 0;
  std::uint64_t heartbeats = 0;
  /// Heartbeats for members the directory does not know (expired, or the
  /// directory itself restarted) — answered "unknown" so the sender
  /// re-registers.
  std::uint64_t unknown_heartbeats = 0;
  std::uint64_t deregisters = 0;
  std::uint64_t lookups = 0;
  std::uint64_t expirations = 0;
};

/// One replica-group member as the directory sees it.
struct MemberRecord {
  orb::AltProfile profile;
  double load = 0.0;
  std::uint64_t epoch = 0;
  sim::TimePoint expires = 0;
};

/// The directory servant. Wire operations (compact CDR, plain path):
///
///   register   (service, repo_id, node, port, object_key, load, epoch)
///              -> bool accepted
///   heartbeat  (service, node, port, object_key, load, epoch) -> bool known
///   deregister (service, node, port, object_key) -> void
///   lookup     (service) -> ObjRef bytes (nil when unknown),
///              u32 n, n x (load f64, epoch u64)  [per profile, in order]
///
/// The in-process API below is what the skeleton delegates to; tests and
/// collocated deployments may call it directly.
class ServiceDirectory final : public orb::Servant {
 public:
  explicit ServiceDirectory(sim::EventLoop& loop, DirectoryConfig config = {});

  const DirectoryConfig& config() const noexcept { return config_; }
  /// Applies to leases granted from now on (existing expiry times stand).
  void set_config(DirectoryConfig config) noexcept { config_ = config; }
  const DirectoryStats& stats() const noexcept { return stats_; }

  /// Registers (or refreshes) a member; renews its lease.
  void register_member(const std::string& service,
                       const std::string& repo_id,
                       const orb::AltProfile& profile, double load,
                       std::uint64_t epoch);

  /// Renews a member's lease and updates its load/epoch report. False when
  /// the member is unknown — the caller should re-register.
  bool heartbeat(const std::string& service, const orb::AltProfile& profile,
                 double load, std::uint64_t epoch);

  /// Removes a member (no-op when absent).
  void deregister(const std::string& service,
                  const orb::AltProfile& profile);

  /// Live members of a service, primary (highest epoch) first; empty when
  /// unknown. Prunes expired members.
  std::vector<MemberRecord> members(const std::string& service);

  /// Multi-profile reference for the service (nil when unknown or empty).
  orb::ObjRef lookup(const std::string& service);

  /// Live member count after pruning.
  std::size_t member_count(const std::string& service);

  // -- orb::Servant --
  const std::string& repo_id() const override { return directory_repo_id(); }
  void dispatch(const std::string& operation, cdr::Decoder& args,
                cdr::Encoder& out, orb::ServerContext& ctx) override;

 private:
  struct Group {
    std::string repo_id;
    /// Registration order; lookups re-order by epoch, not this vector.
    std::vector<MemberRecord> members;
  };

  /// Drops expired members of the group; returns survivors in epoch order
  /// (stable for ties, so equal-epoch groups keep registration order).
  void prune(Group& group);
  std::vector<const MemberRecord*> ordered(const Group& group) const;

  sim::EventLoop& loop_;
  DirectoryConfig config_;
  DirectoryStats stats_;
  std::map<std::string, Group, std::less<>> groups_;
};

}  // namespace maqs::naming
