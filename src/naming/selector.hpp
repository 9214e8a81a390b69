// Client-side replica selection and transparent failover.
//
// A multi-profile ObjRef (directory lookup result, replication group
// reference, or the group a LoadBalancing mediator names as the target)
// names a replica group; the ReplicaSelector decides, per invocation, which
// profile the call addresses. It points the call's one destination
// (ClientRequestInfo::dest) at that profile's endpoint inside the group
// and sets the request's object key; nothing is copied, and for a
// QoS-aware group the QoS router is handed the same endpoint. Two thin
// client interceptors realize it:
//
//   250 replica.select    pick a profile before the qos.route fork
//   375 replica.failover  on a locally synthesized fault, re-drive the
//                         levels below against the next untried profile
//
// Selection policies: round-robin, least-loaded (fed through
// update_loads() by the load figures replicas piggyback on directory
// heartbeats or report through LoadBalancing's qos_load), and locality
// (prefer replicas on the caller's node).
// Profiles whose (endpoint, object key) circuit breaker is open, and
// profiles recently quarantined by a failover, are skipped while any
// alternative remains.
//
// Failover is idempotency-gated: a CIRCUIT_OPEN fast-fail is provably
// unsent and always safe to re-target; a TIMEOUT may have executed, so it
// fails over only when the config says the service is idempotent. Each
// failover re-targets with a fresh request id and resets the retry
// stage's attempt budget — the retry policy applies per replica.
//
// All cross-stage state (tried-profile mask, current profile index) lives
// in one SlotTable slot, so concurrent nested invocations never share
// mutable selector state and the hot path stays allocation-free.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "orb/interceptor.hpp"
#include "orb/orb.hpp"

namespace maqs::naming {

enum class SelectPolicy : std::uint8_t {
  kRoundRobin,
  kLeastLoaded,
  kLocality,
};

struct SelectorConfig {
  SelectPolicy policy = SelectPolicy::kRoundRobin;
  /// Failover on "maqs/TIMEOUT" replies too (declare the service
  /// idempotent). CIRCUIT_OPEN failover is always on: a fast-failed
  /// request was never sent.
  bool failover_on_timeout = false;
  /// How long a profile sits out after a failover charged it.
  sim::Duration quarantine_period = 200 * sim::kMillisecond;
};

struct SelectorStats {
  std::uint64_t selections = 0;
  std::uint64_t failovers = 0;
  /// Candidates passed over because quarantined or breaker-open.
  std::uint64_t skips = 0;
  /// Invocations that ran out of untried profiles (the last fault reply
  /// then surfaces through the local_fault contract above).
  std::uint64_t exhausted = 0;
};

class ReplicaSelector {
 public:
  explicit ReplicaSelector(orb::Orb& orb, SelectorConfig config = {});
  ~ReplicaSelector();

  ReplicaSelector(const ReplicaSelector&) = delete;
  ReplicaSelector& operator=(const ReplicaSelector&) = delete;

  const SelectorConfig& config() const noexcept { return config_; }
  const SelectorStats& stats() const noexcept { return stats_; }

  /// Feed fresh per-profile load figures for a group (index-aligned with
  /// ObjRef::profile(i)), e.g. from DirectoryClient::lookup's ServiceView.
  void update_loads(std::string_view group_key,
                    const std::vector<double>& loads);

  /// The replica.select stage's per-call choice for senders that bypass
  /// the client chain (async send_request): a profile index of `group`,
  /// counted like a chain selection.
  std::size_t select(const orb::ObjRef& group);

  /// How many invocations each profile of a group has received (selection
  /// + failover re-targets); empty when the group is unknown.
  std::vector<std::uint64_t> dispatch_counts(std::string_view group_key) const;

  /// Drops quarantine/cursor/load state for all groups (tests).
  void reset();

 private:
  class SelectInterceptor final : public orb::ClientInterceptor {
   public:
    explicit SelectInterceptor(ReplicaSelector& owner) : owner_(owner) {}
    const char* name() const noexcept override { return "replica.select"; }
    orb::SendAction send_request(orb::ClientRequestInfo& info) override;

   private:
    ReplicaSelector& owner_;
  };

  class FailoverInterceptor final : public orb::ClientInterceptor {
   public:
    explicit FailoverInterceptor(ReplicaSelector& owner) : owner_(owner) {}
    const char* name() const noexcept override { return "replica.failover"; }
    orb::ReplyAction receive_reply(orb::ClientRequestInfo& info) override;

   private:
    ReplicaSelector& owner_;
  };

  /// Per-group mutable state, keyed by the group's primary object key.
  struct GroupState {
    std::vector<double> loads;
    std::vector<sim::TimePoint> quarantine_until;
    std::vector<std::uint64_t> dispatched;
    std::size_t cursor = 0;

    void ensure(std::size_t n) {
      if (loads.size() < n) loads.resize(n, 0.0);
      if (quarantine_until.size() < n) quarantine_until.resize(n, 0);
      if (dispatched.size() < n) dispatched.resize(n, 0);
    }
  };

  static constexpr std::size_t kMaxProfiles = 32;

  GroupState& group_state(const orb::ObjRef& group);

  /// Picks a profile index by policy among candidates not in `tried_mask`,
  /// preferring non-quarantined, breaker-closed ones. Returns kMaxProfiles
  /// when every profile has been tried.
  std::size_t pick(const orb::ObjRef& group, GroupState& state,
                   std::uint32_t tried_mask);

  /// Points the invocation at profile `idx` and records it in the slot.
  void apply(orb::ClientRequestInfo& info, const orb::ObjRef& group,
             GroupState& state, std::size_t idx);

  bool blocked(const orb::ObjRef& group, const GroupState& state,
               std::size_t idx) const;

  orb::SendAction on_send(orb::ClientRequestInfo& info);
  orb::ReplyAction on_reply(orb::ClientRequestInfo& info);

  orb::Orb& orb_;
  SelectorConfig config_;
  SelectorStats stats_;
  SelectInterceptor select_ci_;
  FailoverInterceptor failover_ci_;
  std::size_t slot_ = 0;
  std::map<std::string, GroupState, std::less<>> groups_;
};

}  // namespace maqs::naming
