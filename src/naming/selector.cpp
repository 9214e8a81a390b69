#include "naming/selector.hpp"

#include <string>
#include <utility>

#include "trace/trace.hpp"

namespace maqs::naming {

namespace {

// Slot layout: low 32 bits = tried-profile bitmask, bits 32..39 = the
// profile index the invocation currently addresses.
std::uint32_t slot_mask(std::uint64_t v) noexcept {
  return static_cast<std::uint32_t>(v & 0xffffffffu);
}
std::size_t slot_index(std::uint64_t v) noexcept {
  return static_cast<std::size_t>((v >> 32) & 0xffu);
}
std::uint64_t slot_pack(std::uint32_t mask, std::size_t index) noexcept {
  return static_cast<std::uint64_t>(mask) |
         (static_cast<std::uint64_t>(index & 0xffu) << 32);
}

/// Profile `i` of `group` (see ObjRef::profile), in place.
const net::Address& profile_endpoint(const orb::ObjRef& group,
                                     std::size_t i) {
  return i == 0 ? group.endpoint : group.alternates[i - 1].endpoint;
}
const std::string& profile_key(const orb::ObjRef& group, std::size_t i) {
  return i == 0 ? group.object_key : group.alternates[i - 1].object_key;
}

/// The group a call addresses, or nullptr when its target has one profile.
const orb::ObjRef* addressed_group(const orb::ClientRequestInfo& info) {
  return info.target != nullptr && info.target->multi_profile() ? info.target
                                                                : nullptr;
}

}  // namespace

ReplicaSelector::ReplicaSelector(orb::Orb& orb, SelectorConfig config)
    : orb_(orb), config_(config), select_ci_(*this), failover_ci_(*this) {
  slot_ = orb_.allocate_client_slot();
  orb_.register_client_interceptor(&select_ci_,
                                   orb::priorities::kClientReplicaSelect);
  orb_.register_client_interceptor(&failover_ci_,
                                   orb::priorities::kClientReplicaFailover);
}

ReplicaSelector::~ReplicaSelector() {
  orb_.unregister_client_interceptor(&select_ci_);
  orb_.unregister_client_interceptor(&failover_ci_);
}

void ReplicaSelector::update_loads(std::string_view group_key,
                                   const std::vector<double>& loads) {
  auto it = groups_.find(group_key);
  GroupState& state =
      it != groups_.end()
          ? it->second
          : groups_.emplace(std::string(group_key), GroupState{})
                .first->second;
  state.ensure(loads.size());
  for (std::size_t i = 0; i < loads.size(); ++i) state.loads[i] = loads[i];
}

std::size_t ReplicaSelector::select(const orb::ObjRef& group) {
  GroupState& state = group_state(group);
  const std::size_t idx = pick(group, state, 0);
  ++state.dispatched[idx];
  ++stats_.selections;
  return idx;
}

std::vector<std::uint64_t> ReplicaSelector::dispatch_counts(
    std::string_view group_key) const {
  auto it = groups_.find(group_key);
  if (it == groups_.end()) return {};
  return it->second.dispatched;
}

void ReplicaSelector::reset() { groups_.clear(); }

ReplicaSelector::GroupState& ReplicaSelector::group_state(
    const orb::ObjRef& group) {
  auto it = groups_.find(std::string_view(group.object_key));
  if (it == groups_.end()) {
    it = groups_.emplace(group.object_key, GroupState{}).first;
  }
  it->second.ensure(std::min(group.profile_count(), kMaxProfiles));
  return it->second;
}

bool ReplicaSelector::blocked(const orb::ObjRef& group,
                              const GroupState& state,
                              std::size_t idx) const {
  if (state.quarantine_until[idx] > orb_.loop().now()) return true;
  return orb_.breaker_state(profile_endpoint(group, idx),
                            profile_key(group, idx)) ==
         orb::BreakerState::kOpen;
}

std::size_t ReplicaSelector::pick(const orb::ObjRef& group, GroupState& state,
                                  std::uint32_t tried_mask) {
  const std::size_t n = std::min(group.profile_count(), kMaxProfiles);
  // Two passes: first only healthy candidates (not quarantined, breaker
  // not open), then — when every untried profile looks unhealthy — any
  // untried one. A degraded replica beats a guaranteed failure.
  for (int pass = 0; pass < 2; ++pass) {
    const bool filtered = pass == 0;
    std::size_t best = kMaxProfiles;
    switch (config_.policy) {
      case SelectPolicy::kRoundRobin: {
        for (std::size_t step = 0; step < n; ++step) {
          const std::size_t idx = (state.cursor + step) % n;
          if (tried_mask & (1u << idx)) continue;
          if (filtered && blocked(group, state, idx)) {
            ++stats_.skips;
            continue;
          }
          best = idx;
          break;
        }
        break;
      }
      case SelectPolicy::kLeastLoaded: {
        for (std::size_t idx = 0; idx < n; ++idx) {
          if (tried_mask & (1u << idx)) continue;
          if (filtered && blocked(group, state, idx)) {
            ++stats_.skips;
            continue;
          }
          if (best == kMaxProfiles || state.loads[idx] < state.loads[best]) {
            best = idx;
          }
        }
        break;
      }
      case SelectPolicy::kLocality: {
        const std::string& here = orb_.endpoint().node;
        std::size_t fallback = kMaxProfiles;
        for (std::size_t step = 0; step < n; ++step) {
          const std::size_t idx = (state.cursor + step) % n;
          if (tried_mask & (1u << idx)) continue;
          if (filtered && blocked(group, state, idx)) {
            ++stats_.skips;
            continue;
          }
          if (profile_endpoint(group, idx).node == here) {
            best = idx;
            break;
          }
          if (fallback == kMaxProfiles) fallback = idx;
        }
        if (best == kMaxProfiles) best = fallback;
        break;
      }
    }
    if (best != kMaxProfiles) {
      if (config_.policy != SelectPolicy::kLeastLoaded) {
        state.cursor = (best + 1) % n;
      }
      return best;
    }
  }
  return kMaxProfiles;
}

void ReplicaSelector::apply(orb::ClientRequestInfo& info,
                            const orb::ObjRef& group, GroupState& state,
                            std::size_t idx) {
  // The group reference outlives the call (the stub's, or held by the
  // record when a mediator named it): point into it, copy nothing.
  info.dest = &profile_endpoint(group, idx);
  info.request.object_key = profile_key(group, idx);
  ++state.dispatched[idx];
  const std::uint64_t prev = info.slots.get(slot_);
  info.slots.set(slot_,
                 slot_pack(slot_mask(prev) | (1u << idx), idx));
}

orb::SendAction ReplicaSelector::on_send(orb::ClientRequestInfo& info) {
  const orb::ObjRef* group = addressed_group(info);
  if (group == nullptr) return orb::SendAction::kContinue;
  GroupState& state = group_state(*group);
  const std::size_t idx =
      pick(*group, state, slot_mask(info.slots.get(slot_)));
  if (idx == kMaxProfiles) {
    // Nothing untried left (re-driven walk); surface whatever comes back.
    return orb::SendAction::kContinue;
  }
  apply(info, *group, state, idx);
  ++stats_.selections;
  if (trace::tracing_active()) {
    trace::point("replica.select",
                 "group=" + group->object_key +
                     " idx=" + std::to_string(idx) +
                     " dest=" + info.dest->to_string() + "/" +
                     info.request.object_key);
  }
  return orb::SendAction::kContinue;
}

orb::ReplyAction ReplicaSelector::on_reply(orb::ClientRequestInfo& info) {
  const orb::ObjRef* group = addressed_group(info);
  if (group == nullptr) return orb::ReplyAction::kContinue;
  const orb::ReplyMessage& rep = info.reply;
  if (!rep.synthesized_locally ||
      rep.status != orb::ReplyStatus::kSystemException) {
    return orb::ReplyAction::kContinue;
  }
  // CIRCUIT_OPEN is provably unsent — always safe to re-target. TIMEOUT
  // may have executed server-side, so only idempotent services opt in.
  const bool eligible =
      rep.exception == "maqs/CIRCUIT_OPEN" ||
      (config_.failover_on_timeout && rep.exception == "maqs/TIMEOUT");
  if (!eligible) return orb::ReplyAction::kContinue;

  GroupState& state = group_state(*group);
  const std::uint64_t slot = info.slots.get(slot_);
  const std::size_t failed = slot_index(slot);
  if (failed < state.quarantine_until.size()) {
    state.quarantine_until[failed] =
        orb_.loop().now() + config_.quarantine_period;
  }
  const std::size_t next = pick(*group, state, slot_mask(slot));
  if (next == kMaxProfiles) {
    ++stats_.exhausted;
    return orb::ReplyAction::kContinue;
  }
  apply(info, *group, state, next);
  // Fresh id (a straggler for the failed attempt must never satisfy the
  // re-targeted one) and a fresh per-replica retry budget.
  info.request.request_id = orb_.next_request_id();
  info.attempt = 1;
  ++stats_.failovers;
  if (trace::tracing_active()) {
    trace::point("replica.failover",
                 "group=" + group->object_key + " failed_idx=" +
                     std::to_string(failed) + " next_idx=" +
                     std::to_string(next) + " dest=" +
                     info.dest->to_string() + "/" +
                     info.request.object_key + " " + rep.exception);
  }
  return orb::ReplyAction::kRetry;
}

orb::SendAction ReplicaSelector::SelectInterceptor::send_request(
    orb::ClientRequestInfo& info) {
  return owner_.on_send(info);
}

orb::ReplyAction ReplicaSelector::FailoverInterceptor::receive_reply(
    orb::ClientRequestInfo& info) {
  return owner_.on_reply(info);
}

}  // namespace maqs::naming
