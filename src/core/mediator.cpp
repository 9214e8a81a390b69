#include "core/mediator.hpp"

#include <algorithm>
#include <optional>

#include "trace/trace.hpp"

namespace maqs::core {

void CompositeMediator::add(std::shared_ptr<Mediator> mediator) {
  if (!mediator) throw QosError("composite mediator: null delegate");
  if (find(mediator->characteristic())) {
    throw QosError("composite mediator: duplicate characteristic '" +
                   mediator->characteristic() + "'");
  }
  chain_.push_back(std::move(mediator));
  rebuild_fused();
  distribute_channel_version();
}

void CompositeMediator::distribute_channel_version() {
  // A lone member (or none) keeps standalone semantics: its mechanism
  // material stays versioned by its own agreement, exactly as if it were
  // bound by hand outside any composite.
  if (chain_.size() < 2) {
    for (const auto& mediator : chain_) mediator->set_channel_version(-1);
    return;
  }
  std::int64_t sum = 0;
  for (const auto& mediator : chain_) sum += mediator->agreement().version();
  for (const auto& mediator : chain_) {
    // Hand-built members (version 0) never joined a negotiation; leave
    // their bindings alone so legacy frames stay byte-identical.
    if (mediator->agreement().version() <= 0) continue;
    if (mediator->channel_version() == sum) continue;
    mediator->set_channel_version(sum);
    // Re-register the member's versioned material (codec binding, key
    // epoch) under the channel version. Copy first: bind_agreement
    // overwrites the member's stored agreement.
    const Agreement bound = mediator->agreement();
    mediator->bind_agreement(bound);
  }
}

bool CompositeMediator::rebind(const std::string& characteristic,
                               const Agreement& agreement) {
  const std::shared_ptr<Mediator> member = find(characteristic);
  if (!member) return false;
  if (chain_.size() >= 2 && agreement.version() > 0) {
    // Bump the channel before binding so the member registers its new
    // material under the NEW epoch instead of overwriting the binding
    // in-flight frames of the current epoch still need.
    std::int64_t sum = agreement.version();
    for (const auto& mediator : chain_) {
      if (mediator != member) sum += mediator->agreement().version();
    }
    member->set_channel_version(sum);
  }
  member->bind_agreement(agreement);
  distribute_channel_version();
  return true;
}

void CompositeMediator::rebuild_fused() {
  fused_.clear();
  for (const auto& mediator : chain_) {
    if (StreamingTransform* stage = mediator->streaming_transform()) {
      fused_.add(stage);
    }
  }
}

bool CompositeMediator::remove(const std::string& characteristic) {
  const auto it = std::find_if(chain_.begin(), chain_.end(),
                               [&](const std::shared_ptr<Mediator>& m) {
                                 return m->characteristic() == characteristic;
                               });
  if (it == chain_.end()) return false;
  chain_.erase(it);
  rebuild_fused();
  distribute_channel_version();
  return true;
}

std::shared_ptr<Mediator> CompositeMediator::find(
    const std::string& characteristic) const {
  for (const auto& mediator : chain_) {
    if (mediator->characteristic() == characteristic) return mediator;
  }
  return nullptr;
}

std::optional<orb::ReplyMessage> CompositeMediator::try_local(
    const orb::RequestMessage& req, const orb::ObjRef& target) {
  for (const auto& mediator : chain_) {
    if (auto reply = mediator->try_local(req, target)) return reply;
  }
  return std::nullopt;
}

void CompositeMediator::outbound(orb::RequestMessage& req,
                                 orb::ObjRef& target) {
  // Hooks first, in installation order, so each sees the payload as the
  // stub marshaled it; then one fused run applies every member's stage.
  // One span per characteristic either way: the chain emits it for stage
  // members, this loop for the rest.
  for (const auto& mediator : chain_) {
    std::optional<trace::SpanScope> span;
    if (mediator->streaming_transform() == nullptr) {
      span.emplace("mediator.outbound", mediator->characteristic());
    }
    mediator->outbound(req, target);
  }
  fused_.run_forward(req.body, {req.request_id, false});
}

bool CompositeMediator::needs_request_payload() const {
  for (const auto& mediator : chain_) {
    if (mediator->needs_request_payload()) return true;
  }
  return false;
}

void CompositeMediator::inbound(const orb::RequestMessage& req,
                                orb::ReplyMessage& rep) {
  // Mirror of outbound(): undo the stages (reverse run, so the last
  // outbound transform, outermost on the wire, goes first), then the hooks
  // in reverse order over the restored payload. Exceptions ship raw.
  if (rep.status == orb::ReplyStatus::kOk) {
    fused_.run_reverse(rep.body, {req.request_id, true});
  }
  for (auto it = chain_.rbegin(); it != chain_.rend(); ++it) {
    std::optional<trace::SpanScope> span;
    if ((*it)->streaming_transform() == nullptr) {
      span.emplace("mediator.inbound", (*it)->characteristic());
    }
    (*it)->inbound(req, rep);
  }
}

}  // namespace maqs::core
