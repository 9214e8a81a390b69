#include "core/mediator.hpp"

#include <optional>

#include "trace/trace.hpp"

namespace maqs::core {

void CompositeMediator::add(std::shared_ptr<Mediator> mediator) {
  if (!mediator) throw QosError("composite mediator: null delegate");
  if (find(mediator->characteristic())) {
    throw QosError("composite mediator: duplicate characteristic '" +
                   mediator->characteristic() + "'");
  }
  delegates_.add(std::move(mediator));
}

std::optional<orb::ReplyMessage> CompositeMediator::try_local(
    const orb::RequestMessage& req) {
  for (const auto& mediator : delegates_.members()) {
    if (auto reply = mediator->try_local(req)) return reply;
  }
  return std::nullopt;
}

std::shared_ptr<const orb::ObjRef> CompositeMediator::target() const {
  std::shared_ptr<const orb::ObjRef> named;
  for (const auto& mediator : delegates_.members()) {
    if (auto ref = mediator->target()) named = std::move(ref);
  }
  return named;
}

void CompositeMediator::outbound(orb::RequestMessage& req) {
  // Hooks first, in installation order, so each sees the payload as the
  // stub marshaled it; then one fused run applies every member's stage.
  // One span per characteristic either way: the chain emits it for stage
  // members, this loop for the rest.
  for (const auto& mediator : delegates_.members()) {
    std::optional<trace::SpanScope> span;
    if (mediator->streaming_transform() == nullptr) {
      span.emplace("mediator.outbound", mediator->characteristic());
    }
    mediator->outbound(req);
  }
  delegates_.fused().run_forward(req.body, {req.request_id, false});
}

bool CompositeMediator::needs_request_payload() const {
  for (const auto& mediator : delegates_.members()) {
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
    delegates_.fused().run_reverse(rep.body, {req.request_id, true});
  }
  const auto& chain = delegates_.members();
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    std::optional<trace::SpanScope> span;
    if ((*it)->streaming_transform() == nullptr) {
      span.emplace("mediator.inbound", (*it)->characteristic());
    }
    (*it)->inbound(req, rep);
  }
}

}  // namespace maqs::core
