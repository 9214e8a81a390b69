#include "orb/interceptor.hpp"

#include <string>
#include <utility>

#include "orb/orb.hpp"
#include "util/log.hpp"

namespace maqs::orb {

namespace {

/// Maps a locally synthesized fault reply to the TransportError the
/// blocking invocation contract promises. Never returns.
[[noreturn]] void throw_local_fault(const ReplyMessage& rep) {
  if (rep.exception == "maqs/TIMEOUT") {
    throw TransportError("orb: request timed out");
  }
  if (rep.exception == "maqs/CIRCUIT_OPEN") {
    throw TransportError("orb: circuit breaker open");
  }
  throw TransportError("orb: " + rep.exception);
}

}  // namespace

// ---- trace.client (100) ----

SendAction TraceClientInterceptor::send_request(ClientRequestInfo& info) {
  trace::TraceRecorder* rec = orb_.trace_recorder();
  if (rec == nullptr || !rec->enabled()) return SendAction::kContinue;
  // Nest under an active scope on the same recorder (a gateway.request
  // span, a servant making a downstream call); otherwise mint a fresh
  // trace for this invocation.
  trace::TraceContext parent;
  if (const trace::SpanScope::Active* outer = trace::SpanScope::active();
      outer != nullptr && outer->recorder == rec) {
    parent = outer->ctx;
  } else {
    parent = rec->make_trace();
  }
  if (!parent.sampled()) return SendAction::kContinue;
  info.root_span.emplace(*rec, parent, "client.request",
                         info.request.operation);
  info.request.context.set(trace::kTraceContextKey,
                           trace::encode_context(info.root_span->context()));
  return SendAction::kContinue;
}

// ---- mediator (200) ----

SendAction MediatorClientInterceptor::send_request(ClientRequestInfo& info) {
  ClientDelegate* mediator = info.mediator;
  if (mediator == nullptr) return SendAction::kContinue;
  if (auto local = mediator->try_local(info.request)) {
    // Local answer: inbound() is not consulted (completing from
    // send_request skips this level's own receive_reply).
    info.reply = *std::move(local);
    return SendAction::kComplete;
  }
  // Retain the request as the stub marshaled it, before outbound()
  // transforms the body: inbound() must see what try_local() saw (a cache
  // fills under the key it is probed with).
  if (mediator->needs_request_payload()) {
    info.retained = info.request;
  } else {
    // inbound() only correlates on the header: retain the cheap fields
    // and spare the copy of the marshaled arguments.
    info.retained.request_id = info.request.request_id;
    info.retained.kind = info.request.kind;
    info.retained.qos_aware = info.request.qos_aware;
    info.retained.object_key = info.request.object_key;
    info.retained.target_module = info.request.target_module;
    info.retained.operation = info.request.operation;
  }
  // A delegate that names another reference (load balancing's group)
  // re-targets the levels below; the record holds the reference until the
  // call completes.
  if ((info.named_target = mediator->target())) {
    info.target = info.named_target.get();
    info.dest = &info.target->endpoint;
    info.request.object_key = info.target->object_key;
  }
  mediator->outbound(info.request);
  return SendAction::kContinue;
}

ReplyAction MediatorClientInterceptor::receive_reply(ClientRequestInfo& info) {
  if (info.mediator != nullptr) {
    info.mediator->inbound(info.retained, info.reply);
  }
  return ReplyAction::kContinue;
}

// ---- qos.route (300) ----

SendAction RouteClientInterceptor::send_request(ClientRequestInfo& info) {
  RequestRouter* router = orb_.router();
  if (info.target->qos_aware() && router != nullptr) {
    ++stats_.qos_path;
    info.request.qos_aware = true;
    info.reply = router->route(*info.dest, std::move(info.request));
    return SendAction::kComplete;
  }
  ++stats_.plain_path;
  return SendAction::kContinue;
}

// ---- local_fault (350) ----

ReplyAction LocalFaultClientInterceptor::receive_reply(
    ClientRequestInfo& info) {
  if (info.reply.synthesized_locally &&
      info.reply.status == ReplyStatus::kSystemException) {
    throw_local_fault(info.reply);
  }
  return ReplyAction::kContinue;
}

// ---- retry (400) ----

SendAction RetryClientInterceptor::send_request(ClientRequestInfo& info) {
  if (advisor_ == nullptr) return SendAction::kContinue;
  if (info.attempt == 1) {
    info.retry_engaged = true;
    info.started = orb_.loop().now();
  }
  return SendAction::kContinue;
}

ReplyAction RetryClientInterceptor::receive_reply(ClientRequestInfo& info) {
  if (advisor_ == nullptr ||
      info.reply.status != ReplyStatus::kSystemException) {
    return ReplyAction::kContinue;
  }
  const std::optional<sim::Duration> backoff = advisor_->on_attempt_failed(
      *info.dest, info.request, info.reply, info.attempt,
      orb_.loop().now() - info.started);
  if (!backoff.has_value()) return ReplyAction::kContinue;
  ++stats_.requests_retried;
  if (trace::tracing_active()) {
    trace::point("retry.backoff",
                 "attempt=" + std::to_string(info.attempt) +
                     " backoff_ns=" + std::to_string(*backoff) + " " +
                     info.reply.exception);
  }
  if (*backoff > 0) {
    bool fired = false;
    orb_.loop().schedule(*backoff, [&fired] { fired = true; });
    orb_.run_until([&fired] { return fired; });
  }
  // Fresh id per attempt: a straggler reply to an abandoned attempt must
  // never satisfy (or double-complete) the retried one.
  info.request.request_id = orb_.next_request_id();
  ++info.attempt;
  return ReplyAction::kRetry;
}

// ---- trace.attempt (450) ----

SendAction AttemptTraceClientInterceptor::send_request(
    ClientRequestInfo& info) {
  if (info.retry_engaged && trace::tracing_active()) {
    info.attempt_span.emplace("retry.attempt",
                              "attempt=" + std::to_string(info.attempt));
  }
  return SendAction::kContinue;
}

ReplyAction AttemptTraceClientInterceptor::receive_reply(
    ClientRequestInfo& info) {
  info.attempt_span.reset();
  return ReplyAction::kContinue;
}

void AttemptTraceClientInterceptor::receive_exception(
    ClientRequestInfo& info) noexcept {
  info.attempt_span.reset();
}

// ---- breaker (500) ----

SendAction BreakerClientInterceptor::send_request(ClientRequestInfo& info) {
  // An earlier attempt's circuit dies with a config change.
  info.circuit = nullptr;
  if (!config_.has_value()) return SendAction::kContinue;
  // The id is normally assigned by the stub; plain-entry callers (e.g.
  // negotiation commands) may leave it 0, in which case the wire would
  // assign it — do it here so the fast-fail reply correlates.
  if (info.request.request_id == 0) {
    info.request.request_id = orb_.next_request_id();
  }
  ReplyMessage fast;
  info.circuit = admit(*info.dest, info.request.object_key,
                       info.request.request_id, fast);
  if (info.circuit == nullptr) {
    info.reply = std::move(fast);
    return SendAction::kComplete;
  }
  return SendAction::kContinue;
}

std::optional<BreakerState> BreakerClientInterceptor::state(
    const net::Address& dest) const {
  // Worst-of aggregate over the endpoint's profile breakers, preserving
  // the pre-profile-keying endpoint-granularity query.
  std::optional<BreakerState> worst;
  for (const auto& [key, breaker] : breakers_) {
    if (key.first != dest) continue;
    const BreakerState s = breaker.state();
    if (!worst.has_value() || static_cast<int>(s) > static_cast<int>(*worst)) {
      worst = s;
    }
  }
  return worst;
}

std::optional<BreakerState> BreakerClientInterceptor::state(
    const net::Address& dest, std::string_view profile) const {
  auto it = breakers_.find(std::pair<const net::Address&, std::string_view>(
      dest, profile));
  if (it == breakers_.end()) return std::nullopt;
  return it->second.state();
}

Circuit* BreakerClientInterceptor::admit(const net::Address& dest,
                                         std::string_view profile,
                                         std::uint64_t request_id,
                                         ReplyMessage& fast) {
  auto it = breakers_.find(
      std::pair<const net::Address&, std::string_view>(dest, profile));
  if (it == breakers_.end()) {
    it = breakers_
             .emplace(BreakerKey{dest, std::string(profile)},
                      CircuitBreaker(*config_))
             .first;
  }
  CircuitBreaker& breaker = it->second;
  const BreakerState before = breaker.state();
  const bool admitted = breaker.allow(orb_.loop().now());
  if (breaker.state() != before) {
    note_transition(it->first, before, breaker.state());
  }
  if (admitted) return &*it;
  // Fail fast: the synthesized rejection is delivered inline instead of
  // arming a doomed timeout.
  ++stats_.breaker_fast_fails;
  fast.request_id = request_id;
  fast.status = ReplyStatus::kSystemException;
  fast.exception = "maqs/CIRCUIT_OPEN";
  fast.synthesized_locally = true;
  return nullptr;
}

void BreakerClientInterceptor::on_reply_decoded(Circuit& circuit) {
  const BreakerState before = circuit.second.state();
  circuit.second.record_success();
  if (circuit.second.state() != before) {
    note_transition(circuit.first, before, circuit.second.state());
  }
}

void BreakerClientInterceptor::on_reply_decoded_any(const net::Address& from) {
  if (!config_.has_value()) return;
  for (Circuit& circuit : breakers_) {
    if (circuit.first.first == from) on_reply_decoded(circuit);
  }
}

void BreakerClientInterceptor::on_transport_failure(Circuit& circuit) {
  const BreakerState before = circuit.second.state();
  circuit.second.record_failure(orb_.loop().now());
  if (circuit.second.state() != before) {
    note_transition(circuit.first, before, circuit.second.state());
  }
}

void BreakerClientInterceptor::note_transition(const BreakerKey& key,
                                               BreakerState from,
                                               BreakerState to) {
  switch (to) {
    case BreakerState::kOpen: ++stats_.breaker_opens; break;
    case BreakerState::kHalfOpen: ++stats_.breaker_half_opens; break;
    case BreakerState::kClosed: ++stats_.breaker_closes; break;
  }
  const auto& [endpoint, profile] = key;
  MAQS_INFO() << "orb " << orb_.endpoint().to_string() << ": circuit to "
              << endpoint.to_string() << "/" << profile << " "
              << breaker_state_name(from) << " -> " << breaker_state_name(to);
  if (trace::tracing_active()) {
    trace::point("breaker.transition",
                 endpoint.to_string() + "/" + profile + " " +
                     breaker_state_name(from) + "->" +
                     breaker_state_name(to));
  }
}

// ---- trace.server (100) ----

void TraceServerInterceptor::receive_request(ServerRequestInfo& info) {
  trace::TraceRecorder* rec = info.orb->trace_recorder();
  if (rec == nullptr || !rec->enabled()) return;
  if (auto tag = info.request->context.find(trace::kTraceContextKey);
      tag != info.request->context.end()) {
    if (auto ctx = trace::decode_context(tag->second)) {
      info.server_span.emplace(*rec, *ctx, "server.request",
                               info.request->operation);
    }
  }
}

void TraceServerInterceptor::send_reply(ServerRequestInfo& info) {
  info.server_span.reset();
}

void TraceServerInterceptor::send_exception(ServerRequestInfo& info) noexcept {
  info.server_span.reset();
}

// ---- wire.reply (150) ----

void WireReplyServerInterceptor::receive_request(ServerRequestInfo& info) {
  // Save the id on the way down: router transforms below may rewrite the
  // request, but the reply must answer the id the client sent.
  info.slots.set(slot_, info.request->request_id);
}

void WireReplyServerInterceptor::send_reply(ServerRequestInfo& info) {
  info.reply.request_id = info.slots.get(slot_);
  orb_.send_reply_frame(*info.from, info.reply);
}

// ---- qos.server (200) ----

void QosServerInterceptor::receive_request(ServerRequestInfo& info) {
  RequestMessage& req = *info.request;
  RequestRouter* router = orb_.router();
  if (req.kind == RequestKind::kCommand) {
    ++stats_.commands_dispatched;
    if (router == nullptr) {
      info.reply.request_id = req.request_id;
      info.reply.status = ReplyStatus::kSystemException;
      info.reply.exception = "maqs/NO_QOS_TRANSPORT";
      info.completed = true;
      return;
    }
    if (auto direct = router->inbound(req, *info.from)) {
      direct->request_id = req.request_id;
      info.reply = *std::move(direct);
      info.completed = true;
      return;
    }
    info.reply.request_id = req.request_id;
    info.reply.status = ReplyStatus::kBadOperation;
    info.reply.exception = "maqs/UNHANDLED_COMMAND";
    info.completed = true;
    return;
  }

  ++stats_.requests_dispatched;
  const bool engaged = req.qos_aware && router != nullptr;
  info.slots.set(slot_, engaged ? 1 : 0);
  if (engaged) {
    if (auto direct = router->inbound(req, *info.from)) {
      direct->request_id = req.request_id;
      info.reply = *std::move(direct);
      info.completed = true;
    }
  }
}

void QosServerInterceptor::send_reply(ServerRequestInfo& info) {
  if (info.slots.get(slot_) != 0) {
    orb_.router()->outbound(*info.request, info.reply);
  }
}

bool QosServerInterceptor::handle_error(ServerRequestInfo& info,
                                        const Error& e) {
  // Commands propagate (handle_request's caller logs and drops the
  // frame); service-request failures must surface as an exception reply,
  // never kill the dispatch loop or silently drop the request.
  if (info.request->kind == RequestKind::kCommand) return false;
  trace::note_error(e.what());
  info.reply = ReplyMessage{};
  info.reply.request_id = info.request->request_id;
  info.reply.status = ReplyStatus::kSystemException;
  info.reply.exception = e.what();
  return true;
}

}  // namespace maqs::orb
