#include "orb/orb.hpp"

#include <optional>
#include <string>
#include <utility>

#include "trace/trace.hpp"
#include "util/buffer_pool.hpp"
#include "util/log.hpp"

namespace maqs::orb {

Orb::Orb(net::Network& network, net::NodeId node, std::uint16_t port)
    : network_(network),
      adapter_(*this),
      trace_ci_(*this),
      route_ci_(*this, stats_),
      retry_ci_(*this, stats_),
      breaker_ci_(*this, stats_),
      wire_si_(*this, stats_),
      qos_si_(*this, stats_) {
  network_.add_node(node);
  self_ = &network_.bind(
      {std::move(node), port},
      [this](const net::Endpoint& from, const util::Bytes& data) {
        on_frame(from, data);
      });
  // The built-in pipeline, at its documented positions (see
  // orb/interceptor.hpp). Every stage is armed-but-idle until the matching
  // facade installs a policy.
  client_chain_.add(&trace_ci_, priorities::kClientTrace);
  client_chain_.add(&mediator_ci_, priorities::kClientMediator);
  client_chain_.add(&route_ci_, priorities::kClientRoute);
  client_chain_.add(&fault_ci_, priorities::kClientLocalFault);
  client_chain_.add(&retry_ci_, priorities::kClientRetry);
  client_chain_.add(&attempt_ci_, priorities::kClientAttemptTrace);
  client_chain_.add(&breaker_ci_, priorities::kClientBreaker);
  server_chain_.add(&trace_si_, priorities::kServerTrace);
  server_chain_.add(&wire_si_, priorities::kServerWireReply);
  server_chain_.add(&qos_si_, priorities::kServerQos);
  wire_si_.set_slot(server_chain_.allocate_slot());
  qos_si_.set_slot(server_chain_.allocate_slot());
}

Orb::~Orb() {
  // Cancel outstanding timeout events: they capture `this` and the loop
  // outlives the ORB, so a stale timeout firing after destruction would be
  // a use-after-free.
  for (const Pending& pending : pending_.entries()) {
    loop().cancel(pending.timeout_event);
  }
  network_.unbind(endpoint());
}

void Orb::set_breaker_config(std::optional<BreakerConfig> config) {
  // The circuits pending requests point at are about to go.
  for (Pending& pending : pending_.entries()) pending.circuit = nullptr;
  breaker_ci_.set_config(std::move(config));
}

ReplyMessage Orb::invoke(const ObjRef& target, RequestMessage req) {
  ClientRequestInfo info{*this};
  info.target = &target;
  info.request = std::move(req);
  invoke_with(info);
  return std::move(info.reply);
}

void Orb::invoke_with(ClientRequestInfo& info) {
  if (info.target == nullptr || info.target->is_nil()) {
    throw ObjectNotExist("orb: invoke on nil reference");
  }
  info.dest = &info.target->endpoint;
  info.request.object_key = info.target->object_key;
  client_walk(info, 0);
}

ReplyMessage Orb::invoke_plain(const net::Address& dest, RequestMessage req) {
  ClientRequestInfo info{*this};
  info.dest = &dest;
  info.request = std::move(req);
  client_walk(info, client_chain_.first_at_or_above(kClientPlainEntry));
  // A QoS-routed call moved its request in here, so the stub's release
  // finds an empty body: recycle the argument buffer before it dies with
  // this record.
  util::BufferPool::instance().release(std::move(info.request.body));
  return std::move(info.reply);
}

void Orb::client_walk(ClientRequestInfo& info, std::size_t index) {
  auto& entries = client_chain_.entries();
  if (index >= entries.size()) {
    attempt_once(info);
    return;
  }
  auto& entry = entries[index];
  ClientInterceptor& interceptor = *entry.interceptor;
  // The kRetry loop: a retrying interceptor re-drives itself and every
  // level below it, while the levels above stay on their single pass.
  for (;;) {
    ++entry.hits;
    try {
      if (interceptor.send_request(info) == SendAction::kComplete) {
        // info.reply is the answer; levels below never run and this
        // interceptor's own receive_reply is skipped — the levels above
        // still observe the reply on their unwind.
        ++entry.short_circuits;
        return;
      }
      client_walk(info, index + 1);
      if (interceptor.receive_reply(info) == ReplyAction::kRetry) continue;
    } catch (...) {
      interceptor.receive_exception(info);
      throw;
    }
    return;
  }
}

void Orb::attempt_once(ClientRequestInfo& info) {
  // One blocking wire attempt. The request stays owned by the info record
  // (the encoder reads it in place), so a retry level above can re-drive
  // without ever copying it. Admission already happened in the chain's
  // breaker stage; re-checking here would double-spend a half-open
  // circuit's single probe.
  std::optional<ReplyMessage> result;
  const std::uint64_t id = wire_send(
      *info.dest, info.circuit, info.request,
      [&result](ReplyMessage rep) { result = std::move(rep); },
      /*timeout=*/0);
  run_until([&result] { return result.has_value(); });
  if (!result.has_value()) {
    // Event queue drained without the reply or the timeout firing; this
    // only happens if the simulation is torn down mid-call.
    cancel_request(id);
    throw TransportError("orb: event loop drained while awaiting reply");
  }
  info.reply = *std::move(result);
}

void Orb::add_pending(std::uint64_t id, ReplyHandler on_reply,
                      sim::Duration timeout, bool multi, Circuit* circuit) {
  Pending pending;
  pending.id = id;
  pending.multi = multi;
  pending.on_reply = std::move(on_reply);
  pending.circuit = circuit;
  pending.timeout_event = loop().schedule(timeout, [this, id] {
    Pending* it = pending_.find(id);
    if (it == nullptr) return;
    ++stats_.timeouts;
    auto callback = std::move(it->on_reply);
    Circuit* failed = it->circuit;
    // The timeout event is firing right now, so there is nothing stale to
    // cancel: remove without touching the event.
    pending_.erase(it);
    // Charge the breaker before the callback runs, so an immediate retry
    // from inside the callback sees the updated circuit state.
    if (failed != nullptr) breaker_ci_.on_transport_failure(*failed);
    ReplyMessage timeout_reply;
    timeout_reply.request_id = id;
    timeout_reply.status = ReplyStatus::kSystemException;
    timeout_reply.exception = "maqs/TIMEOUT";
    timeout_reply.synthesized_locally = true;
    callback(std::move(timeout_reply));
  });
  pending_.add(std::move(pending));
}

void Orb::erase_pending(Pending* pending) {
  loop().cancel(pending->timeout_event);
  pending_.erase(pending);
}

std::uint64_t Orb::wire_send(const net::Address& dest, Circuit* circuit,
                             const RequestMessage& req, ReplyHandler on_reply,
                             sim::Duration timeout) {
  if (timeout <= 0) timeout = default_timeout_;
  const std::uint64_t id = req.request_id;
  add_pending(id, std::move(on_reply), timeout, /*multi=*/false, circuit);
  ++stats_.requests_sent;
  util::Bytes wire = req.encode();
  stats_.bytes_marshaled_out += wire.size();
  try {
    network_.send(*self_, network_.endpoint(dest), std::move(wire));
  } catch (...) {
    // Undeliverable (e.g. unknown node): roll back the pending entry and
    // its timeout instead of leaving a stale event armed.
    if (Pending* it = pending_.find(id)) erase_pending(it);
    throw;
  }
  return id;
}

std::uint64_t Orb::send_request(const net::Address& dest, RequestMessage req,
                                ReplyHandler on_reply, sim::Duration timeout) {
  if (req.request_id == 0) req.request_id = next_request_id();
  const std::uint64_t id = req.request_id;
  Circuit* circuit = nullptr;
  if (breaker_ci_.armed()) {
    // Fail fast: deliver the synthesized rejection inline (before this
    // call returns) instead of arming a doomed timeout.
    ReplyMessage fast;
    circuit = breaker_ci_.admit(dest, req.object_key, id, fast);
    if (circuit == nullptr) {
      on_reply(std::move(fast));
      return id;
    }
  }
  return wire_send(dest, circuit, req, std::move(on_reply), timeout);
}

std::uint64_t Orb::send_multicast_request(const std::string& group,
                                          RequestMessage req,
                                          ReplyHandler on_reply,
                                          sim::Duration timeout) {
  if (req.request_id == 0) req.request_id = next_request_id();
  if (timeout <= 0) timeout = default_timeout_;
  const std::uint64_t id = req.request_id;

  add_pending(id, std::move(on_reply), timeout, /*multi=*/true,
              /*circuit=*/nullptr);
  ++stats_.requests_sent;
  util::Bytes wire = req.encode();
  stats_.bytes_marshaled_out += wire.size();
  try {
    network_.multicast(endpoint(), group, std::move(wire));
  } catch (...) {
    if (Pending* it = pending_.find(id)) erase_pending(it);
    throw;
  }
  return id;
}

void Orb::cancel_request(std::uint64_t request_id) {
  if (Pending* it = pending_.find(request_id)) erase_pending(it);
}

void Orb::on_frame(const net::Endpoint& from, const util::Bytes& data) {
  try {
    if (is_request_frame(data)) {
      RequestMessage req = RequestMessage::decode(data);
      stats_.bytes_marshaled_in += data.size();
      handle_request(from, std::move(req));
    } else {
      ReplyMessage rep = ReplyMessage::decode(data);
      stats_.bytes_marshaled_in += data.size();
      handle_reply(from, std::move(rep));
    }
  } catch (const Error& e) {
    // Garbage frames are dropped; a reliable transport below us means this
    // indicates a peer bug, not line noise.
    MAQS_WARN() << "orb " << endpoint().to_string() << ": bad frame from "
                << from.address().to_string() << ": " << e.what();
  }
}

void Orb::handle_request(const net::Endpoint& from, RequestMessage req,
                         bool resumed) {
  // Full server chain: trace re-attach, wire reply tail, QoS transforms,
  // then the adapter terminal.
  ServerRequestInfo info;
  info.orb = this;
  info.from = &from;
  info.request = &req;
  info.resumed = resumed;
  server_walk(info, 0);
  // Both bodies die here (the reply was already encoded and sent by the
  // wire stage); recycle their storage. Parked requests moved the body out,
  // leaving nothing worth pooling — release() ignores empties.
  auto& pool = util::BufferPool::instance();
  pool.release(std::move(req.body));
  pool.release(std::move(info.reply.body));
}

void Orb::resume_request(RequestMessage req, const net::Endpoint& from) {
  handle_request(from, std::move(req), /*resumed=*/true);
}

void Orb::send_reply_frame(const net::Endpoint& to, const ReplyMessage& rep) {
  util::Bytes wire = rep.encode();
  stats_.bytes_marshaled_out += wire.size();
  network_.send(*self_, to, std::move(wire));
}

void Orb::server_walk(ServerRequestInfo& info, std::size_t index) {
  auto& entries = server_chain_.entries();
  if (index >= entries.size()) {
    if (!info.completed) {
      info.reply = dispatch_to_servant(*info.request);
    }
    return;
  }
  auto& entry = entries[index];
  ++entry.hits;
  ServerInterceptor& interceptor = *entry.interceptor;
  try {
    interceptor.receive_request(info);
    if (info.completed) {
      // The interceptor answered: levels below never run, and neither
      // does its own send_reply (mirrors the pre-pipeline semantics of a
      // router inbound() answering before outbound() existed).
      ++entry.short_circuits;
      return;
    }
    if (info.parked) {
      // The interceptor parked the request for deferred dispatch: there
      // is no reply to send, so the walk aborts without running any
      // send_reply hook at this level or above.
      ++entry.short_circuits;
      return;
    }
    server_walk(info, index + 1);
    if (info.parked) return;
    interceptor.send_reply(info);
  } catch (const Error& e) {
    if (!interceptor.handle_error(info, e)) {
      interceptor.send_exception(info);
      throw;
    }
  } catch (...) {
    interceptor.send_exception(info);
    throw;
  }
}

ReplyMessage Orb::dispatch_to_servant(const RequestMessage& req) {
  ReplyMessage rep;
  rep.request_id = req.request_id;
  std::shared_ptr<Servant> servant = adapter_.find(req.object_key);
  if (!servant) {
    rep.status = ReplyStatus::kNoSuchObject;
    rep.exception = "maqs/NO_SUCH_OBJECT: " + req.object_key;
    return rep;
  }
  cdr::Decoder args(req.body);
  // Results are usually the same order of magnitude as the arguments
  // (echo-shaped traffic); a recycled buffer at that size turns the common
  // case into zero allocations without hurting small results.
  cdr::Encoder out(util::BufferPool::instance().acquire(req.body.size() + 32));
  ServerContext ctx(req, rep.context);
  try {
    trace::SpanScope span("adapter.dispatch", req.operation);
    servant->dispatch(req.operation, args, out, ctx);
    rep.status = ReplyStatus::kOk;
    rep.body = out.take();
  } catch (const NotNegotiated& e) {
    trace::note_error(e.what());
    rep.status = ReplyStatus::kNotNegotiated;
    rep.exception = e.what();
  } catch (const BadOperation& e) {
    trace::note_error(e.what());
    rep.status = ReplyStatus::kBadOperation;
    rep.exception = e.what();
  } catch (const UserException& e) {
    trace::note_error(e.what());
    rep.status = ReplyStatus::kUserException;
    rep.exception = e.id();
    cdr::Encoder exc_body;
    exc_body.write_string(e.detail());
    rep.body = exc_body.take();
  } catch (const cdr::CdrError& e) {
    trace::note_error(e.what());
    rep.status = ReplyStatus::kSystemException;
    rep.exception = std::string("maqs/MARSHAL: ") + e.what();
  } catch (const Error& e) {
    trace::note_error(e.what());
    rep.status = ReplyStatus::kSystemException;
    rep.exception = e.what();
  }
  return rep;
}

void Orb::handle_reply(const net::Address& from, ReplyMessage rep) {
  // Any decoded reply — matched, orphaned, even an exception — proves the
  // endpoint is reachable, so the breaker hears about it before the
  // callback runs. A matched reply credits exactly the profile breaker its
  // request charged; an orphan (late probe reply after its timeout,
  // surplus multicast replies) cannot be attributed to a profile, so every
  // breaker at the endpoint hears the success — a straggler still closes
  // the circuit rather than leaving it needlessly open.
  Pending* it = pending_.find(rep.request_id);
  if (breaker_ci_.armed()) {
    if (it != nullptr && it->circuit != nullptr) {
      breaker_ci_.on_reply_decoded(*it->circuit);
    } else {
      breaker_ci_.on_reply_decoded_any(from);
    }
  }
  if (it == nullptr) {
    // Late reply after timeout/cancel, or surplus replies of a multicast
    // request already satisfied: normal, counted for observability.
    ++stats_.replies_orphaned;
    return;
  }
  if (it->multi) {
    // Keep the entry alive: more replies may follow. Copy the callback so
    // the handler may cancel_request() from within.
    auto callback = it->on_reply;
    callback(std::move(rep));
  } else {
    // Move the callback out before erasing so the handler may re-enter the
    // ORB (issue a nested call) without touching a dead entry.
    auto callback = std::move(it->on_reply);
    erase_pending(it);
    callback(std::move(rep));
  }
}

std::vector<InterceptorRecord> Orb::dump_interceptors() const {
  std::vector<InterceptorRecord> out;
  out.reserve(client_chain_.entries().size() + server_chain_.entries().size());
  for (const auto& entry : client_chain_.entries()) {
    out.push_back({entry.interceptor->name(), entry.priority, entry.hits,
                   entry.short_circuits, /*server=*/false});
  }
  for (const auto& entry : server_chain_.entries()) {
    out.push_back({entry.interceptor->name(), entry.priority, entry.hits,
                   entry.short_circuits, /*server=*/true});
  }
  return out;
}

}  // namespace maqs::orb
