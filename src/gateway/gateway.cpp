#include "gateway/gateway.hpp"

#include <charconv>
#include <cinttypes>
#include <cstdio>

#include "cdr/decoder.hpp"
#include "cdr/encoder.hpp"
#include "gateway/json.hpp"
#include "orb/exceptions.hpp"
#include "sched/classifier.hpp"
#include "sched/scheduler.hpp"
#include "trace/trace.hpp"
#include "util/buffer_pool.hpp"

namespace maqs::gateway {

namespace {

/// Head bytes reserved ahead of a JSON body: the longest status line plus
/// every header the gateway writes.
constexpr std::size_t kHeadReserve = 192;

void put(util::Bytes& out, std::string_view s) {
  out.insert(out.end(), s.begin(), s.end());
}

void put_number(util::Bytes& out, std::int64_t v) {
  char buf[24];
  const auto result = std::to_chars(buf, buf + sizeof buf, v);
  out.insert(out.end(), buf, result.ptr);
}

/// True for sequence<octet> — the blob kind that bypasses Any marshaling.
bool is_blob(const cdr::TypeCodePtr& type) {
  return type->kind() == cdr::TCKind::kSequence &&
         type->element()->kind() == cdr::TCKind::kOctet;
}

/// 1..16 hex chars -> u64; nullopt on garbage.
std::optional<std::uint64_t> parse_hex_id(std::string_view s) {
  if (s.empty() || s.size() > 16) return std::nullopt;
  std::uint64_t value = 0;
  for (char c : s) {
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else if (c >= 'A' && c <= 'F') {
      digit = c - 'A' + 10;
    } else {
      return std::nullopt;
    }
    value = (value << 4) | static_cast<std::uint64_t>(digit);
  }
  if (value == 0) return std::nullopt;
  return value;
}

/// The id as 16 lowercase hex digits, in `buf`.
std::string_view hex_id(std::uint64_t id, char (&buf)[17]) {
  std::snprintf(buf, sizeof buf, "%016" PRIx64, id);
  return {buf, 16};
}

/// Structured fault body: {"error":{"status":N,"code":...,"detail":...}}.
util::Bytes fault_body(int status, std::string_view code,
                       std::string_view detail) {
  util::Bytes out = util::BufferPool::instance().acquire(
      48 + code.size() + detail.size());
  put(out, "{\"error\":{\"status\":");
  put_number(out, status);
  put(out, ",\"code\":");
  write_json_string(code, out);
  put(out, ",\"detail\":");
  write_json_string(detail, out);
  put(out, "}}");
  return out;
}

bool wants_multipart(const HttpRequest& req) {
  const auto accept = req.header("accept");
  return accept.has_value() &&
         accept->find("multipart/related") != std::string_view::npos;
}

}  // namespace

Gateway::Gateway(orb::Orb& orb, const qidl::InterfaceRepository& repo,
                 std::uint16_t port, GatewayConfig config)
    : orb_(orb),
      repo_(repo),
      config_(std::move(config)),
      routes_(RouteTable::build(repo, config_.api_prefix)) {
  listen_ = &orb_.network().bind(
      {orb.endpoint().node, port},
      [this](const net::Endpoint& from, const util::Bytes& payload) {
        on_payload(from, payload);
      });
}

Gateway::~Gateway() { orb_.network().unbind(endpoint()); }

void Gateway::expose(const std::string& interface_name, orb::ObjRef target,
                     orb::ClientDelegate* mediator) {
  if (repo_.find_interface(interface_name) == nullptr) {
    throw Error("gateway: unknown interface " + interface_name);
  }
  exposures_[interface_name] = Exposure{std::move(target), mediator};
}

void Gateway::set_tenant_class(std::string tenant, std::string qos_class) {
  tenants_[std::move(tenant)] = std::move(qos_class);
}

void Gateway::sweep_idle() {
  const sim::TimePoint now = orb_.loop().now();
  for (auto it = connections_.begin(); it != connections_.end();) {
    if (!it->second->handling &&
        now - it->second->last_activity > config_.idle_timeout) {
      it->second->closed = true;
      ++stats_.idle_reaped;
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void Gateway::on_payload(const net::Endpoint& from,
                         const util::Bytes& payload) {
  sweep_idle();
  ConnectionPtr& slot = connections_[&from];
  if (slot == nullptr) {
    slot = std::make_shared<Connection>();
    ++stats_.connections;
  }
  const ConnectionPtr conn = slot;  // pin across nested pumping
  conn->last_activity = orb_.loop().now();
  conn->parser.feed(payload);
  // A nested invoke below is already pumping the loop for this
  // connection: just buffer; the outer drain picks the bytes up in order
  // (pipelined responses must not interleave).
  if (conn->handling) return;
  drain(from, conn);
}

void Gateway::drain(const net::Endpoint& from, const ConnectionPtr& conn) {
  conn->handling = true;
  HttpRequest& req = conn->request;
  for (;;) {
    const HttpParser::Result result = conn->parser.poll(req);
    if (result == HttpParser::Result::kNeedMore) break;
    if (result == HttpParser::Result::kError) {
      // Framing violation: answer 400 once, then drop the connection —
      // never crash, never hang, never ignore.
      ++stats_.malformed;
      ++stats_.bad_request;
      send_json(from, /*keep_alive=*/false, 400,
                fault_body(400, "maqs/BAD_REQUEST", conn->parser.error()),
                0);
      conn->closed = true;
      break;
    }
    ++stats_.requests;
    handle(from, *conn);
    // The body is dead once answered; the rest of the request's storage
    // takes the next one.
    util::BufferPool::instance().release(std::move(req.body));
    if (conn->closed || !req.keep_alive) {
      conn->closed = true;
      break;
    }
  }
  conn->handling = false;
  if (conn->closed) connections_.erase(&from);
}

std::string_view Gateway::qos_class_for(const HttpRequest& req) const {
  if (const auto cls = req.header(kClassHeader)) return *cls;
  if (const auto tenant = req.header(kTenantHeader)) {
    const auto it = tenants_.find(*tenant);
    if (it != tenants_.end()) return it->second;
  }
  return config_.default_class;
}

void Gateway::count_status(int status) {
  switch (status) {
    case 200: ++stats_.ok; break;
    case 400: ++stats_.bad_request; break;
    case 404: ++stats_.not_found; break;
    case 503: ++stats_.unavailable; break;
    case 504: ++stats_.gateway_timeout; break;
    default: ++stats_.server_fault; break;
  }
}

void Gateway::send_json(const net::Endpoint& from, bool keep_alive,
                        int status, util::Bytes&& body,
                        std::uint64_t trace_id) {
  auto& pool = util::BufferPool::instance();
  util::Bytes frame = pool.acquire(kHeadReserve + body.size());
  append_status_line(frame, status);
  append_header(frame, "content-type", "application/json");
  if (trace_id != 0) {
    char hex[17];
    append_header(frame, kTraceHeader, hex_id(trace_id, hex));
  }
  if (status == 503) {
    char seconds[16];
    const auto end = std::to_chars(seconds, seconds + sizeof seconds,
                                   config_.retry_after_seconds);
    append_header(frame, "retry-after",
                  std::string_view(seconds, static_cast<std::size_t>(
                                                end.ptr - seconds)));
  }
  append_head_end(frame, body.size(), !keep_alive);
  frame.insert(frame.end(), body.begin(), body.end());
  pool.release(std::move(body));
  orb_.network().send(*listen_, from, std::move(frame));
}

void Gateway::send_fault(const net::Endpoint& from, const HttpRequest& req,
                         int status, std::string_view code,
                         std::string_view detail, std::uint64_t trace_id) {
  count_status(status);
  send_json(from, req.keep_alive, status, fault_body(status, code, detail),
            trace_id);
}

void Gateway::send_mtom_response(const net::Endpoint& from,
                                 const HttpRequest& req,
                                 util::BytesView blob,
                                 std::uint64_t trace_id) {
  ++stats_.mtom_parts_out;
  count_status(200);
  char cid_buf[24] = {'r'};
  const auto cid_end =
      std::to_chars(cid_buf + 1, cid_buf + sizeof cid_buf, next_cid_++).ptr;
  const std::string_view cid(cid_buf,
                             static_cast<std::size_t>(cid_end - cid_buf));

  // Container layout: root JSON part, blob part, closing delimiter, each
  // opening with "--" + boundary ("maqs-" + cid). Sized up front so the
  // head, which carries the length, and the container are written into
  // one pooled frame: the blob is copied once, straight off the reply.
  constexpr std::string_view kDelimiter = "--maqs-";
  constexpr std::string_view kRootHead =
      "\r\ncontent-type: application/json\r\n\r\n";
  constexpr std::string_view kRootOpen = "{\"result\":{\"$blob\":\"cid:";
  constexpr std::string_view kRootClose = "\"}}\r\n";
  constexpr std::string_view kBlobOpen = "\r\ncontent-id: <";
  constexpr std::string_view kBlobClose =
      ">\r\ncontent-type: application/octet-stream\r\n\r\n";
  constexpr std::string_view kClosing = "--\r\n";
  const std::size_t dash_boundary = kDelimiter.size() + cid.size();
  const std::size_t container_size =
      3 * dash_boundary + kRootHead.size() + kRootOpen.size() + cid.size() +
      kRootClose.size() + kBlobOpen.size() + cid.size() + kBlobClose.size() +
      blob.size() + 2 + kClosing.size();
  auto put_delimiter = [&cid](util::Bytes& out) {
    put(out, kDelimiter);
    put(out, cid);
  };

  util::Bytes frame =
      util::BufferPool::instance().acquire(kHeadReserve + container_size);
  append_status_line(frame, 200);
  put(frame, "content-type: multipart/related; boundary=");
  put(frame, kDelimiter.substr(2));
  put(frame, cid);
  put(frame, "; type=\"application/json\"\r\n");
  if (trace_id != 0) {
    char hex[17];
    append_header(frame, kTraceHeader, hex_id(trace_id, hex));
  }
  append_head_end(frame, container_size, !req.keep_alive);
  put_delimiter(frame);
  put(frame, kRootHead);
  put(frame, kRootOpen);
  put(frame, cid);
  put(frame, kRootClose);
  put_delimiter(frame);
  put(frame, kBlobOpen);
  put(frame, cid);
  put(frame, kBlobClose);
  frame.insert(frame.end(), blob.begin(), blob.end());
  put(frame, "\r\n");
  put_delimiter(frame);
  put(frame, kClosing);
  orb_.network().send(*listen_, from, std::move(frame));
}

void Gateway::marshal_args(std::string_view json_text,
                           const qidl::OperationSignature& op,
                           const MtomContainer& container,
                           cdr::Encoder& args) {
  const JsonDocument document(json_text);
  const JsonCursor body = document.root();
  if (!body.is_object()) throw JsonError("request body must be an object");
  // One pass over the members finds each parameter's value (a repeated
  // parameter keeps its first) and the first member that names none.
  std::vector<std::optional<JsonCursor>>& values = param_values_;
  values.assign(op.params.size(), std::nullopt);
  std::optional<JsonCursor> unknown;
  for (JsonItems it(body); it.next();) {
    bool known = false;
    for (std::size_t i = 0; i < op.params.size(); ++i) {
      if (!it.key().equals(op.params[i].first)) continue;
      known = true;
      if (!values[i].has_value()) values[i] = it.value();
    }
    if (!known && !unknown.has_value()) unknown = it.key();
  }
  for (std::size_t i = 0; i < op.params.size(); ++i) {
    const auto& [name, type] = op.params[i];
    if (!values[i].has_value()) {
      throw JsonError("missing parameter \"" + name + "\"");
    }
    const std::optional<JsonCursor> blob_ref = values[i]->find("$blob");
    if (blob_ref.has_value()) {
      // MTOM reference: the part's bytes go straight onto the CDR
      // stream (borrowed view, one copy, no per-octet work).
      if (!is_blob(type) || !blob_ref->is_string()) {
        throw JsonError("parameter \"" + name +
                        "\" cannot take a $blob reference");
      }
      const std::string cid = blob_ref->as_string();
      const MtomPart* part = container.find(cid);
      if (part == nullptr) {
        throw JsonError("unresolved blob reference " + cid);
      }
      ++stats_.mtom_parts_in;
      args.write_bytes(part->data);
    } else {
      values[i]->write_cdr(type, args);
    }
  }
  if (unknown.has_value()) {
    throw JsonError("unknown parameter \"" + unknown->as_string() + "\"");
  }
}

void Gateway::handle(const net::Endpoint& from, Connection& conn) {
  const HttpRequest& req = conn.request;
  // ---- trace: adopt the caller's id or mint one; the gateway.request
  // span stays active across the whole translation, so the DII
  // invocation's client.request span nests under it.
  trace::TraceRecorder* recorder = orb_.trace_recorder();
  trace::TraceContext parent;
  if (const auto header = req.header(kTraceHeader)) {
    if (const auto id = parse_hex_id(*header)) {
      parent.trace_id = *id;
      parent.flags = trace::kSampledFlag;
    }
  }
  std::optional<trace::SpanScope> span;
  if (recorder != nullptr && recorder->enabled()) {
    if (!parent.valid()) parent = recorder->make_trace();
    if (parent.sampled()) {
      span.emplace(*recorder, parent, "gateway.request",
                   req.method + " " + req.target);
    }
  }
  const std::uint64_t trace_id = parent.valid() ? parent.trace_id : 0;

  // ---- route ----
  const Route* route = routes_.find(req.target);
  if (route == nullptr) {
    send_fault(from, req, 404, "maqs/NO_ROUTE",
               "no route for " + req.target, trace_id);
    return;
  }
  if (req.method != "POST") {
    send_fault(from, req, 400, "maqs/BAD_METHOD",
               "route " + req.target + " requires POST", trace_id);
    return;
  }
  const auto exposure = exposures_.find(route->interface->name);
  if (exposure == exposures_.end()) {
    send_fault(from, req, 404, "maqs/NOT_EXPOSED",
               "interface " + route->interface->name + " is not exposed",
               trace_id);
    return;
  }

  // ---- body: JSON document, possibly inside a multipart container ----
  MtomContainer container;
  std::string_view json_text;
  const auto content_type_header = req.header("content-type");
  const ContentTypeView content_type =
      split_content_type(content_type_header.value_or("application/json"));
  if (iequals(content_type.media_type, "multipart/related")) {
    auto parsed = parse_multipart_related(req.body, content_type.boundary);
    if (!parsed.has_value()) {
      send_fault(from, req, 400, "maqs/BAD_MULTIPART",
                 "malformed multipart/related container", trace_id);
      return;
    }
    container = *std::move(parsed);
    json_text = {reinterpret_cast<const char*>(container.root.data()),
                 container.root.size()};
  } else if (iequals(content_type.media_type, "application/json") ||
             content_type.media_type.empty()) {
    json_text = {reinterpret_cast<const char*>(req.body.data()),
                 req.body.size()};
    if (json_text.empty()) json_text = "{}";
  } else {
    send_fault(from, req, 400, "maqs/BAD_CONTENT_TYPE",
               "unsupported content type " +
                   parse_content_type(*content_type_header).media_type,
               trace_id);
    return;
  }

  // ---- marshal arguments per the repository signature ----
  const qidl::OperationSignature& op = *route->operation;
  cdr::Encoder args = cdr::Encoder::pooled();
  try {
    marshal_args(json_text, op, container, args);
  } catch (const Error& e) {
    util::BufferPool::instance().release(args.take());
    send_fault(from, req, 400, "maqs/BAD_BODY", e.what(), trace_id);
    return;
  }

  // ---- the DII bridge: full client interceptor chain ----
  orb::ClientRequestInfo info{orb_};
  info.target = &exposure->second.target;
  info.mediator = exposure->second.mediator;
  info.request.request_id = orb_.next_request_id();
  info.request.kind = orb::RequestKind::kServiceRequest;
  info.request.object_key = exposure->second.target.object_key;
  info.request.operation = op.name;
  info.request.body = args.take();
  const std::string_view qos_class = qos_class_for(req);
  auto& pool = util::BufferPool::instance();
  if (!qos_class.empty()) {
    // The tag rides the connection's context and a pooled value buffer;
    // both come back after the call.
    std::swap(info.request.context, conn.context);
    util::Bytes tag = pool.acquire(qos_class.size());
    tag.assign(qos_class.begin(), qos_class.end());
    info.request.context.set(sched::kClassContextKey, std::move(tag));
  }

  try {
    orb_.invoke_with(info);
  } catch (const orb::TransportError&) {
    // Locally synthesized faults: the local_fault stage converted the
    // reply on the unwind; info.reply still names the cause.
    if (info.reply.exception == "maqs/CIRCUIT_OPEN") {
      send_fault(from, req, 503, "maqs/CIRCUIT_OPEN",
                 "circuit breaker open for " + op.name, trace_id);
    } else {
      send_fault(from, req, 504, "maqs/TIMEOUT",
                 "upstream timed out on " + op.name, trace_id);
    }
    return;
  } catch (const Error& e) {
    send_fault(from, req, 500, "maqs/GATEWAY_FAULT", e.what(), trace_id);
    return;
  }
  pool.release(std::move(info.request.body));
  if (!qos_class.empty()) {
    orb::ServiceContext& context = info.request.context;
    if (const auto tag = context.find(sched::kClassContextKey);
        tag != context.end()) {
      pool.release(std::move(tag->second));
    }
    context.clear();
    std::swap(context, conn.context);
  }

  // ---- reply status -> HTTP ----
  const orb::ReplyMessage& reply = info.reply;
  switch (reply.status) {
    case orb::ReplyStatus::kOk:
      break;
    case orb::ReplyStatus::kUserException: {
      std::string detail;
      try {
        cdr::Decoder dec(reply.body);
        detail = dec.read_string();
      } catch (const cdr::CdrError&) {
        detail = "<unreadable exception body>";
      }
      send_fault(from, req, 500, reply.exception, detail, trace_id);
      return;
    }
    case orb::ReplyStatus::kNoSuchObject:
    case orb::ReplyStatus::kBadOperation:
      send_fault(from, req, 404, reply.exception, "no such object/operation",
                 trace_id);
      return;
    case orb::ReplyStatus::kSystemException:
      if (reply.exception.rfind(sched::kOverloadException, 0) == 0) {
        send_fault(from, req, 503, sched::kOverloadException,
                   reply.exception, trace_id);
        return;
      }
      [[fallthrough]];
    default:
      send_fault(from, req, 500, reply.exception, "upstream fault",
                 trace_id);
      return;
  }

  // ---- result -> JSON (or multipart for large blobs) ----
  const cdr::TypeCodePtr& result_type = op.result;
  util::Bytes body = pool.acquire(32 + 2 * reply.body.size());
  try {
    if (is_blob(result_type) && wants_multipart(req)) {
      // A large blob result goes out-of-band: a borrowed view off the
      // reply buffer, copied once into the multipart frame.
      cdr::Decoder dec(reply.body);
      const util::BytesView blob = dec.read_bytes_view();
      dec.expect_end();
      if (blob.size() >= config_.mtom_threshold) {
        pool.release(std::move(body));
        send_mtom_response(from, req, blob, trace_id);
        pool.release(std::move(info.reply.body));
        return;
      }
    }
    put(body, "{\"result\":");
    cdr::Decoder dec(reply.body);
    write_json_from_cdr(dec, result_type, body);
    // A void result reads nothing, so trailing reply bytes go unchecked.
    if (result_type->kind() != cdr::TCKind::kVoid) dec.expect_end();
    body.push_back('}');
  } catch (const Error& e) {
    pool.release(std::move(body));
    send_fault(from, req, 500, "maqs/BAD_REPLY", e.what(), trace_id);
    return;
  }
  pool.release(std::move(info.reply.body));
  count_status(200);
  send_json(from, req.keep_alive, 200, std::move(body), trace_id);
}

}  // namespace maqs::gateway
