// The edge gateway: an HTTP/1.1 + JSON front-end node that translates
// web requests into DII invocations through the full client interceptor
// chain, so HTTP tenants inherit every QoS concern — tracing, mediation,
// replica selection/failover, retry, circuit breaking, and server-side
// WFQ scheduling/admission — without the gateway re-implementing any of
// them (the paper's separation-of-concerns claim at the protocol
// boundary).
//
// Flow per request:
//
//   net payload -> HttpParser (torn-read tolerant, pipelined; the
//        connection's one HttpRequest is recycled across keep-alive
//        requests, its body a BufferPool buffer returned after handling)
//     -> route table (POST /api/<Interface>/<operation>)
//     -> body: application/json or multipart/related (MTOM blobs by cid),
//        the content type read in place
//     -> args marshaled per the repository signature, JSON text straight
//        to CDR in a pooled encoder (JsonDocument: each parameter found by
//        name, then written by its TypeCode; sequence<octet> blobs: one
//        write_bytes straight off the borrowed multipart view)
//     -> orb.invoke_with() through the client chain (a gateway.request
//        span is active, so the invocation's spans nest under it and the
//        trace id round-trips via the X-Trace-Id header)
//     -> reply status mapped to HTTP (see exception table below)
//     -> result: the CDR reply read straight into JSON text, which goes
//        with its head into one pooled frame; or multipart/related when a
//        large blob result goes out-of-band (head, root part and blob part
//        written into one pooled frame, the blob copied once off the
//        reply buffer).
//
// Exception -> status mapping:
//
//   maqs/TIMEOUT (local)        504  code maqs/TIMEOUT
//   maqs/CIRCUIT_OPEN (local)   503  + Retry-After
//   maqs/OVERLOAD (scheduler)   503  + Retry-After
//   NO_SUCH_OBJECT / BAD_OP     404
//   unknown route / bad body    404 / 400
//   user exception, others      500
//
// QoS classification: the per-tenant header X-Maqs-Tenant (mapped via
// set_tenant_class) or the direct X-Qos-Class header becomes the
// "qos.class" service-context tag, so the server's scheduler governs
// HTTP traffic exactly like native traffic.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cdr/encoder.hpp"
#include "gateway/binding.hpp"
#include "gateway/http.hpp"
#include "gateway/json.hpp"
#include "gateway/mtom.hpp"
#include "net/network.hpp"
#include "orb/orb.hpp"
#include "qidl/repository.hpp"
#include "sim/event_loop.hpp"

namespace maqs::gateway {

/// Request headers the gateway interprets (lowercase, as parsed).
inline const std::string kTenantHeader = "x-maqs-tenant";
inline const std::string kClassHeader = "x-qos-class";
inline const std::string kTraceHeader = "x-trace-id";

struct GatewayConfig {
  /// Route prefix; must match the json_binding emitter's prefix.
  std::string api_prefix = "/api";
  /// Blob results at or above this size go out-of-band (multipart) when
  /// the client sent "Accept: multipart/related"; below it they inline as
  /// a JSON array.
  std::size_t mtom_threshold = 1024;
  /// Connections idle longer than this are reaped by sweep_idle() (the
  /// mid-body-disconnect defense; sweeps run lazily on later traffic).
  sim::Duration idle_timeout = 30 * sim::kSecond;
  /// Retry-After header value on 503 responses.
  int retry_after_seconds = 1;
  /// Class tag applied when no tenant/class header matches; empty = no
  /// tag (the server's classifier falls through to its own rules).
  std::string default_class;
};

struct GatewayStats {
  std::uint64_t requests = 0;          ///< complete requests parsed
  std::uint64_t ok = 0;                ///< 200 responses
  std::uint64_t bad_request = 0;       ///< 400 (bad body / malformed HTTP)
  std::uint64_t not_found = 0;         ///< 404 (route or object)
  std::uint64_t unavailable = 0;       ///< 503 (overload / circuit open)
  std::uint64_t gateway_timeout = 0;   ///< 504
  std::uint64_t server_fault = 0;      ///< 500
  std::uint64_t malformed = 0;         ///< connections poisoned by framing
  std::uint64_t mtom_parts_in = 0;     ///< blob parts consumed
  std::uint64_t mtom_parts_out = 0;    ///< blob parts produced
  std::uint64_t connections = 0;       ///< connections seen
  std::uint64_t idle_reaped = 0;       ///< connections dropped by sweep
};

class Gateway {
 public:
  /// Binds the HTTP listener to (orb node, `port`) on the ORB's network.
  /// `orb` is the gateway's client-side ORB: every HTTP request becomes a
  /// DII invocation through its interceptor chain. `repo` supplies the
  /// route table and marshaling signatures; both must outlive the
  /// gateway.
  Gateway(orb::Orb& orb, const qidl::InterfaceRepository& repo,
          std::uint16_t port, GatewayConfig config = {});
  ~Gateway();
  Gateway(const Gateway&) = delete;
  Gateway& operator=(const Gateway&) = delete;

  /// Maps a repository interface to a target object. Routes for an
  /// unexposed interface answer 404. The optional mediator delegate is
  /// installed per invocation (the woven client path: its transform
  /// chain borrows the request body as a ChainBuf region, so MTOM blobs
  /// ride the streaming pipeline).
  void expose(const std::string& interface_name, orb::ObjRef target,
              orb::ClientDelegate* mediator = nullptr);

  /// Maps an X-Maqs-Tenant header value to a QoS class name.
  void set_tenant_class(std::string tenant, std::string qos_class);

  const net::Address& endpoint() const noexcept {
    return listen_->address();
  }
  const RouteTable& routes() const noexcept { return routes_; }
  const GatewayStats& stats() const noexcept { return stats_; }
  std::size_t open_connections() const noexcept {
    return connections_.size();
  }

  /// Drops connections idle past config.idle_timeout. Runs lazily on
  /// every arriving payload; exposed for tests and embedders.
  void sweep_idle();

 private:
  struct Connection {
    HttpParser parser;
    /// The request being handled; its storage is reused by the next one.
    HttpRequest request;
    /// Lent to each invocation that carries a QoS class tag and taken
    /// back, emptied, so the context's storage is reused too.
    orb::ServiceContext context;
    sim::TimePoint last_activity = 0;
    bool handling = false;  ///< a nested invoke is pumping the loop
    bool closed = false;
  };
  using ConnectionPtr = std::shared_ptr<Connection>;

  struct Exposure {
    orb::ObjRef target;
    orb::ClientDelegate* mediator = nullptr;
  };

  void on_payload(const net::Endpoint& from, const util::Bytes& payload);
  void drain(const net::Endpoint& from, const ConnectionPtr& conn);
  /// Handles the connection's parsed request; sends the response
  /// frame(s) itself.
  void handle(const net::Endpoint& from, Connection& conn);
  /// Writes the request body's parameters as CDR onto `args`; throws
  /// Error (answered 400) when the body does not fit the signature.
  void marshal_args(std::string_view json_text,
                    const qidl::OperationSignature& op,
                    const MtomContainer& container, cdr::Encoder& args);

  /// Sends a JSON response whose body is `body` (a pooled buffer, spent
  /// here): head and body go out in one pooled frame.
  void send_json(const net::Endpoint& from, bool keep_alive, int status,
                 util::Bytes&& body, std::uint64_t trace_id);
  /// Builds + sends a structured JSON fault response.
  void send_fault(const net::Endpoint& from, const HttpRequest& req,
                  int status, std::string_view code, std::string_view detail,
                  std::uint64_t trace_id);
  /// Writes head + multipart container into one pooled frame (blob part
  /// copied exactly once, straight off the reply buffer) and sends it.
  void send_mtom_response(const net::Endpoint& from, const HttpRequest& req,
                          util::BytesView blob, std::uint64_t trace_id);

  void count_status(int status);
  /// The request's QoS class tag; empty for none. Views the request, the
  /// tenant map or the config.
  std::string_view qos_class_for(const HttpRequest& req) const;

  orb::Orb& orb_;
  const qidl::InterfaceRepository& repo_;
  GatewayConfig config_;
  const net::Endpoint* listen_ = nullptr;  // bound in the constructor
  RouteTable routes_;
  std::unordered_map<std::string, Exposure> exposures_;  // by interface name
  /// Tenant -> class, looked up by the header's view without a copy.
  struct ViewHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };
  std::unordered_map<std::string, std::string, ViewHash, std::equal_to<>>
      tenants_;
  /// By the client's endpoint record (one per address, never freed).
  std::unordered_map<const net::Endpoint*, ConnectionPtr> connections_;
  /// marshal_args' per-parameter value cursors, kept for their capacity.
  std::vector<std::optional<JsonCursor>> param_values_;
  GatewayStats stats_;
  std::uint64_t next_cid_ = 0;
};

}  // namespace maqs::gateway
