// The unified invocation-interceptor pipeline (CORBA Portable-Interceptor
// style, shrunk to this ORB).
//
// Every cross-cutting concern of the request path — mediator delegation,
// trace span weaving, retry/backoff, circuit breaking, QoS routing — is an
// interceptor on one of two ordered chains:
//
//   client chain (Orb::invoke / invoke_plain walk it top-down):
//     100 trace.client   mint root span + "qos.trace" wire entry
//     200 mediator       try_local / target / outbound / inbound delegation
//     300 qos.route      Fig. 3 "with QoS?" fork to the RequestRouter
//     350 local_fault    synthesized-fault -> TransportError contract
//         ^-- invoke_plain enters the chain here (kClientPlainEntry)
//     400 retry          RetryAdvisor consult, backoff, fresh request id
//     450 trace.attempt  per-attempt "retry.attempt" child span
//     500 breaker        per-endpoint circuit-breaker fast-fail
//     --- terminal: one wire attempt (encode, send, pump until reply)
//
//   server chain (Orb::handle_request walks it):
//     100 trace.server   re-attach the caller's trace context
//     150 wire.reply     stamp request id, encode, count bytes, send
//     175 sched          QoS-class scheduler (when armed): classify, admit,
//                        park; dispatch resumes via Orb::resume_request
//     200 qos.server     commands + router inbound/outbound transforms
//     --- terminal: object-adapter dispatch to the servant
//
// Chains are flat vectors ordered by (priority, registration order); the
// walk is an onion: send/receive hooks run in ascending priority order,
// reply hooks unwind in reverse. Per-invocation state crosses stages via
// the ClientRequestInfo/ServerRequestInfo record and its fixed SlotTable —
// no allocation on the fast path, and interceptors themselves stay
// stateless across concurrent (nested) invocations.
//
// Short-circuiting: a client interceptor may complete the call from
// send_request (skipping everything below it *and* its own receive_reply),
// ask for the levels from itself downward to be re-driven (kRetry), or
// fail the call by throwing from receive_reply; a server interceptor
// completes by setting info.completed. Both walks are private to Orb
// (client_walk, server_walk). The QoS skeleton's prolog/epilog weave runs
// below the server chain's terminal, inside the servant's dispatch (see
// core/qos_skeleton.cpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "net/network.hpp"
#include "orb/breaker.hpp"
#include "orb/exceptions.hpp"
#include "orb/ior.hpp"
#include "orb/message.hpp"
#include "trace/trace.hpp"

namespace maqs::orb {

class Orb;
class RequestRouter;
struct OrbStats;

/// Documented chain positions. Custom interceptors pick any other value;
/// equal priorities keep registration order.
namespace priorities {
inline constexpr int kClientTrace = 100;
inline constexpr int kClientMediator = 200;
/// Replica selection (naming::ReplicaSelector) sits between the mediator
/// and the QoS fork: the profile a call addresses, also inside a group the
/// mediator named, is chosen before qos.route hands the endpoint on.
inline constexpr int kClientReplicaSelect = 250;
inline constexpr int kClientRoute = 300;
inline constexpr int kClientLocalFault = 350;
/// Replica failover sits between local_fault and retry: it observes
/// synthesized fault replies *as replies* (local_fault above would convert
/// them to TransportError on the unwind) only after the retry stage below
/// has exhausted its per-replica attempts.
inline constexpr int kClientReplicaFailover = 375;
inline constexpr int kClientRetry = 400;
inline constexpr int kClientAttemptTrace = 450;
inline constexpr int kClientBreaker = 500;
inline constexpr int kServerTrace = 100;
inline constexpr int kServerWireReply = 150;
inline constexpr int kServerSched = 175;
inline constexpr int kServerQos = 200;
}  // namespace priorities

/// invoke_plain() enters the client chain at the first interceptor whose
/// priority is >= this: routing/mediation/trace minting belong to the full
/// invocation interface, resilience to every plain-path send.
inline constexpr int kClientPlainEntry = priorities::kClientLocalFault;

/// The per-invocation delegate the paper's §3.3 mediator weaving plugs
/// into the stub: it may answer locally, rewrite the request, name the
/// reference the call addresses and observe the reply. Consumed by the
/// mediator client interceptor; maqs::core::Mediator derives from it.
class ClientDelegate {
 public:
  virtual ~ClientDelegate() = default;

  /// May answer the request locally (e.g. from a cache), bypassing the
  /// network entirely. Default: no local answer.
  virtual std::optional<ReplyMessage> try_local(const RequestMessage& req) {
    (void)req;
    return std::nullopt;
  }

  /// The reference calls address instead of the stub's own (load
  /// balancing's agreed replica group); nullptr keeps the stub's. The call
  /// holds the pointer until it completes, so a rebind while it is in
  /// flight cannot free what it addresses.
  virtual std::shared_ptr<const ObjRef> target() const { return nullptr; }

  /// Before the request reaches the wire; may rewrite body/context.
  virtual void outbound(RequestMessage& req) { (void)req; }

  /// After the reply returns, before the stub unmarshals it.
  virtual void inbound(const RequestMessage& req, ReplyMessage& rep) {
    (void)req;
    (void)rep;
  }

  /// Whether inbound() reads the request's body/context. When false the
  /// pipeline retains only the cheap header fields for inbound()
  /// correlation, sparing a copy of the marshaled arguments. Payload
  /// transforms that only touch the reply (compression, encryption)
  /// override this to false; the conservative default keeps the full
  /// request alive.
  virtual bool needs_request_payload() const { return true; }
};

/// Extension point implemented by the retry policy (maqs::core). The
/// interface lives in the ORB layer so the retry interceptor can drive the
/// loop, while the policy itself (what is safe to retry, backoff schedule,
/// deadline budget) stays a core concern.
class RetryAdvisor {
 public:
  virtual ~RetryAdvisor() = default;

  /// Consulted after attempt number `attempt` (1-based) produced the
  /// SYSTEM_EXCEPTION reply `rep`. `elapsed` is the virtual time spent in
  /// the invocation so far. Return a backoff to sleep before retrying, or
  /// nullopt to give up and surface the reply as-is.
  virtual std::optional<sim::Duration> on_attempt_failed(
      const net::Address& dest, const RequestMessage& req,
      const ReplyMessage& rep, int attempt, sim::Duration elapsed) = 0;
};

/// Fixed-size cross-stage scratch space: one u64 per slot, zeroed per
/// invocation, no heap. Slot indices are handed out per chain
/// (InterceptorChain::allocate_slot), so independently written
/// interceptors cannot collide.
struct SlotTable {
  static constexpr std::size_t kSlots = 8;
  std::uint64_t values[kSlots] = {};

  std::uint64_t get(std::size_t slot) const noexcept { return values[slot]; }
  void set(std::size_t slot, std::uint64_t value) noexcept {
    values[slot] = value;
  }
};

/// The breaker stage's circuits, one per (endpoint, object key). The
/// transparent comparator lets admission probe with a (const Address&,
/// string_view) pair — no key materialization per request.
using BreakerKey = std::pair<net::Address, std::string>;
struct BreakerKeyLess {
  using is_transparent = void;
  template <typename A, typename B>
  bool operator()(const A& a, const B& b) const noexcept {
    if (a.first != b.first) return a.first < b.first;
    return std::string_view(a.second) < std::string_view(b.second);
  }
};
using BreakerMap = std::map<BreakerKey, CircuitBreaker, BreakerKeyLess>;
/// One breaker with its key. Map nodes never move, so the request a
/// circuit admitted keeps a pointer to it until its reply or timeout.
using Circuit = BreakerMap::value_type;

/// Per-invocation record threaded through the client chain. Lives on the
/// caller's stack (the stub keeps it alive across raise_for_status so the
/// root span covers reply classification, exactly like the pre-pipeline
/// inline weaving did).
struct ClientRequestInfo {
  explicit ClientRequestInfo(Orb& o) : orb(o) {}

  Orb& orb;

  /// Invocation target; the mediator stage repoints it at the reference
  /// its delegate names. Null for plain-entry walks (invoke_plain), which
  /// address an endpoint.
  const ObjRef* target = nullptr;
  /// Endpoint the QoS router or the wire attempt addresses: the target's,
  /// or invoke_plain's destination. Only replica selection and failover
  /// move it, to a profile endpoint inside the target.
  const net::Address* dest = nullptr;

  RequestMessage request;
  ReplyMessage reply;

  /// Mediator stage state: the per-invocation delegate, the retained
  /// request handed to inbound(), and the reference the delegate named,
  /// held for the whole call.
  ClientDelegate* mediator = nullptr;
  RequestMessage retained;
  std::shared_ptr<const ObjRef> named_target;

  /// Retry stage state. `attempt` is 1-based; `retry_engaged` is set iff
  /// an advisor is armed for this invocation.
  int attempt = 1;
  bool retry_engaged = false;
  sim::TimePoint started = 0;

  /// Breaker stage state: the circuit that admitted the current attempt,
  /// null while breaking is off.
  Circuit* circuit = nullptr;

  /// Trace stage state: the root client.request span and the per-attempt
  /// retry.attempt span. Inline storage — spans cost no allocation.
  std::optional<trace::SpanScope> root_span;
  std::optional<trace::SpanScope> attempt_span;

  SlotTable slots;
};

/// Per-invocation record threaded through the ORB's server chain.
struct ServerRequestInfo {
  Orb* orb = nullptr;
  /// The endpoint the request came from; the reply goes back through it.
  const net::Endpoint* from = nullptr;
  RequestMessage* request = nullptr;
  ReplyMessage reply;
  /// Set by an interceptor that answered the request itself; stops the
  /// walk from descending further (its own send_reply hook is skipped,
  /// the hooks above it still unwind).
  bool completed = false;
  /// Set by a scheduling interceptor that took ownership of the request
  /// and deferred its dispatch. Aborts the walk entirely: no level runs a
  /// send_reply hook (there is no reply yet — the owner re-enters the
  /// chain later via Orb::resume_request with `resumed` set).
  bool parked = false;
  /// Marks a walk re-entered for a previously parked request, so the
  /// parking interceptor passes it straight through to dispatch.
  bool resumed = false;
  std::optional<trace::SpanScope> server_span;
  SlotTable slots;
};

enum class SendAction {
  kContinue,  // descend to the next interceptor
  kComplete,  // info.reply is the answer; skip everything below
};

enum class ReplyAction {
  kContinue,  // unwind to the interceptor above
  kRetry,     // re-drive this interceptor and everything below it
};

class ClientInterceptor {
 public:
  virtual ~ClientInterceptor() = default;
  virtual const char* name() const noexcept = 0;

  /// Descending pass. May rewrite info.request, answer the call
  /// (kComplete after filling info.reply), or throw to fail it.
  virtual SendAction send_request(ClientRequestInfo&) {
    return SendAction::kContinue;
  }

  /// Ascending pass with info.reply filled. May rewrite the reply, demand
  /// a re-drive (kRetry), or throw to fail the call.
  virtual ReplyAction receive_reply(ClientRequestInfo&) {
    return ReplyAction::kContinue;
  }

  /// Observes an exception unwinding past this level (thrown below, or by
  /// this level's receive_reply). Cleanup only; the exception is rethrown.
  virtual void receive_exception(ClientRequestInfo&) noexcept {}
};

class ServerInterceptor {
 public:
  virtual ~ServerInterceptor() = default;
  virtual const char* name() const noexcept = 0;

  /// Descending pass. May rewrite the request or complete the call
  /// (fill info.reply, set info.completed).
  virtual void receive_request(ServerRequestInfo&) {}

  /// Ascending pass with info.reply filled. May rewrite or send it.
  virtual void send_reply(ServerRequestInfo&) {}

  /// Offered the Error unwinding past this level. Returning true converts
  /// it: the interceptor filled info.reply and the walk unwinds normally
  /// from here. Returning false (default) propagates.
  virtual bool handle_error(ServerRequestInfo&, const Error&) {
    return false;
  }

  /// Observes an exception this level did not convert. Cleanup only.
  virtual void send_exception(ServerRequestInfo&) noexcept {}
};

/// Flat, priority-ordered chain with per-entry hit/short-circuit counters.
/// Registration keeps the vector sorted (stable for equal priorities), so
/// any permutation of registration calls yields the same walk order.
template <typename Interceptor>
class InterceptorChain {
 public:
  struct Entry {
    int priority = 0;
    Interceptor* interceptor = nullptr;
    std::uint64_t hits = 0;
    std::uint64_t short_circuits = 0;
  };

  void add(Interceptor* interceptor, int priority) {
    Entry entry;
    entry.priority = priority;
    entry.interceptor = interceptor;
    auto pos = std::upper_bound(
        entries_.begin(), entries_.end(), entry,
        [](const Entry& a, const Entry& b) { return a.priority < b.priority; });
    entries_.insert(pos, entry);
  }

  /// Removes the first entry for `interceptor`; false when absent.
  bool remove(const Interceptor* interceptor) {
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->interceptor == interceptor) {
        entries_.erase(it);
        return true;
      }
    }
    return false;
  }

  std::vector<Entry>& entries() noexcept { return entries_; }
  const std::vector<Entry>& entries() const noexcept { return entries_; }

  /// Index of the first interceptor at or above `priority` (walk entry
  /// point for partial walks).
  std::size_t first_at_or_above(int priority) const noexcept {
    std::size_t i = 0;
    while (i < entries_.size() && entries_[i].priority < priority) ++i;
    return i;
  }

  /// Hands out the next free SlotTable index. Throws once the fixed table
  /// is exhausted — interceptors acquire slots at registration time, so
  /// this can never fire mid-request.
  std::size_t allocate_slot() {
    if (next_slot_ >= SlotTable::kSlots) {
      throw Error("interceptor chain: slot table exhausted");
    }
    return next_slot_++;
  }

 private:
  std::vector<Entry> entries_;
  std::size_t next_slot_ = 0;
};

using ClientChain = InterceptorChain<ClientInterceptor>;
using ServerChain = InterceptorChain<ServerInterceptor>;

/// One row of Orb::dump_interceptors() / StatsSnapshot's chain section.
struct InterceptorRecord {
  const char* name = "";
  int priority = 0;
  std::uint64_t hits = 0;
  std::uint64_t short_circuits = 0;
  bool server = false;
};

// ---- built-in client interceptors ----

/// 100: mints the root client.request span and the "qos.trace" wire entry
/// when the recorder is enabled and head sampling says yes. The span lives
/// in the info record, so it stays open until the info owner (the stub)
/// releases it — reply classification happens under the span.
class TraceClientInterceptor final : public ClientInterceptor {
 public:
  explicit TraceClientInterceptor(Orb& orb) : orb_(orb) {}
  const char* name() const noexcept override { return "trace.client"; }
  SendAction send_request(ClientRequestInfo& info) override;

 private:
  Orb& orb_;
};

/// 200: the paper's §3.3 mediator weaving, driven by the per-invocation
/// delegate in info.mediator (installed by StubBase::set_mediator).
class MediatorClientInterceptor final : public ClientInterceptor {
 public:
  const char* name() const noexcept override { return "mediator"; }
  SendAction send_request(ClientRequestInfo& info) override;
  ReplyAction receive_reply(ClientRequestInfo& info) override;
};

/// 300: Fig. 3 "With QoS?" — QoS-aware targets with a router installed
/// complete through RequestRouter::route(); everything else descends onto
/// the plain path.
class RouteClientInterceptor final : public ClientInterceptor {
 public:
  RouteClientInterceptor(Orb& orb, OrbStats& stats)
      : orb_(orb), stats_(stats) {}
  const char* name() const noexcept override { return "qos.route"; }
  SendAction send_request(ClientRequestInfo& info) override;

 private:
  Orb& orb_;
  OrbStats& stats_;
};

/// 350 (= kClientPlainEntry): converts locally synthesized fault replies
/// (timeout, breaker fast-fail) into the TransportError the blocking
/// contract promises — after the retry level below has given up, before
/// the mediator/route levels above observe the unwind.
class LocalFaultClientInterceptor final : public ClientInterceptor {
 public:
  const char* name() const noexcept override { return "local_fault"; }
  ReplyAction receive_reply(ClientRequestInfo& info) override;
};

/// 400: consults the armed RetryAdvisor on SYSTEM_EXCEPTION replies,
/// sleeps the granted backoff on the virtual clock, assigns a fresh
/// request id (a straggler reply to an abandoned attempt must never
/// satisfy the retried one) and re-drives the levels below.
class RetryClientInterceptor final : public ClientInterceptor {
 public:
  RetryClientInterceptor(Orb& orb, OrbStats& stats)
      : orb_(orb), stats_(stats) {}
  const char* name() const noexcept override { return "retry"; }
  SendAction send_request(ClientRequestInfo& info) override;
  ReplyAction receive_reply(ClientRequestInfo& info) override;

  void set_advisor(RetryAdvisor* advisor) noexcept { advisor_ = advisor; }
  RetryAdvisor* advisor() const noexcept { return advisor_; }

 private:
  Orb& orb_;
  OrbStats& stats_;
  RetryAdvisor* advisor_ = nullptr;
};

/// 450: opens one retry.attempt child span per wire attempt when a retry
/// policy is engaged and a trace is in flight — retry wraps trace, so
/// per-attempt transport/network spans nest under their attempt instead
/// of smearing into one span outside the loop.
class AttemptTraceClientInterceptor final : public ClientInterceptor {
 public:
  const char* name() const noexcept override { return "trace.attempt"; }
  SendAction send_request(ClientRequestInfo& info) override;
  ReplyAction receive_reply(ClientRequestInfo& info) override;
  void receive_exception(ClientRequestInfo& info) noexcept override;
};

/// 500: per-(endpoint, profile) circuit breaker. Breakers are keyed by the
/// destination endpoint *and* the addressed object key, so one dead or
/// slow servant's open circuit never fast-fails sibling profiles behind
/// the same logical service (or other objects on the same ORB). Owns the
/// breaker map and the transition bookkeeping; the ORB's async send path
/// and the reply/timeout plumbing share it through admit()/
/// on_reply_decoded()/on_transport_failure().
class BreakerClientInterceptor final : public ClientInterceptor {
 public:
  BreakerClientInterceptor(Orb& orb, OrbStats& stats)
      : orb_(orb), stats_(stats) {}
  const char* name() const noexcept override { return "breaker"; }
  SendAction send_request(ClientRequestInfo& info) override;

  bool armed() const noexcept { return config_.has_value(); }
  /// Drops every circuit: the caller first forgets the pointers its
  /// pending requests hold (Orb::set_breaker_config).
  void set_config(std::optional<BreakerConfig> config) {
    config_ = config;
    breakers_.clear();
  }
  const std::optional<BreakerConfig>& config() const noexcept {
    return config_;
  }
  /// Endpoint aggregate: the most-degraded state (open > half-open >
  /// closed) over every profile breaker at `dest`; nullopt when none
  /// tracks the endpoint yet.
  std::optional<BreakerState> state(const net::Address& dest) const;
  /// Exact (endpoint, profile) breaker state.
  std::optional<BreakerState> state(const net::Address& dest,
                                    std::string_view profile) const;

  /// Admission check shared by the chain walk and the async send path.
  /// Returns the circuit guarding (dest, profile) when it admits the
  /// request; nullptr, with `fast` filled (a synthesized CIRCUIT_OPEN
  /// reply), when it rejects it.
  Circuit* admit(const net::Address& dest, std::string_view profile,
                 std::uint64_t request_id, ReplyMessage& fast);
  /// A decoded reply matched to the request `circuit` admitted proves that
  /// profile's servant live.
  void on_reply_decoded(Circuit& circuit);
  /// An orphaned (or multicast) reply cannot be attributed to a profile;
  /// it still proves the endpoint reachable, so every breaker at that
  /// endpoint records the success.
  void on_reply_decoded_any(const net::Address& from);
  /// A timeout charges the circuit that admitted the request.
  void on_transport_failure(Circuit& circuit);

 private:
  void note_transition(const BreakerKey& key, BreakerState from,
                       BreakerState to);

  Orb& orb_;
  OrbStats& stats_;
  std::optional<BreakerConfig> config_;
  BreakerMap breakers_;
};

// ---- built-in server interceptors ----

/// 100: re-attaches the client's trace context so server spans (and the
/// reply's transit span, sent by wire.reply while this scope is open)
/// share the trace. Unknown/garbage context entries are ignored.
class TraceServerInterceptor final : public ServerInterceptor {
 public:
  const char* name() const noexcept override { return "trace.server"; }
  void receive_request(ServerRequestInfo& info) override;
  void send_reply(ServerRequestInfo& info) override;
  void send_exception(ServerRequestInfo& info) noexcept override;
};

/// 150: the wire tail of handle_request — stamps the reply with the
/// original request id (saved on the way down; router transforms may
/// rewrite the request), encodes, counts bytes and sends.
class WireReplyServerInterceptor final : public ServerInterceptor {
 public:
  WireReplyServerInterceptor(Orb& orb, OrbStats& stats)
      : orb_(orb), stats_(stats) {}
  const char* name() const noexcept override { return "wire.reply"; }
  void receive_request(ServerRequestInfo& info) override;
  void send_reply(ServerRequestInfo& info) override;
  void set_slot(std::size_t slot) noexcept { slot_ = slot; }

 private:
  Orb& orb_;
  OrbStats& stats_;
  std::size_t slot_ = 0;
};

/// 200: the Fig. 3 server half — commands are
/// answered by the router (or rejected), QoS-aware service requests get
/// the router's inbound/outbound transforms, and router/servant Errors
/// are converted into SYSTEM_EXCEPTION replies for service requests.
class QosServerInterceptor final : public ServerInterceptor {
 public:
  QosServerInterceptor(Orb& orb, OrbStats& stats)
      : orb_(orb), stats_(stats) {}
  const char* name() const noexcept override { return "qos.server"; }
  void receive_request(ServerRequestInfo& info) override;
  void send_reply(ServerRequestInfo& info) override;
  bool handle_error(ServerRequestInfo& info, const Error& e) override;
  void set_slot(std::size_t slot) noexcept { slot_ = slot; }

 private:
  Orb& orb_;
  OrbStats& stats_;
  std::size_t slot_ = 0;
};

}  // namespace maqs::orb
