// Server-side QoS-class request scheduler.
//
// The missing mechanism layer between agreement-time admission (the
// ResourceManager) and per-request dispatch: without it the server serves
// every inbound request immediately, FIFO, and a negotiated characteristic
// buys nothing once offered load exceeds capacity. The scheduler sits on
// the ORB's server interceptor chain at priority 175 — below the wire
// stages (trace re-attach 100, wire.reply 150), above the QoS transforms
// (qos.server 200) — and turns dispatch into a scheduled, virtual-time-
// driven activity:
//
//   arrival --> classify --> token-bucket admit --> bounded queue (park)
//                                  |                      |
//                                  v                      v  EventLoop
//                            maqs/OVERLOAD           WFQ + deadline pop
//                          (never a silent drop)          |
//                                                         v
//                                            Orb::resume_request (full
//                                            chain re-entry, wire reply)
//
// Policy, mechanism, and their separation (the RAFDA argument): the
// scheduler is pure mechanism. Which class a binding maps to, what budget
// a class gets, and what renegotiation means on overload are policy,
// injected through the classifier bindings, the class configs, and the
// overload handler (wired to the negotiation/adaptation layer by
// core/sched_bridge.hpp).
//
// Overload contract: a request that cannot be served is *answered* with a
// classified SYSTEM_EXCEPTION ("maqs/OVERLOAD: class=<c> cause=<why>") —
// never silently dropped — and for non-best-effort classes the first shed
// of an overload episode signals the overload handler exactly once, so
// the client side can renegotiate the class downward before further
// rejections. Shedding prefers best-effort: under global queue pressure a
// queued best-effort request (latest deadline first) is evicted to make
// room for a higher-class arrival.
//
// Determinism: arrivals are ordered by the event loop, queues by
// (virtual-time WFQ tag, deadline, admission seq), token refill by the
// virtual clock. A fixed-seed run replays every admit/park/shed/dispatch
// decision — and therefore every trace span — byte-identically.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "net/address.hpp"
#include "orb/interceptor.hpp"
#include "orb/message.hpp"
#include "sched/classifier.hpp"
#include "sched/token_bucket.hpp"
#include "sched/wfq.hpp"
#include "sim/clock.hpp"

namespace maqs::orb {
class Orb;
}

namespace maqs::sched {

/// Exception-id prefix of every shed reply.
inline const std::string kOverloadException = "maqs/OVERLOAD";

/// One QoS class the scheduler differentiates.
struct ClassConfig {
  std::string name;
  /// WFQ share relative to the other backlogged classes.
  double weight = 1.0;
  /// Deadline = arrival + budget; queued requests past it are shed.
  sim::Duration deadline_budget = 100 * sim::kMillisecond;
  /// Bound on this class's queue; arrivals beyond it are shed.
  std::size_t queue_limit = 64;
  /// Token-bucket admission rate (requests per virtual second);
  /// 0 disables the gate for this class.
  double rate_rps = 0.0;
  /// Bucket depth for rate_rps.
  double burst = 8.0;
  /// Optional ResourceManager coupling: names a declared resource whose
  /// capacity drives rate_rps at runtime (core::attach_class_budgets).
  std::string resource;
};

struct SchedulerConfig {
  /// A "best_effort" class is appended when the list does not name one.
  std::vector<ClassConfig> classes;
  /// Service (drain) rate in requests per virtual second. 0 = unpaced:
  /// an idle server dispatches arrivals inline (classification and
  /// admission still apply) and the queues never build.
  double service_rate_rps = 0.0;
  /// Global bound across all class queues; 0 derives it from the sum of
  /// the per-class limits.
  std::size_t total_limit = 0;
};

struct ClassStats {
  std::string name;
  std::uint64_t arrived = 0;     ///< classified service requests
  std::uint64_t dispatched = 0;  ///< served (inline or from the queue)
  std::uint64_t shed = 0;        ///< answered with maqs/OVERLOAD
};

struct SchedStats {
  std::uint64_t dispatched_inline = 0;  ///< served on arrival (idle server)
  std::uint64_t parked = 0;             ///< queued for deferred dispatch
  std::uint64_t dispatched_queued = 0;  ///< served from the queue
  std::uint64_t shed_no_tokens = 0;     ///< token-bucket admission refusals
  std::uint64_t shed_queue_full = 0;    ///< class/global bound refusals
  std::uint64_t shed_deadline = 0;      ///< queued past their deadline
  std::uint64_t shed_evicted = 0;       ///< best-effort victims evicted
  std::uint64_t overload_signals = 0;   ///< renegotiate-once callbacks fired
  std::uint64_t commands_bypassed = 0;  ///< control plane passed through
  std::vector<ClassStats> classes;

  std::uint64_t total_shed() const noexcept {
    return shed_no_tokens + shed_queue_full + shed_deadline + shed_evicted;
  }
  std::uint64_t total_dispatched() const noexcept {
    return dispatched_inline + dispatched_queued;
  }
};

/// The scheduler. Construction registers it on `orb`'s server chain at
/// priorities::kServerSched and installs the event-loop drain hook;
/// destruction undoes both. Commands (the negotiation/adaptation control
/// plane) always bypass the queues — renegotiation under overload must not
/// wait behind the very backlog it is meant to relieve.
class RequestScheduler final : public orb::ServerInterceptor {
 public:
  RequestScheduler(orb::Orb& orb, SchedulerConfig config);
  ~RequestScheduler() override;
  RequestScheduler(const RequestScheduler&) = delete;
  RequestScheduler& operator=(const RequestScheduler&) = delete;

  RequestClassifier& classifier() noexcept { return classifier_; }
  const RequestClassifier& classifier() const noexcept { return classifier_; }

  /// First shed of an overload episode for a non-best-effort class, on a
  /// fresh event-loop tick (the handler talks to the negotiation layer).
  /// An episode ends when the class's queue drains.
  using OverloadHandler = std::function<void(
      const std::string& class_name, const std::string& object_key,
      const std::string& cause)>;
  void set_overload_handler(OverloadHandler handler) {
    overload_handler_ = std::move(handler);
  }

  /// Re-budgets a class's admission rate (ResourceManager coupling);
  /// false for unknown classes. Rate 0 removes the gate.
  bool set_class_rate(std::string_view class_name, double rate_rps);

  const SchedStats& stats() const noexcept { return stats_; }
  std::size_t queue_depth() const noexcept { return queue_.size(); }
  std::size_t queue_depth(std::string_view class_name) const;
  const ClassConfig& class_config(std::size_t cls) const {
    return classes_[cls].config;
  }

  // -- orb::ServerInterceptor --
  const char* name() const noexcept override { return "sched"; }
  void receive_request(orb::ServerRequestInfo& info) override;

 private:
  struct NormalizedTag {};
  RequestScheduler(orb::Orb& orb, SchedulerConfig config, NormalizedTag);

  struct Parked {
    orb::RequestMessage request;
    const net::Endpoint* from = nullptr;  // records live as long as the net
  };
  using Queue = WeightedFairQueue<Parked>;

  struct ClassState {
    ClassConfig config;
    std::optional<TokenBucket> bucket;
    /// Set when this episode's renegotiation signal fired; reset when the
    /// class's queue drains.
    bool overload_signaled = false;
  };

  void begin_service(sim::TimePoint now) noexcept;
  void arm_drain();
  void on_drain();
  /// EventLoop drain hook: flushes every parked request (pacing no longer
  /// matters on a loop going idle) so none is ever stranded.
  bool flush_all();
  /// Sheds an arriving request through the normal chain unwind: fills an
  /// OVERLOAD reply, sets info.completed.
  void shed_arrival(orb::ServerRequestInfo& info, std::size_t cls,
                    const char* cause);
  /// Sheds a previously parked request: the reply goes straight onto the
  /// wire (Orb::send_reply_frame), the span re-attaches to the parked
  /// request's trace context.
  void shed_parked(Queue::Popped& item, const char* cause);
  /// Evicts the latest-deadline best-effort entry to admit a higher-class
  /// arrival; false when there is no such victim.
  bool evict_best_effort(std::size_t incoming_cls);
  /// Shed accounting + the renegotiate-once overload signal.
  void note_shed(std::size_t cls, const std::string& object_key,
                 const char* cause);
  void reset_drained_episodes();
  orb::ReplyMessage make_overload_reply(std::uint64_t request_id,
                                        std::size_t cls,
                                        const char* cause) const;
  std::string point_detail(std::size_t cls, const char* cause) const;

  orb::Orb& orb_;
  RequestClassifier classifier_;
  std::vector<ClassState> classes_;
  Queue queue_;
  sim::Duration service_time_ = 0;  // 0 = unpaced
  std::size_t total_limit_ = 0;
  sim::TimePoint busy_until_ = 0;
  bool drain_armed_ = false;
  bool any_episode_open_ = false;
  OverloadHandler overload_handler_;
  SchedStats stats_;
};

}  // namespace maqs::sched
