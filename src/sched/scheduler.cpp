#include "sched/scheduler.hpp"

#include <algorithm>
#include <utility>

#include "orb/orb.hpp"
#include "trace/trace.hpp"

namespace maqs::sched {
namespace {

/// Guarantees a best_effort class and a concrete global bound.
SchedulerConfig normalize(SchedulerConfig config) {
  const bool has_best_effort = std::any_of(
      config.classes.begin(), config.classes.end(),
      [](const ClassConfig& c) { return c.name == kBestEffortClassName; });
  if (!has_best_effort) {
    ClassConfig best_effort;
    best_effort.name = kBestEffortClassName;
    config.classes.push_back(std::move(best_effort));
  }
  if (config.total_limit == 0) {
    for (const ClassConfig& c : config.classes) {
      config.total_limit += c.queue_limit;
    }
  }
  return config;
}

std::vector<std::string> class_names(const SchedulerConfig& config) {
  std::vector<std::string> names;
  names.reserve(config.classes.size());
  for (const ClassConfig& c : config.classes) names.push_back(c.name);
  return names;
}

template <typename States>
std::vector<double> class_weights(const States& states) {
  std::vector<double> weights;
  weights.reserve(states.size());
  for (const auto& state : states) weights.push_back(state.config.weight);
  return weights;
}

std::size_t best_effort_index(const SchedulerConfig& config) {
  for (std::size_t i = 0; i < config.classes.size(); ++i) {
    if (config.classes[i].name == kBestEffortClassName) return i;
  }
  return 0;  // unreachable after normalize()
}

}  // namespace

RequestScheduler::RequestScheduler(orb::Orb& orb, SchedulerConfig config)
    : RequestScheduler(orb, normalize(std::move(config)), NormalizedTag{}) {}

RequestScheduler::RequestScheduler(orb::Orb& orb, SchedulerConfig config,
                                   NormalizedTag)
    : orb_(orb),
      classifier_(class_names(config), best_effort_index(config)),
      classes_([&] {
        std::vector<ClassState> states;
        states.reserve(config.classes.size());
        const sim::TimePoint now = orb.loop().now();
        for (ClassConfig& c : config.classes) {
          ClassState state;
          if (c.rate_rps > 0) state.bucket.emplace(c.rate_rps, c.burst, now);
          state.config = std::move(c);
          states.push_back(std::move(state));
        }
        return states;
      }()),
      // classes_ is initialized above (member order), so read the weights
      // back out of it rather than the moved-from config.
      queue_(class_weights(classes_)),
      service_time_(config.service_rate_rps > 0
                        ? sim::from_seconds(1.0 / config.service_rate_rps)
                        : 0),
      total_limit_(config.total_limit) {
  stats_.classes.reserve(classes_.size());
  for (const ClassState& state : classes_) {
    ClassStats cs;
    cs.name = state.config.name;
    stats_.classes.push_back(std::move(cs));
  }
  orb_.register_server_interceptor(this, orb::priorities::kServerSched);
  orb_.loop().set_drain_hook([this] { return flush_all(); });
}

RequestScheduler::~RequestScheduler() {
  orb_.loop().set_drain_hook(nullptr);
  orb_.unregister_server_interceptor(this);
}

bool RequestScheduler::set_class_rate(std::string_view class_name,
                                      double rate_rps) {
  auto id = classifier_.class_id(class_name);
  if (!id) return false;
  ClassState& cs = classes_[*id];
  cs.config.rate_rps = rate_rps;
  const sim::TimePoint now = orb_.loop().now();
  if (rate_rps <= 0) {
    cs.bucket.reset();
  } else if (cs.bucket) {
    cs.bucket->set_rate(rate_rps, now);
  } else {
    cs.bucket.emplace(rate_rps, cs.config.burst, now);
  }
  return true;
}

std::size_t RequestScheduler::queue_depth(std::string_view class_name) const {
  auto id = classifier_.class_id(class_name);
  return id ? queue_.class_size(*id) : 0;
}

void RequestScheduler::receive_request(orb::ServerRequestInfo& info) {
  orb::RequestMessage& req = *info.request;
  if (info.resumed) {
    // Continuation of a request this scheduler dequeued: pass it through
    // to dispatch.
    if (trace::tracing_active()) {
      trace::point("sched.dispatch",
                   point_detail(classifier_.classify(req), nullptr));
    }
    return;
  }
  if (req.kind == orb::RequestKind::kCommand) {
    // Control plane (negotiation, adaptation, module commands): never
    // queued — renegotiation under overload must not wait behind the
    // backlog it is meant to relieve.
    ++stats_.commands_bypassed;
    return;
  }
  const std::size_t cls = classifier_.classify(req);
  ClassState& cs = classes_[cls];
  ++stats_.classes[cls].arrived;
  const sim::TimePoint now = orb_.loop().now();
  if (cs.bucket && !cs.bucket->try_take(now)) {
    ++stats_.shed_no_tokens;
    shed_arrival(info, cls, "no_tokens");
    return;
  }
  if (queue_.empty() && now >= busy_until_) {
    // Work conservation: an idle server serves the arrival on the spot —
    // the walk descends to dispatch as if no scheduler were armed.
    begin_service(now);
    ++stats_.dispatched_inline;
    ++stats_.classes[cls].dispatched;
    if (any_episode_open_) reset_drained_episodes();
    if (trace::tracing_active()) {
      trace::point("sched.dispatch", point_detail(cls, nullptr));
    }
    return;
  }
  if (queue_.class_size(cls) >= cs.config.queue_limit) {
    ++stats_.shed_queue_full;
    shed_arrival(info, cls, "queue_full");
    return;
  }
  if (queue_.size() >= total_limit_ && !evict_best_effort(cls)) {
    ++stats_.shed_queue_full;
    shed_arrival(info, cls, "queue_full");
    return;
  }
  Parked parked;
  parked.request = std::move(req);
  parked.from = info.from;
  queue_.push(cls, now + cs.config.deadline_budget, std::move(parked));
  ++stats_.parked;
  info.parked = true;
  if (trace::tracing_active()) {
    trace::point("sched.enqueue", point_detail(cls, nullptr));
  }
  arm_drain();
}

void RequestScheduler::begin_service(sim::TimePoint now) noexcept {
  if (service_time_ > 0) busy_until_ = now + service_time_;
}

void RequestScheduler::arm_drain() {
  if (drain_armed_ || queue_.empty()) return;
  drain_armed_ = true;
  orb_.loop().schedule_at(std::max(orb_.loop().now(), busy_until_),
                          [this] { on_drain(); });
}

void RequestScheduler::on_drain() {
  drain_armed_ = false;
  const sim::TimePoint now = orb_.loop().now();
  while (!queue_.empty()) {
    Queue::Popped item = queue_.pop();
    if (item.deadline < now) {
      // Too late to be worth serving; the client gets a classified
      // rejection instead of a reply it stopped waiting for.
      ++stats_.shed_deadline;
      shed_parked(item, "deadline");
      continue;
    }
    // One request per drain tick is the service-rate pacing; shedding
    // expired entries above consumed no service time.
    begin_service(now);
    ++stats_.dispatched_queued;
    ++stats_.classes[item.cls].dispatched;
    orb_.resume_request(std::move(item.payload.request), *item.payload.from);
    break;
  }
  if (any_episode_open_) reset_drained_episodes();
  arm_drain();
}

bool RequestScheduler::flush_all() {
  if (queue_.empty()) return false;
  // The loop is going idle with parked work: pacing no longer matters,
  // so serve (or shed) everything now rather than strand a request a
  // client is still pumping for.
  while (!queue_.empty()) {
    Queue::Popped item = queue_.pop();
    if (item.deadline < orb_.loop().now()) {
      ++stats_.shed_deadline;
      shed_parked(item, "deadline");
      continue;
    }
    ++stats_.dispatched_queued;
    ++stats_.classes[item.cls].dispatched;
    orb_.resume_request(std::move(item.payload.request), *item.payload.from);
  }
  if (any_episode_open_) reset_drained_episodes();
  return true;
}

void RequestScheduler::shed_arrival(orb::ServerRequestInfo& info,
                                    std::size_t cls, const char* cause) {
  const orb::RequestMessage& req = *info.request;
  note_shed(cls, req.object_key, cause);
  if (trace::tracing_active()) {
    trace::point("sched.shed", point_detail(cls, cause));
  }
  // Answer through the normal chain unwind: wire.reply sends it.
  info.reply = make_overload_reply(req.request_id, cls, cause);
  info.completed = true;
}

void RequestScheduler::shed_parked(Queue::Popped& item, const char* cause) {
  const orb::RequestMessage& req = item.payload.request;
  note_shed(item.cls, req.object_key, cause);
  // The arrival walk is long unwound; re-attach the span to the trace
  // context the request carried across the wire.
  trace::TraceRecorder* rec = orb_.trace_recorder();
  if (rec != nullptr && rec->enabled()) {
    if (auto tag = req.context.find(trace::kTraceContextKey);
        tag != req.context.end()) {
      if (auto ctx = trace::decode_context(tag->second)) {
        trace::point_under(*rec, *ctx, "sched.shed",
                           point_detail(item.cls, cause));
      }
    }
  }
  orb_.send_reply_frame(*item.payload.from,
                        make_overload_reply(req.request_id, item.cls, cause));
}

bool RequestScheduler::evict_best_effort(std::size_t incoming_cls) {
  const std::size_t best_effort = classifier_.best_effort();
  if (incoming_cls == best_effort) return false;
  std::optional<Queue::Popped> victim = queue_.evict_latest(best_effort);
  if (!victim) return false;
  ++stats_.shed_evicted;
  shed_parked(*victim, "evicted");
  return true;
}

void RequestScheduler::note_shed(std::size_t cls,
                                 const std::string& object_key,
                                 const char* cause) {
  ++stats_.classes[cls].shed;
  // Best-effort traffic has no agreement to renegotiate.
  if (cls == classifier_.best_effort()) return;
  ClassState& cs = classes_[cls];
  if (cs.overload_signaled || !overload_handler_) return;
  cs.overload_signaled = true;
  any_episode_open_ = true;
  ++stats_.overload_signals;
  // Fresh tick: the handler sends negotiation commands and must not run
  // inside the arrival walk that is shedding.
  orb_.loop().schedule(
      0, [this, cls, object_key, cause_str = std::string(cause)] {
        if (overload_handler_) {
          overload_handler_(classifier_.class_name(cls), object_key,
                            cause_str);
        }
      });
}

void RequestScheduler::reset_drained_episodes() {
  any_episode_open_ = false;
  for (std::size_t i = 0; i < classes_.size(); ++i) {
    if (!classes_[i].overload_signaled) continue;
    if (queue_.class_size(i) == 0) {
      classes_[i].overload_signaled = false;
    } else {
      any_episode_open_ = true;
    }
  }
}

orb::ReplyMessage RequestScheduler::make_overload_reply(
    std::uint64_t request_id, std::size_t cls, const char* cause) const {
  orb::ReplyMessage rep;
  rep.request_id = request_id;
  rep.status = orb::ReplyStatus::kSystemException;
  rep.exception = kOverloadException + ": class=" +
                  classifier_.class_name(cls) + " cause=" + cause;
  return rep;
}

std::string RequestScheduler::point_detail(std::size_t cls,
                                           const char* cause) const {
  std::string detail = "class=" + classifier_.class_name(cls) +
                       " depth=" + std::to_string(queue_.size());
  if (cause != nullptr) {
    detail += " cause=";
    detail += cause;
  }
  return detail;
}

}  // namespace maqs::sched
