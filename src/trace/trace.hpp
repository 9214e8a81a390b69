// Request-scoped causal tracing.
//
// The paper's framework "provides infrastructure services such as for the
// negotiation of QoS agreements and for monitoring them" (§2.1). The
// aggregated counters (OrbStats, TransportStats, NetStats) and the Monitor
// answer *whether* a QoS agreement holds; this subsystem answers *where* a
// woven request spent its time: mediator transform, transport dispatch,
// link serialization, prolog/epilog, reply.
//
// Model (OpenTelemetry-shaped, shrunk to the simulator):
//
//   - A TraceContext {trace id, span id, flags} is minted at the stub when
//     the ORB's TraceRecorder is enabled and the head-based sampler says
//     yes. It crosses the wire as the "qos.trace" ServiceContext entry
//     (17 fixed bytes) and is re-attached server-side, so client and
//     server spans share one trace. Peers without tracing support ignore
//     the entry; malformed entries decode to nullopt and are dropped.
//
//   - SpanScope is the RAII unit of attribution. Scopes form a stack
//     through one thread_local pointer (each simulation shard is its own
//     single-threaded world on its own thread, so scopes never leak
//     across shards). Layers that hold a recorder open *root* scopes
//     (stub mint, server re-attach); layers below (mediators, transport,
//     network, skeleton) open *child* scopes of whatever is active — or
//     do nothing, at the cost of one thread-local load, when no trace is
//     in flight. Anything sent while a scope is active is causally part
//     of that trace, which is exactly what makes nested pumping
//     attributable.
//
//   - The TraceRecorder keeps completed spans in a bounded ring buffer
//     (oldest evicted first), timestamps off the virtual clock (traces
//     from a fixed sim seed are byte-identical across runs), exports
//     chrome://tracing-loadable JSON and a human-readable tree, and can
//     feed span durations into a metrics sink (core::Monitor) so
//     thresholds and adaptation trigger off per-stage latency.
//
// Zero-cost-when-off discipline: every instrumentation point is a branch
// on a pointer (recorder installed + enabled, or active scope non-null)
// before any allocation happens. Span detail strings are materialized
// only once a scope is known to record.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/event_loop.hpp"
#include "util/bytes.hpp"

namespace maqs::trace {

using TraceId = std::uint64_t;
using SpanId = std::uint64_t;

/// Service-context key carrying the trace context across the wire.
inline const std::string kTraceContextKey = "qos.trace";

/// Context flag bits.
inline constexpr std::uint8_t kSampledFlag = 0x01;

/// The propagated slice of a trace: enough to re-attach on the far side.
struct TraceContext {
  TraceId trace_id = 0;
  /// Span the receiver should parent to (the sender's current span).
  SpanId span_id = 0;
  std::uint8_t flags = 0;

  bool valid() const noexcept { return trace_id != 0; }
  bool sampled() const noexcept { return (flags & kSampledFlag) != 0; }

  bool operator==(const TraceContext&) const = default;
};

/// Fixed 17-byte wire form: u64 trace id LE, u64 span id LE, u8 flags.
util::Bytes encode_context(const TraceContext& ctx);

/// Strict inverse of encode_context(). Returns nullopt for anything that
/// is not exactly 17 bytes or names trace id 0 — wire tolerance for peers
/// speaking a different (or no) tracing dialect.
std::optional<TraceContext> decode_context(util::BytesView data);

/// One completed span. `name` is a static stage-taxonomy string (see
/// docs/architecture.md "Observability"); `detail` carries the dynamic
/// part (operation, characteristic, link endpoints).
struct Span {
  TraceId trace_id = 0;
  SpanId span_id = 0;
  SpanId parent_id = 0;  // 0 = root
  /// Simulation shard that produced the span (recorder's shard id);
  /// shard 0 is the default single-world case.
  std::uint32_t shard = 0;
  const char* name = "";
  std::string detail;
  sim::TimePoint start = 0;
  sim::TimePoint end = 0;
  /// Non-empty when the spanned work failed (see note_error()).
  std::string error;

  sim::Duration duration() const noexcept { return end - start; }
};

/// Recorder counters, surfaced through core::StatsSnapshot.
struct RecorderStats {
  std::uint64_t traces_started = 0;   // make_trace() calls
  std::uint64_t traces_sampled = 0;   // of those, head-sampled in
  std::uint64_t spans_recorded = 0;
  std::uint64_t spans_evicted = 0;    // ring overwrote before export
  std::uint64_t span_errors = 0;      // spans recorded with an error
};

class TraceRecorder {
 public:
  /// `loop` supplies virtual-time timestamps; `capacity` bounds the span
  /// ring (oldest spans are evicted, never reallocated past capacity).
  explicit TraceRecorder(sim::EventLoop& loop, std::size_t capacity = 4096);

  /// Master switch. Disabled (the default) means instrumentation points
  /// compile down to branch-and-skip: no mint, no context entry, no span.
  void set_enabled(bool on) noexcept { enabled_ = on; }
  bool enabled() const noexcept { return enabled_; }

  /// Head-based sampling: every n-th minted trace records (1 = all, the
  /// default; 0 = none). The decision is made once at the stub and rides
  /// the sampled flag, so a trace is recorded everywhere or nowhere.
  void set_sample_every(std::uint32_t n) noexcept { sample_every_ = n; }
  std::uint32_t sample_every() const noexcept { return sample_every_; }

  sim::TimePoint now() const noexcept { return loop_.now(); }

  /// Tags every span this recorder produces with a shard id. A sharded
  /// population run gives each parallel world its own recorder and a
  /// distinct shard id; the merge (trace/merge.hpp) then orders spans by
  /// shard regardless of thread completion order. Exported as the chrome
  /// pid (shard + 1), so each shard gets its own process row.
  void set_shard(std::uint32_t shard) noexcept { shard_ = shard; }
  std::uint32_t shard() const noexcept { return shard_; }

  /// Mints the context for a new trace (stub-side). The returned context
  /// has a fresh trace id and no parent span; check sampled() before
  /// paying for a root scope or a wire entry.
  TraceContext make_trace();

  /// Deterministic span id allocation (per-recorder counter).
  SpanId next_span_id() noexcept { return next_span_id_++; }

  /// Appends a completed span to the ring. `span_id` comes from
  /// next_span_id(); `parent_id` 0 marks a root.
  void record(TraceId trace_id, SpanId span_id, SpanId parent_id,
              const char* name, std::string detail, sim::TimePoint start,
              sim::TimePoint end, std::string error = {});

  /// Convenience for point instrumentation that never nests anything
  /// under the span (network transit): allocates the span id and parents
  /// to `parent`.
  void record_complete(const TraceContext& parent, const char* name,
                       std::string detail, sim::TimePoint start,
                       sim::TimePoint end, std::string error = {});

  const RecorderStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = RecorderStats{}; }

  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t span_count() const noexcept { return ring_.size(); }
  /// Retained spans, oldest first.
  std::vector<Span> spans() const;
  /// Drops retained spans (counters keep running).
  void clear();

  /// Duration sink invoked once per recorded span with the metric name
  /// ("span." + span name), the span's end time and its duration in
  /// milliseconds. core::attach_recorder() adapts this to the Monitor.
  using MetricsSink = std::function<void(const std::string& metric,
                                         sim::TimePoint at, double millis)>;
  void set_metrics_sink(MetricsSink sink) { metrics_sink_ = std::move(sink); }

  /// chrome://tracing / Perfetto loadable JSON ("X" complete events, one
  /// tid per trace). Deterministic: same spans, same bytes.
  void export_chrome_trace(std::ostream& os) const;

  /// Human-readable causal tree, one block per trace, children indented
  /// under their parents.
  void dump_tree(std::ostream& os) const;

 private:
  sim::EventLoop& loop_;
  std::size_t capacity_;
  std::vector<Span> ring_;   // ring once size() == capacity_
  std::size_t ring_head_ = 0;  // next slot to overwrite when full
  bool enabled_ = false;
  std::uint32_t shard_ = 0;
  std::uint32_t sample_every_ = 1;
  TraceId next_trace_id_ = 1;
  SpanId next_span_id_ = 1;
  RecorderStats stats_;
  MetricsSink metrics_sink_;
};

/// RAII span. Construction decides once whether this scope records; all
/// members stay empty otherwise.
class SpanScope {
 public:
  /// What the layers below see of the innermost recording scope.
  struct Active {
    TraceRecorder* recorder = nullptr;
    TraceContext ctx;  // trace id + *this scope's* span id + flags
  };

  /// Child scope of the active one; records nothing when no trace is in
  /// flight (one thread-local load + branch, no allocation).
  explicit SpanScope(const char* name, std::string_view detail = {});

  /// Root / re-attached scope: starts recording under `recorder` iff the
  /// recorder is enabled and `parent` is a valid sampled context. The new
  /// span's parent is parent.span_id (0 from make_trace() = trace root).
  SpanScope(TraceRecorder& recorder, const TraceContext& parent,
            const char* name, std::string_view detail = {});

  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  bool recording() const noexcept { return recording_; }

  /// Context to propagate downward (trace id + this span as parent).
  /// Meaningful only when recording().
  const TraceContext& context() const noexcept { return active_.ctx; }

  /// Innermost recording scope, nullptr when none.
  static const Active* active() noexcept;

 private:
  void open(TraceRecorder& recorder, TraceId trace_id, SpanId parent,
            std::uint8_t flags, const char* name, std::string_view detail);

  Active active_;
  SpanScope* prev_ = nullptr;       // enclosing scope (stack link)
  std::uint64_t prev_error_id_ = 0; // saved maqs::trace_detail slot
  SpanId parent_id_ = 0;
  const char* name_ = "";
  std::string detail_;
  std::string error_;
  sim::TimePoint start_ = 0;
  bool recording_ = false;

  friend void note_error(std::string_view what);
};

/// True while any recording scope is active (cheap thread-local check).
bool tracing_active() noexcept;

/// Context of the innermost recording scope; unsampled/invalid when none.
TraceContext current_context() noexcept;

/// Marks the innermost recording scope as failed. Catch sites call this
/// after unwinding destroyed the inner scopes, so the annotation lands on
/// the span that owns the failure handling (e.g. the server request span
/// that converts an exception into an error reply). No-op when no trace
/// is active; the last note before the scope closes wins.
void note_error(std::string_view what);

/// Records a zero-duration point span under the innermost recording scope
/// (no-op when no trace is in flight). Used for state-machine events that
/// have no extent of their own — retry backoffs, circuit-breaker
/// transitions, module quarantines — so resilience decisions are visible
/// inline in the causal tree. The detail string is only built by callers
/// after checking tracing_active(), preserving the zero-cost-when-off
/// discipline.
void point(const char* name, std::string detail);

namespace detail {
/// One chrome "X" event for `span` (no surrounding array punctuation).
/// Shared by TraceRecorder::export_chrome_trace and the multi-shard merge.
void write_chrome_event(std::ostream& os, const Span& span);
}  // namespace detail

/// The re-attach twin of point(): records a zero-duration span parented to
/// an explicit context (typically decoded off a request's "qos.trace" wire
/// entry) when the recorder is enabled and the context is sampled. Used
/// when the causal owner's scope is no longer on the stack — e.g. a
/// request scheduler shedding a parked request long after the arrival walk
/// unwound.
void point_under(TraceRecorder& recorder, const TraceContext& parent,
                 const char* name, std::string detail);

}  // namespace maqs::trace
