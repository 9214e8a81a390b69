// perfbench: wall-clock benchmark of the MAQS request paths, end to end
// and split per layer.
//
//   perfbench --workload <plain|woven|gateway|renegotiated> --seed <n>
//             --seconds <s> --trace <0|1>
//
// --trace 0 measures the end-to-end metrics with no probe installed;
// --trace 1 installs the layer probes (probes.hpp) and reports where the
// time and the allocations of a call go. The last line of stdout is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <sched.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "probes.hpp"
#include "util/buffer_pool.hpp"
#include "workloads.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using perfbench::Workload;

/// Untimed calls before measuring, so pools and lazy state are filled.
constexpr double kWarmupSeconds = 0.25;
/// A run is cut into windows of this length, with a calibration before
/// each.
constexpr double kWindowSeconds = 0.01;
/// Set-up samples are taken in bursts of kSetupBurst before every
/// kSetupEvery-th window.
constexpr std::size_t kSetupEvery = 10;
constexpr int kSetupBurst = 3;
/// Untimed calls after anything that chilled the measured deployment's
/// caches: a set-up burst, or a move to another CPU.
constexpr double kRewarmSeconds = 0.001;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Host contention. On a shared host a CPU slows down by 1.5-1.8x for tens
// of milliseconds to tens of seconds at a time, when other tenants
// compete for its physical core (observed on the 4-vCPU 2.1 GHz Xeon VM
// this was tuned on). The CPUs are hit at different times: most of the
// time at least one of them is quiet. Before each window the benchmark
// times a fixed throughput-bound integer kernel, the calibration, and:
//
//  - when the CPU it runs on reads contended, it calibrates every CPU it
//    may use and moves to the quietest (then re-warms before timing);
//  - it reports only quiet windows: those whose calibrations before and
//    after, on the CPU the window ran on, are within kQuietMargin of the
//    run's quiet level. A window is judged by the calibration, never by
//    how fast the program ran in it, so every call, stall and slow path
//    of a quiet window counts;
//  - it scales every time measured in a window by nominal / observed
//    calibration time, into units of a quiet core of the reference
//    machine. In a quiet window that is a correction of a few percent.
//    A run with no quiet phase on any CPU keeps the windows near its
//    fastest calibrations, and the scale then corrects to within about
//    15% either way: it over-corrects woven, whose XTEA kernel suffers
//    less from a competing thread than the integer kernel, and
//    under-corrects gateway.
//
// On the CPU the program just ran on, the kernel runs after
// kIdleGapSeconds of scalar spinning, so that what the program did to the
// core in the previous window (the AVX-512 XTEA kernel lowers the clock
// for about 2 ms) has worn off: the calibration sees other tenants, not
// the program itself.

/// Rounds of the calibration kernel.
constexpr std::uint64_t kCalibrationRounds = 1 << 17;
/// Its time on a quiet core of the reference machine.
constexpr double kCalibrationNominalS = 3.9e-4;
/// Scalar spinning before calibrating the CPU the program ran on.
constexpr double kIdleGapSeconds = 0.002;
/// A window is quiet when the calibrations around it took at most
/// kQuietMargin times the run's quiet level: the kQuietReference quantile
/// over the windows, which unlike the minimum does not hang on one
/// outlier, and is the quiet level whenever that share of the run was
/// quiet.
constexpr double kQuietMargin = 1.05;
constexpr double kQuietReference = 0.05;
/// The benchmark looks for a quieter CPU when its calibration exceeds the
/// fastest one seen by kContendedMargin, and moves when another CPU's is
/// faster than its own by kMoveMargin.
constexpr double kContendedMargin = 1.15;
constexpr double kMoveMargin = 1.1;

volatile std::uint64_t g_calibration_sink = 0;

/// Times the calibration kernel: four independent xorshift chains, bound
/// by the core's issue throughput, which is what a competing hardware
/// thread takes away. The empty asm keeps the chains in scalar registers,
/// so the compiler cannot vectorize the kernel into a different one.
double calibrate() {
  std::uint64_t a = 1, b = 2, c = 3, d = 4;
  const Clock::time_point start = Clock::now();
  for (std::uint64_t i = 0; i < kCalibrationRounds; ++i) {
    a ^= a << 13;
    b ^= b << 13;
    c ^= c << 13;
    d ^= d << 13;
    a ^= a >> 7;
    b ^= b >> 7;
    c ^= c >> 7;
    d ^= d >> 7;
    a ^= a << 17;
    b ^= b << 17;
    c ^= c << 17;
    d ^= d << 17;
    asm volatile("" : "+r"(a), "+r"(b), "+r"(c), "+r"(d));
  }
  const double elapsed = seconds_between(start, Clock::now());
  g_calibration_sink = a ^ b ^ c ^ d;
  return elapsed;
}

bool pin_to(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0;
}

/// Keeps the benchmark thread on a quiet CPU.
class Placement {
 public:
  /// Calibrations around a window boundary.
  struct Reading {
    /// On the CPU the previous window ran on.
    double before_s;
    /// On the CPU the next window runs on.
    double after_s;
    bool moved;
  };

  /// Starts on the quietest CPU this process may use.
  Placement() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &set)) cpus_.push_back(cpu);
      }
    }
    if (cpus_.size() > 1) move_to_quietest(-1, 0);
  }

  /// Calibrates here after an idle gap and, when that reads contended,
  /// moves to a clearly quieter CPU if there is one. The other CPUs need
  /// no gap: the program has not just run on them.
  Reading settle() {
    const Clock::time_point idle = Clock::now();
    while (seconds_between(idle, Clock::now()) < kIdleGapSeconds) {
    }
    const double here = calibrate();
    fastest_ = std::min(fastest_, here);
    if (cpus_.size() < 2 || here <= kContendedMargin * fastest_) {
      return {here, here, false};
    }
    const int from = current_;
    const double after = move_to_quietest(current_, here);
    return {here, after, current_ != from};
  }

 private:
  /// Calibrates every other CPU and pins to the fastest unless it beats
  /// `here_s` (the calibration on `here`) by less than kMoveMargin.
  /// Returns the calibration on the CPU it stays on.
  double move_to_quietest(int here, double here_s) {
    int best = here;
    double best_s = here_s;
    for (int cpu : cpus_) {
      if (cpu == here || !pin_to(cpu)) continue;
      const double s = calibrate();
      fastest_ = std::min(fastest_, s);
      if (best < 0 || s * kMoveMargin < best_s) {
        best = cpu;
        best_s = s;
      }
    }
    if (best >= 0 && pin_to(best)) current_ = best;
    return best_s;
  }

  std::vector<int> cpus_;
  int current_ = -1;
  double fastest_ = 1e9;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
};

std::optional<Options> parse_options(int argc, char** argv) {
  Options options;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have[0] = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      have[1] = end != value && *end == '\0';
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, &end);
      have[2] = end != value && *end == '\0' && options.seconds > 0;
    } else if (flag == "--trace") {
      const std::string_view v = value;
      options.trace = v == "1";
      have[3] = v == "0" || v == "1";
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || !(have[0] && have[1] && have[2] && have[3])) {
    return std::nullopt;
  }
  return options;
}

/// Nearest-rank percentile (0 <= q <= 1); reorders `values`.
template <typename T>
double percentile(std::vector<T>& values, double q) {
  auto rank = static_cast<std::size_t>(q * static_cast<double>(values.size()));
  rank = std::min(rank, values.size() - 1);
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(rank),
                   values.end());
  return static_cast<double>(values[rank]);
}

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool reported = false;

  void record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  void report(const char* what) {
    if (reported) return;
    reported = true;
    std::fprintf(stderr, "perfbench: call failed: %s\n", what);
  }
};

/// One call; false when it threw. The result is checked separately so
/// that checking stays outside the timed interval.
bool issue(Workload& workload, Tally& tally) {
  try {
    workload.call();
    return true;
  } catch (const std::exception& e) {
    tally.report(e.what());
  } catch (...) {
    tally.report("non-standard exception");
  }
  return false;
}

void check(Workload& workload, bool issued, Tally& tally) {
  const bool ok = issued && workload.check();
  if (issued && !ok) tally.report("wrong result");
  tally.record(ok);
}

void warm_up(Workload& workload, Tally& tally) {
  const Clock::time_point start = Clock::now();
  do {
    check(workload, issue(workload, tally), tally);
  } while (seconds_between(start, Clock::now()) < kWarmupSeconds);
}

/// Which windows are quiet, judged by the slower of the calibrations
/// around each. At least kQuietReference of the windows are.
template <typename Window>
std::vector<bool> quiet(const std::vector<Window>& windows) {
  std::vector<double> around;
  for (const Window& w : windows) {
    around.push_back(std::max(w.before_s, w.after_s));
  }
  std::vector<double> sorted = around;
  const double limit = kQuietMargin * percentile(sorted, kQuietReference);
  std::vector<bool> out;
  for (double c : around) out.push_back(c <= limit);
  return out;
}

void rewarm(Workload& workload, Tally& tally) {
  const Clock::time_point start = Clock::now();
  do {
    check(workload, issue(workload, tally), tally);
  } while (seconds_between(start, Clock::now()) < kRewarmSeconds);
}

std::size_t window_count(double seconds) {
  return std::max<std::size_t>(1, static_cast<std::size_t>(seconds /
                                                           kWindowSeconds));
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct LatencyWindow {
  /// Calibrations on the window's CPU, before and after it.
  double before_s = 0;
  double after_s = 0;
  /// Its calls are latencies_us[begin, end).
  std::size_t begin = 0;
  std::size_t end = 0;
  double busy_s = 0;
  std::vector<double> setup_s;
};

/// End to end, no probes, over every call of the quiet windows. Set-up
/// samples come from a second instance of the workload, spread over the
/// run; a sample counts when the window after it is quiet.
std::vector<Metric> measure_end_to_end(Workload& workload, Workload& spare,
                                       Placement& placement, double seconds,
                                       Tally& tally) {
  std::vector<LatencyWindow> windows(window_count(seconds));
  std::vector<float> latencies_us;
  for (std::size_t w = 0; w < windows.size(); ++w) {
    LatencyWindow& window = windows[w];
    std::vector<double> setups;
    if (w % kSetupEvery == 0) {
      for (int b = 0; b < kSetupBurst; ++b) {
        spare.teardown();
        const Clock::time_point s0 = Clock::now();
        spare.deploy();
        const bool first = issue(spare, tally);
        setups.push_back(seconds_between(s0, Clock::now()));
        check(spare, first, tally);
      }
    }
    const Placement::Reading reading = placement.settle();
    if (w > 0) windows[w - 1].after_s = reading.before_s;
    window.before_s = reading.after_s;
    for (double setup : setups) {
      window.setup_s.push_back(setup * kCalibrationNominalS /
                               reading.before_s);
    }
    // The spare deployment churned the caches and the heap under the
    // measured one, or the thread moved: re-warm before timing.
    if (!setups.empty() || reading.moved) rewarm(workload, tally);

    const double scale = kCalibrationNominalS / window.before_s;
    window.begin = latencies_us.size();
    const Clock::time_point start = Clock::now();
    Clock::time_point now = start;
    do {
      const Clock::time_point t0 = Clock::now();
      const bool issued = issue(workload, tally);
      const Clock::time_point t1 = Clock::now();
      latencies_us.push_back(static_cast<float>(
          std::chrono::duration<double, std::micro>(t1 - t0).count() *
          scale));
      check(workload, issued, tally);
      now = Clock::now();
    } while (seconds_between(start, now) < kWindowSeconds);
    window.end = latencies_us.size();
    window.busy_s = seconds_between(start, now) * scale;
  }
  windows.back().after_s = placement.settle().before_s;

  // Keep the quiet windows' calls, moved to the front in order.
  const std::vector<bool> keep = quiet(windows);
  const auto at = [&](std::size_t i) {
    return latencies_us.begin() + static_cast<std::ptrdiff_t>(i);
  };
  std::size_t kept = 0;
  double busy_s = 0;
  std::vector<double> setup_s;
  for (std::size_t w = 0; w < windows.size(); ++w) {
    if (!keep[w]) continue;
    const LatencyWindow& window = windows[w];
    kept = static_cast<std::size_t>(
        std::copy(at(window.begin), at(window.end), at(kept)) - at(0));
    busy_s += window.busy_s;
    setup_s.insert(setup_s.end(), window.setup_s.begin(),
                   window.setup_s.end());
  }
  latencies_us.resize(kept);
  if (setup_s.empty()) {  // no quiet window had a set-up burst before it
    for (const LatencyWindow& window : windows) {
      setup_s.insert(setup_s.end(), window.setup_s.begin(),
                     window.setup_s.end());
    }
  }
  return {
      {"p50_us", percentile(latencies_us, 0.50), "us"},
      {"p75_us", percentile(latencies_us, 0.75), "us"},
      {"calls_per_s", static_cast<double>(kept) / busy_s, "1/s"},
      {"setup_s", percentile(setup_s, 0.50), "s"},
  };
}

struct LayerWindow {
  double before_s = 0;
  double after_s = 0;
  double calls = 0;
  std::array<double, perfbench::kLayerCount> ns{};  // scaled
  std::array<double, perfbench::kLayerCount> allocs{};
  double wire_bytes = 0;
  double pool_hits = 0;
  double pool_lookups = 0;
};

/// Probe-traced: every call's time and allocations split per layer, over
/// the quiet windows, times scaled like the end-to-end figures.
std::vector<Metric> measure_layers(Workload& workload, Placement& placement,
                                   double seconds, Tally& tally) {
  perfbench::Ledger& ledger = perfbench::ledger();
  maqs::util::BufferPool& pool = maqs::util::BufferPool::instance();
  std::vector<LayerWindow> windows(window_count(seconds));
  for (std::size_t w = 0; w < windows.size(); ++w) {
    LayerWindow& window = windows[w];
    const Placement::Reading reading = placement.settle();
    if (w > 0) windows[w - 1].after_s = reading.before_s;
    window.before_s = reading.after_s;
    if (reading.moved) rewarm(workload, tally);

    const double scale = kCalibrationNominalS / window.before_s;
    std::array<std::uint64_t, perfbench::kLayerCount> ns0{};
    std::array<std::uint64_t, perfbench::kLayerCount> allocs0{};
    for (int l = 0; l < perfbench::kLayerCount; ++l) {
      ns0[l] = ledger.ns(l);
      allocs0[l] = ledger.allocs(l);
    }
    const std::uint64_t wire0 = workload.wire_bytes();
    const std::uint64_t hits0 = pool.hits();
    const std::uint64_t lookups0 = pool.hits() + pool.misses();

    const Clock::time_point start = Clock::now();
    do {
      ledger.begin();
      const bool issued = issue(workload, tally);
      const bool balanced = ledger.end();
      if (!balanced) tally.report("probe pushes and pops did not pair up");
      check(workload, issued && balanced, tally);
      ++window.calls;
    } while (seconds_between(start, Clock::now()) < kWindowSeconds);

    for (int l = 0; l < perfbench::kLayerCount; ++l) {
      window.ns[l] = static_cast<double>(ledger.ns(l) - ns0[l]) * scale;
      window.allocs[l] = static_cast<double>(ledger.allocs(l) - allocs0[l]);
    }
    window.wire_bytes = static_cast<double>(workload.wire_bytes() - wire0);
    window.pool_hits = static_cast<double>(pool.hits() - hits0);
    window.pool_lookups =
        static_cast<double>(pool.hits() + pool.misses() - lookups0);
  }
  windows.back().after_s = placement.settle().before_s;

  const std::vector<bool> keep = quiet(windows);
  LayerWindow sum;
  for (std::size_t w = 0; w < windows.size(); ++w) {
    if (!keep[w]) continue;
    const LayerWindow& window = windows[w];
    sum.calls += window.calls;
    for (int l = 0; l < perfbench::kLayerCount; ++l) {
      sum.ns[l] += window.ns[l];
      sum.allocs[l] += window.allocs[l];
    }
    sum.wire_bytes += window.wire_bytes;
    sum.pool_hits += window.pool_hits;
    sum.pool_lookups += window.pool_lookups;
  }
  std::vector<Metric> out;
  double total_ns = 0;
  for (int l = 0; l < perfbench::kLayerCount; ++l) {
    total_ns += sum.ns[l];
    out.push_back({std::string(perfbench::layer_name(l)) + "_ns",
                   sum.ns[l] / sum.calls, "ns"});
  }
  for (int l = 0; l < perfbench::kLayerCount; ++l) {
    out.push_back({std::string(perfbench::layer_name(l)) + "_allocs",
                   sum.allocs[l] / sum.calls, "allocs/call"});
  }
  out.push_back({"call_ns", total_ns / sum.calls, "ns"});
  out.push_back({"wire_bytes", sum.wire_bytes / sum.calls, "B/call"});
  out.push_back({"pool_hit_pct",
                 sum.pool_lookups == 0
                     ? 100.0
                     : 100.0 * sum.pool_hits / sum.pool_lookups,
                 "%"});
  return out;
}

void print_result(const Tally& tally, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += tally.failed == 0 && tally.attempted > 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(tally.attempted);
  out += ", \"failed\": " + std::to_string(tally.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.12g", metrics[i].value);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Options> options = parse_options(argc, argv);
  if (!options.has_value()) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\n");
    return 2;
  }
  const std::unique_ptr<Workload> workload =
      perfbench::make_workload(options->workload, options->seed);
  if (!workload) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 options->workload.c_str());
    return 2;
  }

  Tally tally;
  std::vector<Metric> metrics;
  try {
    workload->deploy();
    if (options->trace) {
      perfbench::ProbeSet probes(workload->client_orb(),
                                 workload->server_orb());
      Placement placement;
      warm_up(*workload, tally);
      metrics = measure_layers(*workload, placement, options->seconds, tally);
    } else {
      const std::unique_ptr<Workload> spare =
          perfbench::make_workload(options->workload, options->seed);
      Placement placement;
      warm_up(*workload, tally);
      metrics = measure_end_to_end(*workload, *spare, placement,
                                   options->seconds, tally);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: set-up failed: %s\n", e.what());
    return 1;
  }
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-18s %14.3f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  print_result(tally, metrics);
  return 0;
}
