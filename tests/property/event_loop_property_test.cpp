// Differential property test for sim::EventLoop. Seeded random scripts run
// once against the loop and once against a reference model — a plain
// vector of events, the earliest (when, seq) found by linear scan — and
// the two traces must agree entry for entry: which event ran and at what
// virtual time, now() after every run, every cancel() result, every
// run_until() result and pending() after every operation.
//
// Script ops: schedule with delay 0, a negative delay, a small delay, the
// time of a pending event, or a far-future time; schedule_at in the past;
// cancel of a live, an already-cancelled or an unknown id; run_for windows;
// run_until predicates; and handlers that schedule, cancel and pump a
// nested run_until. Scripts never cancel an event that already ran or is
// running (tests/sim pins that contract on its own), and re-cancel an
// event only before the loop has run anything or finished a pump since
// its cancel.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "sim/event_loop.hpp"
#include "util/rng.hpp"

namespace maqs::sim {
namespace {

constexpr int kScripts = 200;
constexpr int kOpsPerScript = 120;
constexpr int kMaxEventsPerScript = 300;
constexpr int kMaxNesting = 3;
constexpr Duration kFarFuture = 1'000'000'000;
constexpr EventId kUnknownId = (EventId{1} << 63) | 0xFFFF'FFFFu;

/// The reference: every event ever scheduled stays in one vector, and the
/// next to run is the pending one with the smallest (when, seq).
class ReferenceLoop {
 public:
  using Handler = std::function<void()>;

  TimePoint now() const { return now_; }

  EventId schedule(Duration delay, Handler fn) {
    if (delay < 0) delay = 0;
    return schedule_at(now_ + delay, std::move(fn));
  }

  EventId schedule_at(TimePoint when, Handler fn) {
    if (when < now_) when = now_;
    events_.push_back(Event{when, std::move(fn), true});
    return events_.size();  // index + 1, so 0 stays invalid
  }

  bool cancel(EventId id) {
    if (id == 0 || id > events_.size() || !events_[id - 1].pending) {
      return false;
    }
    events_[id - 1].pending = false;
    events_[id - 1].fn = nullptr;
    return true;
  }

  std::size_t pending() const {
    std::size_t count = 0;
    for (const Event& event : events_) count += event.pending ? 1 : 0;
    return count;
  }

  std::size_t run_until_idle() {
    std::size_t executed = 0;
    while (run_next(INT64_MAX)) ++executed;
    return executed;
  }

  bool run_until(const std::function<bool()>& pred) {
    while (!pred()) {
      if (!run_next(INT64_MAX)) return pred();
    }
    return true;
  }

  void run_for(Duration duration) {
    const TimePoint deadline = now_ + duration;
    while (run_next(deadline)) {
    }
    now_ = deadline;
  }

 private:
  struct Event {
    TimePoint when;
    Handler fn;
    bool pending;
  };

  /// Runs the earliest pending event due by `deadline`. Vector order is
  /// schedule order, so the first of equal times wins: FIFO.
  bool run_next(TimePoint deadline) {
    std::size_t next = events_.size();
    for (std::size_t i = 0; i < events_.size(); ++i) {
      if (events_[i].pending &&
          (next == events_.size() || events_[i].when < events_[next].when)) {
        next = i;
      }
    }
    if (next == events_.size() || events_[next].when > deadline) return false;
    events_[next].pending = false;
    now_ = events_[next].when;
    const Handler fn = std::move(events_[next].fn);
    fn();
    return true;
  }

  TimePoint now_ = 0;
  std::vector<Event> events_;
};

/// How often a script hit each op kind, so a generator that drifts away
/// from an op cannot pass silently.
struct Coverage {
  int live_cancels = 0;
  int repeat_cancels = 0;
  int unknown_cancels = 0;
  int equal_times = 0;
  int past_schedules = 0;
  int run_fors = 0;
  int nested_pumps = 0;
};

/// Drives one loop through a script drawn from `seed`. Both loops see the
/// same draws for as long as their traces agree.
template <typename Loop>
class Script {
 public:
  Script(std::uint64_t seed, Coverage& coverage)
      : rng_(seed), coverage_(coverage) {}

  std::vector<std::string> run() {
    for (int op = 0; op < kOpsPerScript; ++op) {
      switch (rng_.next_below(10)) {
        case 0:
        case 1:
        case 2:
        case 3:
          schedule_random();
          break;
        case 4:
        case 5:
          cancel_random();
          break;
        case 6:
        case 7:
          run_for_random();
          break;
        default:
          run_until_random();
          break;
      }
      note_clock();
    }
    note("idle ran " + std::to_string(loop_.run_until_idle()));
    note_clock();
    return trace_;
  }

 private:
  using Handler = std::function<void()>;
  enum class State { kLive, kRan, kCancelled };

  void note(std::string entry) { trace_.push_back(std::move(entry)); }

  void note_clock() {
    note("now " + std::to_string(loop_.now()) + " pending " +
         std::to_string(loop_.pending()));
  }

  /// A random label still pending, or -1.
  int pick_live() {
    std::vector<int> live;
    for (int label = 0; label < static_cast<int>(states_.size()); ++label) {
      if (states_[label] == State::kLive) live.push_back(label);
    }
    if (live.empty()) return -1;
    return live[rng_.next_below(live.size())];
  }

  void on_run(int label) {
    states_[label] = State::kRan;
    fresh_cancels_.clear();
    ++executed_;
    note("run " + std::to_string(label) + " at " +
         std::to_string(loop_.now()));
    const std::uint64_t actions = rng_.next_below(3);
    for (std::uint64_t i = 0; i < actions; ++i) {
      switch (rng_.next_below(4)) {
        case 0:
        case 1:
          schedule_random();
          break;
        case 2:
          cancel_random();
          break;
        default:
          if (depth_ < kMaxNesting) {
            ++depth_;
            ++coverage_.nested_pumps;
            run_until_random();
            --depth_;
          }
          break;
      }
    }
  }

  void schedule_random() {
    const std::uint64_t kind = rng_.next_below(6);
    const std::int64_t amount = static_cast<std::int64_t>(rng_.next_below(40));
    const int twin = kind == 3 ? pick_live() : -1;
    if (static_cast<int>(states_.size()) >= kMaxEventsPerScript) return;
    const int label = static_cast<int>(states_.size());
    Handler fn = [this, label] { on_run(label); };
    EventId id = 0;
    TimePoint when = 0;
    switch (kind) {
      case 0:
        id = loop_.schedule(0, std::move(fn));
        when = loop_.now();
        break;
      case 1:
        id = loop_.schedule(-1 - amount, std::move(fn));
        when = loop_.now();
        break;
      case 2:
        id = loop_.schedule(1 + amount, std::move(fn));
        when = loop_.now() + 1 + amount;
        break;
      case 3:
        // Same time as a pending event: FIFO must hold across the pair.
        when = twin >= 0 ? whens_[twin] : loop_.now() + amount;
        id = loop_.schedule_at(when, std::move(fn));
        coverage_.equal_times += twin >= 0 ? 1 : 0;
        break;
      case 4:
        id = loop_.schedule(kFarFuture + amount, std::move(fn));
        when = loop_.now() + kFarFuture + amount;
        break;
      default:
        id = loop_.schedule_at(loop_.now() - 1 - amount, std::move(fn));
        when = loop_.now();
        ++coverage_.past_schedules;
        break;
    }
    ids_.push_back(id);
    whens_.push_back(when);
    states_.push_back(State::kLive);
    note("schedule " + std::to_string(label) + " pending " +
         std::to_string(loop_.pending()));
  }

  void cancel_random() {
    const std::uint64_t kind = rng_.next_below(4);
    std::string what;
    EventId id = 0;
    int label = -1;
    if (kind <= 1) {
      label = pick_live();
    } else if (kind == 2 && !fresh_cancels_.empty()) {
      label = fresh_cancels_[rng_.next_below(fresh_cancels_.size())];
    }
    if (label >= 0) {
      id = ids_[label];
      what = std::to_string(label);
      if (states_[label] == State::kLive) {
        ++coverage_.live_cancels;
      } else {
        ++coverage_.repeat_cancels;
      }
    } else {
      id = rng_.next_below(2) == 0 ? 0 : kUnknownId;
      what = id == 0 ? "id 0" : "unknown id";
      ++coverage_.unknown_cancels;
    }
    const bool cancelled = loop_.cancel(id);
    if (cancelled && label >= 0) {
      states_[label] = State::kCancelled;
      fresh_cancels_.push_back(label);
    }
    note("cancel " + what + (cancelled ? " -> true" : " -> false") +
         " pending " + std::to_string(loop_.pending()));
  }

  void run_for_random() {
    static constexpr Duration kWindows[] = {0, 1, 7, 25, 200, 2 * kFarFuture};
    const Duration window = kWindows[rng_.next_below(std::size(kWindows))];
    ++coverage_.run_fors;
    loop_.run_for(window);
    fresh_cancels_.clear();
    note("run_for " + std::to_string(window) + " -> now " +
         std::to_string(loop_.now()));
  }

  void run_until_random() {
    std::function<bool()> pred;
    const int target = rng_.next_below(2) == 0 ? pick_live() : -1;
    if (target >= 0) {
      pred = [this, target] { return states_[target] != State::kLive; };
    } else {
      const int goal = executed_ + 1 + static_cast<int>(rng_.next_below(5));
      pred = [this, goal] { return executed_ >= goal; };
    }
    const bool satisfied = loop_.run_until(pred);
    fresh_cancels_.clear();
    note(std::string("run_until -> ") + (satisfied ? "true" : "false") +
         " now " + std::to_string(loop_.now()));
  }

  Loop loop_;
  util::Rng rng_;
  Coverage& coverage_;
  std::vector<EventId> ids_;  // by label, in schedule order
  std::vector<TimePoint> whens_;
  std::vector<State> states_;
  // Cancelled since the loop last ran an event or finished a pump.
  std::vector<int> fresh_cancels_;
  std::vector<std::string> trace_;
  int executed_ = 0;
  int depth_ = 0;
};

TEST(EventLoopPropertyTest, MatchesReferenceModelOnRandomScripts) {
  util::Rng meta(0x10095EED);
  Coverage coverage;
  Coverage model_coverage;
  for (int round = 0; round < kScripts; ++round) {
    const std::uint64_t seed = meta.next();
    const std::vector<std::string> expected =
        Script<ReferenceLoop>(seed, model_coverage).run();
    const std::vector<std::string> actual =
        Script<EventLoop>(seed, coverage).run();
    for (std::size_t i = 0; i < std::min(expected.size(), actual.size());
         ++i) {
      ASSERT_EQ(actual[i], expected[i])
          << "round " << round << " seed " << seed << " trace entry " << i;
    }
    ASSERT_EQ(actual.size(), expected.size())
        << "round " << round << " seed " << seed;
  }
  EXPECT_GT(coverage.live_cancels, 0);
  EXPECT_GT(coverage.repeat_cancels, 0);
  EXPECT_GT(coverage.unknown_cancels, 0);
  EXPECT_GT(coverage.equal_times, 0);
  EXPECT_GT(coverage.past_schedules, 0);
  EXPECT_GT(coverage.run_fors, 0);
  EXPECT_GT(coverage.nested_pumps, 0);
}

}  // namespace
}  // namespace maqs::sim
