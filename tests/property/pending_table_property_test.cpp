// Property tests for the ORB's pending-reply table.
//
//  P1  differential: random add/find/erase scripts (each erase a
//      swap-and-pop) with up to thousands of entries in flight and ids
//      reused after erase leave PendingTable holding exactly what a
//      std::unordered_map reference holds.
//  P2  through the ORB: thousands of requests in flight against a peer
//      that answers late, early or never, some cancelled, each get exactly
//      the one callback the timing dictates — in particular a timeout that
//      fires for an entry a swap-and-pop moved reaches its own callback.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/network.hpp"
#include "orb/message.hpp"
#include "orb/orb.hpp"
#include "orb/pending_table.hpp"
#include "util/rng.hpp"

namespace maqs::orb {
namespace {

struct Entry {
  std::uint64_t id = 0;
  std::uint64_t value = 0;
};

class PendingTableP : public ::testing::TestWithParam<std::uint64_t> {};

using Reference = std::unordered_map<std::uint64_t, std::uint64_t>;

void expect_matches(PendingTable<Entry>& table, const Reference& ref) {
  ASSERT_EQ(table.size(), ref.size());
  for (const auto& [id, value] : ref) {
    const Entry* entry = table.find(id);
    ASSERT_NE(entry, nullptr) << id;
    EXPECT_EQ(entry->id, id);
    EXPECT_EQ(entry->value, value) << id;
  }
  for (const Entry& entry : table.entries()) {
    ASSERT_TRUE(ref.contains(entry.id)) << entry.id;
  }
}

TEST_P(PendingTableP, MatchesAReferenceMap) {
  util::Rng rng(GetParam());
  PendingTable<Entry> table;
  Reference ref;
  std::vector<std::uint64_t> live;   // ids in the reference
  std::vector<std::uint64_t> freed;  // erased ids, candidates for reuse
  std::uint64_t next_id = 1 + rng.next_below(1000);
  std::size_t peak = 0;
  for (int phase = 0; phase < 6; ++phase) {
    // Alternate filling towards a random in-flight ceiling and draining.
    const std::size_t ceiling = 1 + rng.next_below(phase % 2 == 0 ? 5000 : 64);
    for (int step = 0; step < 6000; ++step) {
      const std::uint64_t op = rng.next_below(10);
      if (op < 5 && live.size() < ceiling) {
        std::uint64_t id;
        if (!freed.empty() && rng.chance(0.3)) {
          const std::size_t pick = rng.next_below(freed.size());
          id = freed[pick];
          freed[pick] = freed.back();
          freed.pop_back();
        } else {
          // Mostly sequential ids, as an ORB mints them, with jumps.
          id = next_id;
          next_id += rng.chance(0.1) ? 1 + rng.next_below(1u << 20) : 1;
        }
        const std::uint64_t value = rng.next();
        Entry& added = table.add({id, value});
        EXPECT_EQ(added.id, id);
        ref.emplace(id, value);
        live.push_back(id);
        peak = std::max(peak, live.size());
      } else if (op < 8 && !live.empty()) {
        const std::size_t pick = rng.next_below(live.size());
        const std::uint64_t id = live[pick];
        live[pick] = live.back();
        live.pop_back();
        Entry* entry = table.find(id);
        ASSERT_NE(entry, nullptr) << id;
        ASSERT_EQ(entry->value, ref.at(id));
        table.erase(entry);  // the last entry moves into its slot
        ref.erase(id);
        freed.push_back(id);
        EXPECT_EQ(table.find(id), nullptr) << id;
      } else {
        const bool hit = !live.empty() && rng.chance(0.5);
        const std::uint64_t id =
            hit ? live[rng.next_below(live.size())]
                : (rng.chance(0.5) && !freed.empty()
                       ? freed[rng.next_below(freed.size())]
                       : next_id + rng.next_below(1000));
        const Entry* entry = table.find(id);
        const auto want = ref.find(id);
        if (want == ref.end()) {
          EXPECT_EQ(entry, nullptr) << id;
        } else {
          ASSERT_NE(entry, nullptr) << id;
          EXPECT_EQ(entry->value, want->second);
        }
      }
      if (step % 1000 == 0) expect_matches(table, ref);
    }
    expect_matches(table, ref);
  }
  EXPECT_GE(peak, 1000u);
  // Drain completely: every remaining id still resolves as it is erased.
  while (!live.empty()) {
    Entry* entry = table.find(live.back());
    ASSERT_NE(entry, nullptr);
    table.erase(entry);
    live.pop_back();
  }
  EXPECT_EQ(table.size(), 0u);
}

/// One request of a script: when the peer answers it (if ever), when the
/// client cancels it (if ever), and what the client's callback saw.
struct ScriptedRequest {
  std::uint64_t id = 0;
  sim::TimePoint sent = 0;
  sim::Duration timeout = 0;
  std::optional<sim::Duration> answer_after;  // nullopt: never answered
  std::optional<sim::TimePoint> cancel_at;
  int callbacks = 0;
  ReplyStatus status = ReplyStatus::kOk;
  bool timed_out = false;
  sim::TimePoint called_at = -1;
};

constexpr sim::Duration kLatency = sim::kMillisecond;

/// A client ORB and, on the raw network, a peer that answers each request
/// after the delay its script names, or never.
class OrbPendingTest : public ::testing::Test {
 protected:
  OrbPendingTest() : net_(loop_), client_(net_, "client", 1) {
    net_.add_node("server");
    // Infinite bandwidth, no jitter: every message takes exactly kLatency,
    // so each request's outcome follows from the script alone.
    net_.set_default_link(
        net::LinkParams{.latency = kLatency, .bandwidth_bps = 0});
    net_.bind({"server", 1}, [this](const net::Address& from,
                                    const util::Bytes& payload) {
      const RequestMessage req = RequestMessage::decode(payload);
      const ScriptedRequest& want = requests_.at(req.request_id - 1);
      if (!want.answer_after.has_value()) return;
      const net::Address to = from;
      loop_.schedule(*want.answer_after, [this, to, id = req.request_id] {
        ReplyMessage rep;
        rep.request_id = id;
        rep.status = ReplyStatus::kOk;
        net_.send({"server", 1}, to, rep.encode());
      });
    });
  }

  /// Sends request `index` (ids are index + 1) at the current time.
  void send(std::size_t index) {
    ScriptedRequest& r = requests_[index];
    r.sent = loop_.now();
    RequestMessage req;
    req.request_id = r.id;
    req.object_key = "k";
    req.operation = "op";
    client_.send_request(
        {"server", 1}, std::move(req),
        [this, index](ReplyMessage rep) {
          ScriptedRequest& got = requests_[index];
          ++got.callbacks;
          EXPECT_EQ(rep.request_id, got.id);
          got.status = rep.status;
          got.timed_out = rep.synthesized_locally;
          got.called_at = loop_.now();
        },
        r.timeout);
    if (r.cancel_at.has_value()) {
      loop_.schedule_at(*r.cancel_at,
                        [this, id = r.id] { client_.cancel_request(id); });
    }
  }

  /// Checks every request against the outcome its timing dictates; returns
  /// how many replies should have arrived with no pending entry.
  std::uint64_t check_outcomes() {
    std::uint64_t orphans = 0;
    std::uint64_t timeouts = 0;
    for (const ScriptedRequest& r : requests_) {
      const sim::TimePoint deadline = r.sent + r.timeout;
      std::optional<sim::TimePoint> reply_at;
      if (r.answer_after.has_value()) {
        reply_at = r.sent + 2 * kLatency + *r.answer_after;
      }
      sim::TimePoint done = deadline;
      if (reply_at.has_value() && *reply_at < deadline) done = *reply_at;
      if (r.cancel_at.has_value() && *r.cancel_at < done) {
        EXPECT_EQ(r.callbacks, 0) << r.id;
        if (reply_at.has_value()) ++orphans;
        continue;
      }
      EXPECT_EQ(r.callbacks, 1) << r.id;
      EXPECT_EQ(r.called_at, done) << r.id;
      if (done == deadline) {
        ++timeouts;
        EXPECT_TRUE(r.timed_out) << r.id;
        EXPECT_EQ(r.status, ReplyStatus::kSystemException) << r.id;
        if (reply_at.has_value()) ++orphans;
      } else {
        EXPECT_FALSE(r.timed_out) << r.id;
        EXPECT_EQ(r.status, ReplyStatus::kOk) << r.id;
      }
    }
    EXPECT_EQ(client_.stats().timeouts, timeouts);
    return orphans;
  }

  sim::EventLoop loop_;
  net::Network net_;
  Orb client_;
  std::vector<ScriptedRequest> requests_;
};

class OrbPendingP : public OrbPendingTest,
                    public ::testing::WithParamInterface<std::uint64_t> {};

TEST_F(OrbPendingTest, TimeoutOfAMovedEntryReachesItsOwnCallback) {
  // Three requests in flight occupy slots 0..2. The first is answered, so
  // the third moves into slot 0; then the second and the moved third time
  // out, each into its own callback.
  const sim::Duration half_ms = sim::kMillisecond / 2;
  requests_.resize(3);
  for (std::size_t i = 0; i < 3; ++i) {
    requests_[i].id = i + 1;
    requests_[i].timeout = (10 + 10 * static_cast<int>(i)) * sim::kMillisecond;
  }
  requests_[0].answer_after = half_ms;
  send(0);
  send(1);
  send(2);
  loop_.run_until_idle();
  EXPECT_EQ(check_outcomes(), 0u);
  EXPECT_EQ(client_.stats().replies_orphaned, 0u);
  EXPECT_EQ(requests_[2].called_at, 30 * sim::kMillisecond);
}

TEST_P(OrbPendingP, ThousandsInFlightEachGetTheirOutcome) {
  util::Rng rng(GetParam());
  constexpr std::size_t kRequests = 6000;
  requests_.resize(kRequests);
  const sim::Duration half_ms = sim::kMillisecond / 2;
  for (std::size_t i = 0; i < kRequests; ++i) {
    ScriptedRequest& r = requests_[i];
    r.id = i + 1;
    // Whole milliseconds for timeouts, half-odd ones for answers: a reply
    // never lands on its own deadline.
    r.timeout = static_cast<sim::Duration>(20 + rng.next_below(400)) *
                sim::kMillisecond;
    if (rng.chance(0.8)) {
      r.answer_after = static_cast<sim::Duration>(rng.next_below(500)) *
                           sim::kMillisecond +
                       half_ms;
    }
  }
  // Issue over 100 ms of virtual time in random bursts, so thousands are
  // outstanding at the peak; cancel some before they could complete.
  sim::TimePoint at = 0;
  for (std::size_t i = 0; i < kRequests; ++i) {
    if (rng.chance(0.05)) {
      at += static_cast<sim::Duration>(rng.next_below(2)) * sim::kMillisecond;
    }
    if (rng.chance(0.05)) {
      requests_[i].cancel_at =
          at + static_cast<sim::Duration>(rng.next_below(300)) *
                   sim::kMillisecond +
               sim::kMillisecond / 4;
    }
    loop_.schedule_at(at, [this, i] { send(i); });
  }
  loop_.run_until_idle();
  const std::uint64_t orphans = check_outcomes();
  EXPECT_EQ(client_.stats().replies_orphaned, orphans);
  // The callbacks' times bound each request's stay in the table: check the
  // script really held thousands at once.
  std::vector<std::pair<sim::TimePoint, int>> edges;
  for (const ScriptedRequest& r : requests_) {
    if (r.callbacks == 0) continue;
    edges.emplace_back(r.sent, 1);
    edges.emplace_back(r.called_at, -1);
  }
  std::sort(edges.begin(), edges.end());
  int in_flight = 0;
  int peak = 0;
  for (const auto& [_, delta] : edges) {
    in_flight += delta;
    peak = std::max(peak, in_flight);
  }
  EXPECT_GE(peak, 2000);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PendingTableP,
                         ::testing::Values(1u, 42u, 1337u, 9001u));
INSTANTIATE_TEST_SUITE_P(Seeds, OrbPendingP,
                         ::testing::Values(7u, 42u, 2024u));

}  // namespace
}  // namespace maqs::orb
