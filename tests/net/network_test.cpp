#include "net/network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "util/bytes.hpp"

namespace maqs::net {
namespace {

using util::Bytes;
using util::to_bytes;
using util::to_string;

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : net_(loop_) {
    net_.add_node("a");
    net_.add_node("b");
    net_.add_node("c");
  }

  sim::EventLoop loop_;
  Network net_;
};

TEST_F(NetworkTest, DeliversWithLinkLatency) {
  std::string got;
  sim::TimePoint at = -1;
  net_.bind({"b", 1}, [&](const Address& from, const Bytes& payload) {
    EXPECT_EQ(from, (Address{"a", 1}));
    got = to_string(payload);
    at = loop_.now();
  });
  net_.set_link("a", "b", LinkParams{.latency = 5 * sim::kMillisecond,
                                     .bandwidth_bps = 0});
  net_.send({"a", 1}, {"b", 1}, to_bytes("ping"));
  loop_.run_until_idle();
  EXPECT_EQ(got, "ping");
  EXPECT_EQ(at, 5 * sim::kMillisecond);
}

TEST_F(NetworkTest, BandwidthAddsSerializationDelay) {
  // 1000 bytes at 8000 bit/s = 1 s transmit, plus 1 ms default latency.
  net_.set_link("a", "b",
                LinkParams{.latency = sim::kMillisecond,
                           .bandwidth_bps = 8000.0});
  sim::TimePoint at = -1;
  net_.bind({"b", 1}, [&](const Address&, const Bytes&) { at = loop_.now(); });
  net_.send({"a", 1}, {"b", 1}, Bytes(1000, 0x55));
  loop_.run_until_idle();
  EXPECT_EQ(at, sim::kSecond + sim::kMillisecond);
}

TEST_F(NetworkTest, BackToBackMessagesQueueOnLink) {
  net_.set_link("a", "b",
                LinkParams{.latency = 0, .bandwidth_bps = 8000.0});
  std::vector<sim::TimePoint> arrivals;
  net_.bind({"b", 1}, [&](const Address&, const Bytes&) {
    arrivals.push_back(loop_.now());
  });
  // Two 1000-byte messages: second must wait for the first's transmission.
  net_.send({"a", 1}, {"b", 1}, Bytes(1000, 1));
  net_.send({"a", 1}, {"b", 1}, Bytes(1000, 2));
  loop_.run_until_idle();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], sim::kSecond);
  EXPECT_EQ(arrivals[1], 2 * sim::kSecond);
}

TEST_F(NetworkTest, ReverseDirectionDoesNotQueueBehindForward) {
  net_.set_link("a", "b",
                LinkParams{.latency = 0, .bandwidth_bps = 8000.0});
  net_.bind({"b", 1}, [](const Address&, const Bytes&) {});
  sim::TimePoint reverse_at = -1;
  net_.bind({"a", 1},
            [&](const Address&, const Bytes&) { reverse_at = loop_.now(); });
  net_.send({"a", 1}, {"b", 1}, Bytes(1000, 1));  // occupies a->b for 1 s
  net_.send({"b", 1}, {"a", 1}, Bytes(1000, 2));  // b->a is independent
  loop_.run_until_idle();
  EXPECT_EQ(reverse_at, sim::kSecond);
}

TEST_F(NetworkTest, LoopbackIsFast) {
  sim::TimePoint at = -1;
  net_.bind({"a", 2}, [&](const Address&, const Bytes&) { at = loop_.now(); });
  net_.send({"a", 1}, {"a", 2}, to_bytes("x"));
  loop_.run_until_idle();
  EXPECT_EQ(at, 10 * sim::kMicrosecond);
}

TEST_F(NetworkTest, UnboundDestinationCountsAsDropped) {
  net_.send({"a", 1}, {"b", 9}, to_bytes("x"));
  loop_.run_until_idle();
  EXPECT_EQ(net_.stats().messages_dropped, 1u);
  EXPECT_EQ(net_.stats().messages_delivered, 0u);
}

TEST_F(NetworkTest, SendToUnknownNodeThrows) {
  EXPECT_THROW(net_.send({"a", 1}, {"zz", 1}, to_bytes("x")),
               std::invalid_argument);
}

TEST_F(NetworkTest, DoubleBindThrows) {
  net_.bind({"a", 1}, [](const Address&, const Bytes&) {});
  EXPECT_THROW(net_.bind({"a", 1}, [](const Address&, const Bytes&) {}),
               std::invalid_argument);
}

TEST_F(NetworkTest, UnbindAllowsRebind) {
  net_.bind({"a", 1}, [](const Address&, const Bytes&) {});
  net_.unbind({"a", 1});
  EXPECT_FALSE(net_.is_bound({"a", 1}));
  net_.bind({"a", 1}, [](const Address&, const Bytes&) {});
  EXPECT_TRUE(net_.is_bound({"a", 1}));
}

TEST_F(NetworkTest, LossAddsRetransmissionDelayButDelivers) {
  net_.set_link("a", "b",
                LinkParams{.latency = sim::kMillisecond,
                           .bandwidth_bps = 0,
                           .loss_rate = 0.5});
  int delivered = 0;
  net_.bind({"b", 1},
            [&](const Address&, const Bytes&) { ++delivered; });
  for (int i = 0; i < 200; ++i) {
    net_.send({"a", 1}, {"b", 1}, to_bytes("m"));
  }
  loop_.run_until_idle();
  // Reliable transport: everything arrives (loss only costs time) except
  // pathological 16-in-a-row loss streaks, which are vanishingly rare.
  EXPECT_GE(delivered, 199);
  EXPECT_GT(net_.stats().retransmissions, 50u);
}

TEST_F(NetworkTest, JitterVariesDelivery) {
  net_.set_link("a", "b",
                LinkParams{.latency = sim::kMillisecond,
                           .bandwidth_bps = 0,
                           .jitter = sim::kMillisecond});
  std::vector<sim::TimePoint> arrivals;
  net_.bind({"b", 1}, [&](const Address&, const Bytes&) {
    arrivals.push_back(loop_.now());
  });
  sim::TimePoint send_at = 0;
  for (int i = 0; i < 50; ++i) {
    loop_.schedule_at(send_at, [&] {
      net_.send({"a", 1}, {"b", 1}, to_bytes("m"));
    });
    send_at += 10 * sim::kMillisecond;
  }
  loop_.run_until_idle();
  ASSERT_EQ(arrivals.size(), 50u);
  bool varied = false;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const sim::Duration delay =
        arrivals[i] - static_cast<sim::TimePoint>(i) * 10 * sim::kMillisecond;
    EXPECT_GE(delay, sim::kMillisecond);
    EXPECT_LE(delay, 2 * sim::kMillisecond);
    if (delay != sim::kMillisecond) varied = true;
  }
  EXPECT_TRUE(varied);
}

TEST_F(NetworkTest, StatsCountBytes) {
  net_.bind({"b", 1}, [](const Address&, const Bytes&) {});
  net_.send({"a", 1}, {"b", 1}, Bytes(100, 0));
  net_.send({"a", 1}, {"b", 1}, Bytes(50, 0));
  loop_.run_until_idle();
  EXPECT_EQ(net_.stats().messages_sent, 2u);
  EXPECT_EQ(net_.stats().bytes_sent, 150u);
  EXPECT_EQ(net_.stats().bytes_delivered, 150u);
  EXPECT_EQ(net_.bytes_between("a", "b"), 150u);
  EXPECT_EQ(net_.bytes_between("b", "a"), 0u);
}

TEST_F(NetworkTest, ResetStatsClearsCounters) {
  net_.bind({"b", 1}, [](const Address&, const Bytes&) {});
  net_.send({"a", 1}, {"b", 1}, Bytes(100, 0));
  loop_.run_until_idle();
  net_.reset_stats();
  EXPECT_EQ(net_.stats().messages_sent, 0u);
  EXPECT_EQ(net_.bytes_between("a", "b"), 0u);
}

TEST_F(NetworkTest, MulticastReachesAllMembersExceptSender) {
  net_.create_group("grp");
  int a_got = 0, b_got = 0, c_got = 0;
  net_.bind({"a", 1}, [&](const Address&, const Bytes&) { ++a_got; });
  net_.bind({"b", 1}, [&](const Address&, const Bytes&) { ++b_got; });
  net_.bind({"c", 1}, [&](const Address&, const Bytes&) { ++c_got; });
  net_.join_group("grp", {"a", 1});
  net_.join_group("grp", {"b", 1});
  net_.join_group("grp", {"c", 1});
  net_.multicast({"a", 1}, "grp", to_bytes("hello"));
  loop_.run_until_idle();
  EXPECT_EQ(a_got, 0);
  EXPECT_EQ(b_got, 1);
  EXPECT_EQ(c_got, 1);
}

TEST_F(NetworkTest, MulticastJoinIsIdempotent) {
  net_.create_group("grp");
  net_.join_group("grp", {"b", 1});
  net_.join_group("grp", {"b", 1});
  EXPECT_EQ(net_.group_members("grp").size(), 1u);
}

TEST_F(NetworkTest, LeaveGroupStopsDelivery) {
  net_.create_group("grp");
  int b_got = 0;
  net_.bind({"b", 1}, [&](const Address&, const Bytes&) { ++b_got; });
  net_.join_group("grp", {"b", 1});
  net_.leave_group("grp", {"b", 1});
  net_.multicast({"a", 1}, "grp", to_bytes("x"));
  loop_.run_until_idle();
  EXPECT_EQ(b_got, 0);
}

TEST_F(NetworkTest, MulticastToUnknownGroupIsNoop) {
  net_.multicast({"a", 1}, "nope", to_bytes("x"));
  loop_.run_until_idle();
  EXPECT_EQ(net_.stats().messages_sent, 0u);
}

// ---- the delivery contract: the destination's handler, the nodes' fault
// state and the link queues are judged per message and per directed pair.

TEST_F(NetworkTest, InFlightMessageReachesAHandlerReboundBeforeDelivery) {
  std::vector<std::string> got;
  net_.bind({"b", 1}, [&](const Address&, const Bytes& payload) {
    got.push_back("old:" + to_string(payload));
  });
  net_.send({"a", 1}, {"b", 1}, to_bytes("m"));
  net_.unbind({"b", 1});
  net_.bind({"b", 1}, [&](const Address& from, const Bytes& payload) {
    EXPECT_EQ(from, (Address{"a", 1}));
    got.push_back("new:" + to_string(payload));
  });
  loop_.run_until_idle();
  EXPECT_EQ(got, std::vector<std::string>{"new:m"});
  EXPECT_EQ(net_.stats().messages_delivered, 1u);
}

TEST_F(NetworkTest, HandlerMayUnbindItselfWhileRunning) {
  // The capture lives on the heap with the handler: reading it after the
  // unbind touches freed memory unless the network keeps the running
  // handler alive (the ASan job checks).
  const std::string tag(64, 't');
  std::string seen;
  net_.bind({"b", 1}, [this, &seen, tag](const Address&, const Bytes& payload) {
    net_.unbind({"b", 1});
    seen = tag + to_string(payload);
  });
  net_.send({"a", 1}, {"b", 1}, to_bytes("1"));
  net_.send({"a", 1}, {"b", 1}, to_bytes("2"));
  loop_.run_until_idle();
  EXPECT_EQ(seen, tag + "1");
  EXPECT_FALSE(net_.is_bound({"b", 1}));
  EXPECT_EQ(net_.stats().messages_delivered, 1u);
  EXPECT_EQ(net_.stats().messages_dropped, 1u);
}

TEST_F(NetworkTest, HandlerMayRebindAnotherEndpointWhileThatOneRuns) {
  // a's handler pumps the loop (as a blocking ORB call does); b's handler,
  // nested inside it, unbinds and rebinds a. The outer handler then reads
  // its own heap-held capture, and the next message to a reaches the new
  // handler.
  const std::string tag(64, 'a');
  std::vector<std::string> log;
  bool rebound = false;
  net_.bind({"b", 1}, [&](const Address&, const Bytes&) {
    net_.unbind({"a", 1});
    net_.bind({"a", 1}, [&](const Address&, const Bytes& payload) {
      log.push_back("a2:" + to_string(payload));
    });
    rebound = true;
  });
  net_.bind({"a", 1}, [&, tag](const Address&, const Bytes& payload) {
    net_.send({"a", 1}, {"b", 1}, to_bytes("poke"));
    loop_.run_until([&] { return rebound; });
    log.push_back(tag + ":" + to_string(payload));
  });
  net_.send({"c", 1}, {"a", 1}, to_bytes("first"));
  loop_.run_until_idle();
  net_.send({"c", 1}, {"a", 1}, to_bytes("second"));
  loop_.run_until_idle();
  EXPECT_EQ(log, (std::vector<std::string>{tag + ":first", "a2:second"}));
}

TEST_F(NetworkTest, RelayCycleKeepsPerPairQueueingAndBytes) {
  // web (a) -> edge (b) -> server (c) -> edge -> web, two requests sent back
  // to back: each of the four directed pairs has its own serialization
  // queue and byte counter.
  constexpr double kWebEdgeBps = 8000.0;     // 1000 B/s
  constexpr double kEdgeServerBps = 16000.0;  // 2000 B/s
  constexpr sim::Duration kWebEdgeLatency = sim::kMillisecond;
  constexpr sim::Duration kEdgeServerLatency = 2 * sim::kMillisecond;
  net_.set_link("a", "b", LinkParams{.latency = kWebEdgeLatency,
                                     .bandwidth_bps = kWebEdgeBps});
  net_.set_link("b", "c", LinkParams{.latency = kEdgeServerLatency,
                                     .bandwidth_bps = kEdgeServerBps});
  auto transmit = [](std::size_t bytes, double bps) {
    return sim::from_seconds(static_cast<double>(bytes) * 8.0 / bps);
  };

  std::vector<sim::TimePoint> at_edge_from_web, at_server, at_edge_from_server,
      at_web;
  net_.bind({"b", 1}, [&](const Address& from, const Bytes&) {
    if (from.node == "a") {
      at_edge_from_web.push_back(loop_.now());
      net_.send({"b", 1}, {"c", 1}, Bytes(200, 2));
    } else {
      at_edge_from_server.push_back(loop_.now());
      net_.send({"b", 1}, {"a", 1}, Bytes(400, 4));
    }
  });
  net_.bind({"c", 1}, [&](const Address&, const Bytes&) {
    at_server.push_back(loop_.now());
    net_.send({"c", 1}, {"b", 1}, Bytes(300, 3));
  });
  net_.bind({"a", 1}, [&](const Address&, const Bytes&) {
    at_web.push_back(loop_.now());
  });
  net_.send({"a", 1}, {"b", 1}, Bytes(100, 1));
  net_.send({"a", 1}, {"b", 1}, Bytes(100, 1));
  loop_.run_until_idle();

  // Each leg: the message starts when its pair's link is free, then
  // serializes and propagates.
  struct Leg {
    sim::TimePoint free = 0;
    sim::TimePoint arrive(sim::TimePoint sent, sim::Duration tx,
                          sim::Duration latency) {
      const sim::TimePoint start = std::max(sent, free);
      free = start + tx;
      return free + latency;
    }
  } web_edge, edge_server, server_edge, edge_web;
  std::vector<sim::TimePoint> want_edge_from_web, want_server,
      want_edge_from_server, want_web;
  for (int i = 0; i < 2; ++i) {
    want_edge_from_web.push_back(web_edge.arrive(
        0, transmit(100, kWebEdgeBps), kWebEdgeLatency));
  }
  for (const sim::TimePoint t : want_edge_from_web) {
    want_server.push_back(edge_server.arrive(
        t, transmit(200, kEdgeServerBps), kEdgeServerLatency));
  }
  for (const sim::TimePoint t : want_server) {
    want_edge_from_server.push_back(server_edge.arrive(
        t, transmit(300, kEdgeServerBps), kEdgeServerLatency));
  }
  for (const sim::TimePoint t : want_edge_from_server) {
    want_web.push_back(
        edge_web.arrive(t, transmit(400, kWebEdgeBps), kWebEdgeLatency));
  }
  EXPECT_EQ(at_edge_from_web, want_edge_from_web);
  EXPECT_EQ(at_server, want_server);
  EXPECT_EQ(at_edge_from_server, want_edge_from_server);
  EXPECT_EQ(at_web, want_web);
  // The second reply queued behind the first on both return pairs.
  EXPECT_GT(want_edge_from_server[1] - want_server[1],
            transmit(300, kEdgeServerBps) + kEdgeServerLatency);
  EXPECT_GT(want_web[1] - want_edge_from_server[1],
            transmit(400, kWebEdgeBps) + kWebEdgeLatency);

  EXPECT_EQ(net_.bytes_between("a", "b"), 200u);
  EXPECT_EQ(net_.bytes_between("b", "c"), 400u);
  EXPECT_EQ(net_.bytes_between("c", "b"), 600u);
  EXPECT_EQ(net_.bytes_between("b", "a"), 800u);
  EXPECT_EQ(net_.bytes_between("a", "c"), 0u);
  EXPECT_EQ(net_.bytes_between("c", "a"), 0u);
}

TEST_F(NetworkTest, ResetStatsBetweenSendsZeroesBytesBetween) {
  net_.bind({"a", 1}, [](const Address&, const Bytes&) {});
  net_.bind({"b", 1}, [](const Address&, const Bytes&) {});
  net_.send({"a", 1}, {"b", 1}, Bytes(100, 0));
  net_.send({"b", 1}, {"a", 1}, Bytes(70, 0));
  loop_.run_until_idle();
  net_.reset_stats();
  EXPECT_EQ(net_.bytes_between("a", "b"), 0u);
  EXPECT_EQ(net_.bytes_between("b", "a"), 0u);
  net_.send({"a", 1}, {"b", 1}, Bytes(30, 0));
  loop_.run_until_idle();
  EXPECT_EQ(net_.bytes_between("a", "b"), 30u);
  EXPECT_EQ(net_.bytes_between("b", "a"), 0u);
  EXPECT_EQ(net_.stats().bytes_sent, 30u);
}

}  // namespace
}  // namespace maqs::net
