// Discrete-event network simulator.
//
// This is the substitute for the real IP network under the authors' ORB
// (DESIGN.md §2): hosts, point-to-point links with latency / bandwidth /
// jitter / loss, IP-multicast-style groups, and fault injection (crashes,
// restarts, partitions). The transport models a reliable, in-order message
// service (loss shows up as retransmission delay, as TCP would exhibit),
// because CORBA GIOP assumes a reliable transport underneath.
//
// Determinism: all randomness (jitter, loss) comes from one seeded RNG; the
// same seed and workload reproduce identical timelines.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/address.hpp"
#include "sim/event_loop.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace maqs::net {

/// Characteristics of a directed link between two hosts.
struct LinkParams {
  /// One-way propagation delay.
  sim::Duration latency = sim::kMillisecond;
  /// Serialization bandwidth in bits per second; <= 0 means infinite.
  double bandwidth_bps = 1e9;
  /// Probability that a transmission attempt is lost (and retransmitted).
  double loss_rate = 0.0;
  /// Extra uniform random delay in [0, jitter] per delivery.
  sim::Duration jitter = 0;
};

/// Aggregate traffic counters.
struct NetStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t messages_dropped = 0;  // dead/partitioned target, retry cap
  std::uint64_t retransmissions = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_delivered = 0;
};

class Network {
 private:
  struct Node;

 public:
  class Endpoint;
  using Handler =
      std::function<void(const Endpoint& from, const util::Bytes& payload)>;

  /// One (node, port) endpoint: its address, its node and its receive
  /// handler. Made at bind() or at the first send from or to the address
  /// and never freed, so a reference stays valid for the network's
  /// lifetime: a message in flight carries two of them, and a caller that
  /// keeps one sends without looking its address up again.
  class Endpoint {
   public:
    /// Made only by the network (Node is private to it).
    Endpoint(Address address, Node& node)
        : address_(std::move(address)), node_(&node) {}
    Endpoint(const Endpoint&) = delete;
    Endpoint& operator=(const Endpoint&) = delete;

    const Address& address() const noexcept { return address_; }
    /// Lets handlers written against `const Address&` take the record.
    operator const Address&() const noexcept { return address_; }

   private:
    friend class Network;
    Address address_;
    Node* node_;
    std::unique_ptr<Handler> handler_;  // null while unbound
  };

  explicit Network(sim::EventLoop& loop, std::uint64_t seed = 42);
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  sim::EventLoop& loop() noexcept { return loop_; }

  // ---- topology ----

  /// Registers a host. Idempotent.
  void add_node(const NodeId& node);
  bool has_node(const NodeId& node) const;
  bool is_alive(const NodeId& node) const;

  /// Default parameters for links with no explicit setting.
  void set_default_link(const LinkParams& params) { default_link_ = params; }
  const LinkParams& default_link() const noexcept { return default_link_; }

  /// Sets parameters for both directions between a and b.
  void set_link(const NodeId& a, const NodeId& b, const LinkParams& params);
  LinkParams link(const NodeId& from, const NodeId& to) const;

  /// Delay and bandwidth applied to same-host (loopback) traffic.
  void set_loopback_latency(sim::Duration d) { loopback_latency_ = d; }

  // ---- fault injection ----

  /// Marks a host dead: its handlers stop firing, in-flight messages to it
  /// are dropped at delivery time, and sends from it are discarded.
  void crash(const NodeId& node);

  /// Revives a crashed host with a new incarnation; messages sent to the
  /// previous incarnation never arrive (connections were severed).
  void restart(const NodeId& node);

  /// Assigns the node to a partition group; traffic between different
  /// groups is dropped at delivery time. Default group is 0.
  void set_partition(const NodeId& node, int group);

  /// Puts every node back into partition group 0.
  void heal_partitions();

  // ---- endpoints ----

  /// Binds a receive handler and returns the address's record; throws
  /// std::invalid_argument if the node is unknown or the address is
  /// already bound. A handler may unbind or rebind any address, its own
  /// included, while it runs.
  const Endpoint& bind(const Address& addr, Handler handler);
  void unbind(const Address& addr);
  bool is_bound(const Address& addr) const;

  /// The record of `addr`, made on first use; throws std::invalid_argument
  /// if the node is unknown.
  const Endpoint& endpoint(const Address& addr) { return record(addr); }

  /// Sends one message. Delivery is scheduled on the event loop according
  /// to the link model; undeliverable messages are silently dropped (the
  /// RPC layer above implements timeouts). The destination's handler is
  /// found when the message arrives, so a rebind in between receives it.
  void send(const Endpoint& from, const Endpoint& to, util::Bytes payload);
  void send(const Address& from, const Address& to, util::Bytes payload);

  // ---- multicast ----

  /// Creates a multicast group (idempotent); returns its name.
  void create_group(const std::string& group);
  void join_group(const std::string& group, const Address& member);
  void leave_group(const std::string& group, const Address& member);
  std::vector<Address> group_members(const std::string& group) const;

  /// Sends the payload to every group member (excluding `from` itself),
  /// with per-member independent link timing.
  void multicast(const Address& from, const std::string& group,
                 util::Bytes payload);

  // ---- accounting ----

  const NetStats& stats() const noexcept { return stats_; }
  void reset_stats();

  /// Total payload bytes sent from node a to node b since last reset.
  std::uint64_t bytes_between(const NodeId& a, const NodeId& b) const;

 private:
  /// State of one directed node pair.
  struct Pair {
    std::optional<LinkParams> link;  // set_link(); default_link_ otherwise
    // Earliest time the link is free (bandwidth serialization).
    sim::TimePoint busy_until = 0;
    std::uint64_t bytes = 0;
  };

  struct Node {
    explicit Node(std::size_t dense_index) : index(dense_index) {}

    /// Dense, in add_node() order: the column of this node in every
    /// node's `out`.
    std::size_t index;
    bool alive = true;
    std::uint64_t incarnation = 0;
    int partition = 0;
    /// Pairs from this node, by destination index; grown on first use.
    std::vector<Pair> out;
  };

  /// One in-flight message. Parked in a pooled slot so the event-loop
  /// closure captures only {network, slot index} and stays within
  /// std::function's small-buffer optimization — no heap allocation per
  /// send.
  struct InFlight {
    const Endpoint* from = nullptr;
    const Endpoint* to = nullptr;
    std::uint64_t dest_incarnation = 0;
    util::Bytes payload;
  };

  Node& node_state(const NodeId& node);
  const Node* find_node(const NodeId& node) const;
  Endpoint& record(const Address& addr);
  static Pair& pair_of(Node& from, const Node& to);
  void deliver_slot(std::size_t slot);
  void deliver(const Endpoint& from, const Endpoint& to,
               std::uint64_t dest_incarnation, util::Bytes payload);

  sim::EventLoop& loop_;
  util::Rng rng_;
  LinkParams default_link_;
  sim::Duration loopback_latency_ = 10 * sim::kMicrosecond;
  std::unordered_map<NodeId, Node> nodes_;  // node-based: references stay
  std::unordered_map<Address, Endpoint> endpoints_;  // likewise
  std::map<std::string, std::vector<Address>> groups_;
  std::vector<InFlight> in_flight_;     // slot-indexed; recycled via free list
  std::vector<std::size_t> free_slots_;
  // Deliveries running now (they nest: a handler may pump the loop), and
  // the handlers unbound meanwhile, kept alive until the outermost one
  // returns, since any of them may be running further up the stack.
  int delivering_ = 0;
  std::vector<std::unique_ptr<Handler>> retired_;
  NetStats stats_;
};

using Endpoint = Network::Endpoint;

}  // namespace maqs::net
