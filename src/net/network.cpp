#include "net/network.hpp"

#include <stdexcept>
#include <utility>

#include "trace/trace.hpp"
#include "util/buffer_pool.hpp"
#include "util/log.hpp"

namespace maqs::net {

namespace {
constexpr int kMaxRetransmissions = 16;

/// Transit span detail: "src>dst <bytes>B [queue=<ns>ns] [retx=<n>]".
/// Built only when a trace is in flight; all values are virtual-time
/// deterministic.
std::string transit_detail(const Address& from, const Address& to,
                           std::size_t bytes, sim::Duration queue_wait,
                           int retransmits) {
  std::string detail = from.node + ">" + to.node;
  detail += " " + std::to_string(bytes) + "B";
  if (queue_wait > 0) {
    detail += " queue=" + std::to_string(queue_wait) + "ns";
  }
  if (retransmits > 0) detail += " retx=" + std::to_string(retransmits);
  return detail;
}
}  // namespace

Network::Network(sim::EventLoop& loop, std::uint64_t seed)
    : loop_(loop), rng_(seed) {}

void Network::add_node(const NodeId& node) {
  nodes_.try_emplace(node, nodes_.size());
}

bool Network::has_node(const NodeId& node) const {
  return nodes_.contains(node);
}

bool Network::is_alive(const NodeId& node) const {
  const Node* state = find_node(node);
  return state != nullptr && state->alive;
}

const Network::Node* Network::find_node(const NodeId& node) const {
  auto it = nodes_.find(node);
  return it != nodes_.end() ? &it->second : nullptr;
}

Network::Node& Network::node_state(const NodeId& node) {
  auto it = nodes_.find(node);
  if (it == nodes_.end()) {
    throw std::invalid_argument("network: unknown node '" + node + "'");
  }
  return it->second;
}

Network::Pair& Network::pair_of(Node& from, const Node& to) {
  if (to.index >= from.out.size()) from.out.resize(to.index + 1);
  return from.out[to.index];
}

void Network::set_link(const NodeId& a, const NodeId& b,
                       const LinkParams& params) {
  Node& node_a = node_state(a);
  Node& node_b = node_state(b);
  pair_of(node_a, node_b).link = params;
  pair_of(node_b, node_a).link = params;
}

LinkParams Network::link(const NodeId& from, const NodeId& to) const {
  const Node* src = find_node(from);
  const Node* dst = find_node(to);
  if (src == nullptr || dst == nullptr || dst->index >= src->out.size()) {
    return default_link_;
  }
  const std::optional<LinkParams>& params = src->out[dst->index].link;
  return params.has_value() ? *params : default_link_;
}

void Network::crash(const NodeId& node) { node_state(node).alive = false; }

void Network::restart(const NodeId& node) {
  Node& state = node_state(node);
  state.alive = true;
  ++state.incarnation;
}

void Network::set_partition(const NodeId& node, int group) {
  node_state(node).partition = group;
}

void Network::heal_partitions() {
  for (auto& [_, state] : nodes_) state.partition = 0;
}

Endpoint& Network::record(const Address& addr) {
  auto it = endpoints_.find(addr);
  if (it != endpoints_.end()) return it->second;
  Node& node = node_state(addr.node);
  return endpoints_.try_emplace(addr, addr, node).first->second;
}

const Endpoint& Network::bind(const Address& addr, Handler handler) {
  node_state(addr.node);
  if (!handler) {
    throw std::invalid_argument("network: null handler for " +
                                addr.to_string());
  }
  Endpoint& bound = record(addr);
  if (bound.handler_ != nullptr) {
    throw std::invalid_argument("network: address already bound: " +
                                addr.to_string());
  }
  bound.handler_ = std::make_unique<Handler>(std::move(handler));
  return bound;
}

void Network::unbind(const Address& addr) {
  auto it = endpoints_.find(addr);
  if (it == endpoints_.end() || it->second.handler_ == nullptr) return;
  if (delivering_ > 0) {
    retired_.push_back(std::move(it->second.handler_));
  } else {
    it->second.handler_.reset();
  }
}

bool Network::is_bound(const Address& addr) const {
  auto it = endpoints_.find(addr);
  return it != endpoints_.end() && it->second.handler_ != nullptr;
}

void Network::send(const Address& from, const Address& to,
                   util::Bytes payload) {
  const Endpoint& src = record(from);
  send(src, record(to), std::move(payload));
}

void Network::send(const Endpoint& from, const Endpoint& to,
                   util::Bytes payload) {
  Node& src = *from.node_;
  const Node& dst = *to.node_;
  Pair& path = pair_of(src, dst);

  ++stats_.messages_sent;
  stats_.bytes_sent += payload.size();
  path.bytes += payload.size();

  const trace::SpanScope::Active* act = trace::SpanScope::active();

  if (!src.alive) {
    ++stats_.messages_dropped;
    if (act != nullptr) {
      act->recorder->record_complete(
          act->ctx, "net.transit",
          transit_detail(from.address(), to.address(), payload.size(), 0, 0),
          loop_.now(), loop_.now(), "dropped: source down");
    }
    util::BufferPool::instance().release(std::move(payload));
    return;
  }

  sim::Duration delay;
  sim::Duration queue_wait = 0;
  int retransmits = 0;
  if (&src == &dst) {  // loopback
    delay = loopback_latency_;
  } else {
    const LinkParams& lp = path.link.has_value() ? *path.link : default_link_;
    sim::Duration transmit = 0;
    if (lp.bandwidth_bps > 0) {
      const double bits = static_cast<double>(payload.size()) * 8.0;
      transmit = sim::from_seconds(bits / lp.bandwidth_bps);
      // Bandwidth serialization: back-to-back messages queue behind each
      // other on the directed link.
      const sim::TimePoint start = std::max(loop_.now(), path.busy_until);
      path.busy_until = start + transmit;
      queue_wait = start - loop_.now();
      delay = queue_wait + transmit + lp.latency;
    } else {
      // Infinite bandwidth: transmission is instant and the link never
      // serializes, so skip the busy-until bookkeeping entirely.
      delay = lp.latency;
    }
    if (lp.jitter > 0) {
      delay += static_cast<sim::Duration>(
          rng_.next_below(static_cast<std::uint64_t>(lp.jitter) + 1));
    }
    // Reliable transport over a lossy link: each lost attempt costs one
    // retransmission timeout (2x latency + transmit), as a TCP-like
    // transport would exhibit. After kMaxRetransmissions the "connection"
    // is declared broken and the message is dropped.
    while (lp.loss_rate > 0.0 && rng_.chance(lp.loss_rate)) {
      if (++retransmits > kMaxRetransmissions) {
        ++stats_.messages_dropped;
        if (act != nullptr) {
          act->recorder->record_complete(
              act->ctx, "net.transit",
              transit_detail(from.address(), to.address(), payload.size(),
                             queue_wait, retransmits - 1),
              loop_.now(), loop_.now() + delay,
              "dropped: retransmission cap");
        }
        util::BufferPool::instance().release(std::move(payload));
        return;
      }
      ++stats_.retransmissions;
      delay += 2 * lp.latency + transmit;
    }
  }

  // Transit span of the trace active at send time, closed at the computed
  // delivery instant: queueing and retransmission delay are visible as
  // span length (plus the detail breakdown) without waiting for delivery.
  if (act != nullptr) {
    act->recorder->record_complete(
        act->ctx, "net.transit",
        transit_detail(from.address(), to.address(), payload.size(),
                       queue_wait, retransmits),
        loop_.now(), loop_.now() + delay);
  }

  std::size_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = in_flight_.size();
    in_flight_.emplace_back();
  }
  InFlight& msg = in_flight_[slot];
  msg.from = &from;
  msg.to = &to;
  msg.dest_incarnation = dst.incarnation;  // incarnation as of send time
  msg.payload = std::move(payload);
  loop_.schedule(delay, [this, slot] { deliver_slot(slot); });
}

void Network::deliver_slot(std::size_t slot) {
  // Take everything and release the slot BEFORE running the handler:
  // nested sends re-enter the pool and may grow in_flight_, invalidating
  // any reference into it.
  InFlight& msg = in_flight_[slot];
  const Endpoint& from = *msg.from;
  const Endpoint& to = *msg.to;
  const std::uint64_t dest_incarnation = msg.dest_incarnation;
  util::Bytes payload = std::move(msg.payload);
  free_slots_.push_back(slot);
  deliver(from, to, dest_incarnation, std::move(payload));
}

void Network::deliver(const Endpoint& from, const Endpoint& to,
                      std::uint64_t dest_incarnation, util::Bytes payload) {
  // The nodes and the handler are read at delivery time: crashes,
  // restarts, partitions and (un)binds that happened while the message
  // was in flight are observed here. The frame's storage ends its life
  // here on every path — recycle it (encode() on either side drew it from
  // the same pool).
  const Node& src = *from.node_;
  const Node& dst = *to.node_;
  Handler* handler = to.handler_.get();
  if (!dst.alive || dst.incarnation != dest_incarnation ||
      src.partition != dst.partition || handler == nullptr) {
    ++stats_.messages_dropped;
    util::BufferPool::instance().release(std::move(payload));
    return;
  }
  ++stats_.messages_delivered;
  stats_.bytes_delivered += payload.size();
  {
    // An unbind while the handler runs retires it instead of destroying
    // it; the outermost delivery frees the retired ones.
    struct Running {
      Network& net;
      explicit Running(Network& n) : net(n) { ++net.delivering_; }
      ~Running() {
        if (--net.delivering_ == 0) net.retired_.clear();
      }
    } running(*this);
    (*handler)(from, payload);
  }
  util::BufferPool::instance().release(std::move(payload));
}

void Network::create_group(const std::string& group) {
  groups_.try_emplace(group);
}

void Network::join_group(const std::string& group, const Address& member) {
  auto& members = groups_[group];
  for (const Address& m : members) {
    if (m == member) return;
  }
  members.push_back(member);
}

void Network::leave_group(const std::string& group, const Address& member) {
  auto it = groups_.find(group);
  if (it == groups_.end()) return;
  std::erase(it->second, member);
}

std::vector<Address> Network::group_members(const std::string& group) const {
  auto it = groups_.find(group);
  return it != groups_.end() ? it->second : std::vector<Address>{};
}

void Network::multicast(const Address& from, const std::string& group,
                        util::Bytes payload) {
  auto it = groups_.find(group);
  if (it == groups_.end()) return;
  // Snapshot membership: handlers triggered by earlier copies must not
  // affect who receives this datagram.
  const std::vector<Address> members = it->second;
  const Address* last = nullptr;
  for (const Address& member : members) {
    if (!(member == from)) last = &member;
  }
  for (const Address& member : members) {
    if (member == from) continue;
    if (&member == last) {
      send(from, member, std::move(payload));  // last copy moves, not clones
    } else {
      send(from, member, payload);
    }
  }
}

void Network::reset_stats() {
  stats_ = NetStats{};
  for (auto& [_, node] : nodes_) {
    for (Pair& path : node.out) path.bytes = 0;
  }
}

std::uint64_t Network::bytes_between(const NodeId& a, const NodeId& b) const {
  const Node* src = find_node(a);
  const Node* dst = find_node(b);
  if (src == nullptr || dst == nullptr || dst->index >= src->out.size()) {
    return 0;
  }
  return src->out[dst->index].bytes;
}

}  // namespace maqs::net
