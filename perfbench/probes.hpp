// Probe-traced layer split: a wall-clock ledger that charges every
// nanosecond and heap allocation of a call to exactly one layer.
//
// The probes are interceptors the benchmark registers between the ORB's
// built-in chain stages (orb/interceptor.hpp), so the program itself is
// not instrumented. Each probe pushes its layer on the way down and pops
// back on the way up; time between two ledger transitions goes to the
// layer that was current. The layers therefore add up to the traced call
// exactly.
//
//   layer        entered at                 covers
//   front        call start (no probe)      stub marshal + reply decode, or
//                                           the HTTP client and the whole
//                                           gateway front-end outside the
//                                           edge ORB's chain
//   mediator     client probe @ 1           trace.client 100, mediator 200
//                                           (woven transforms), replica 250
//   route        client probe @ 260         qos.route 300, the QoS
//                                           transport's module routing,
//                                           local_fault 350
//   resilience   client probe @ 350, after  retry 400, trace.attempt 450,
//                local_fault                breaker 500 (invoke_plain
//                                           enters here)
//   wire         client probe @ 1000        GIOP encode/decode, the
//                                           simulated network and event
//                                           loop, server trace.server 100
//                                           and wire.reply 150
//   sched        server probe @ 160         WFQ classify/admit (sched 175)
//   qos_server   server probe @ 190         qos.server 200: commands and
//                                           router inbound/outbound
//   skeleton     server probe @ 1000        adapter dispatch, QoS skeleton
//                                           prolog/transform/epilog, servant
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>

#include "orb/interceptor.hpp"

namespace maqs::orb {
class Orb;
}

namespace perfbench {

enum Layer : int {
  kFront,
  kMediator,
  kRoute,
  kResilience,
  kWire,
  kSched,
  kQosServer,
  kSkeleton,
  kLayerCount,
};

const char* layer_name(int layer) noexcept;

/// Calls of the global operator new since the process started.
std::uint64_t alloc_count() noexcept;

class Ledger {
 public:
  /// Opens a call in the front layer and starts charging.
  void begin() noexcept;
  /// Enters `next`, remembering the current layer for pop().
  void push(Layer next) noexcept;
  /// Returns to the layer current at the matching push().
  void pop() noexcept;
  /// Closes the call. False when pushes and pops did not pair up (a probe
  /// was skipped, e.g. by a parked request), which makes the split wrong.
  bool end() noexcept;

  std::uint64_t ns(int layer) const noexcept { return ns_[layer]; }
  std::uint64_t allocs(int layer) const noexcept { return allocs_[layer]; }

 private:
  using Clock = std::chrono::steady_clock;
  static constexpr std::size_t kMaxDepth = 16;

  void switch_to(Layer next) noexcept;

  bool running_ = false;
  bool balanced_ = true;
  Layer current_ = kFront;
  std::array<Layer, kMaxDepth> stack_{};
  std::size_t depth_ = 0;
  Clock::time_point mark_{};
  std::uint64_t alloc_mark_ = 0;
  std::array<std::uint64_t, kLayerCount> ns_{};
  std::array<std::uint64_t, kLayerCount> allocs_{};
};

Ledger& ledger() noexcept;

class ClientProbe final : public maqs::orb::ClientInterceptor {
 public:
  ClientProbe(const char* name, Layer layer) : name_(name), layer_(layer) {}
  const char* name() const noexcept override { return name_; }
  maqs::orb::SendAction send_request(maqs::orb::ClientRequestInfo&) override;
  maqs::orb::ReplyAction receive_reply(maqs::orb::ClientRequestInfo&) override;
  void receive_exception(maqs::orb::ClientRequestInfo&) noexcept override;

 private:
  const char* name_;
  Layer layer_;
};

class ServerProbe final : public maqs::orb::ServerInterceptor {
 public:
  ServerProbe(const char* name, Layer layer) : name_(name), layer_(layer) {}
  const char* name() const noexcept override { return name_; }
  void receive_request(maqs::orb::ServerRequestInfo&) override;
  void send_reply(maqs::orb::ServerRequestInfo&) override;
  void send_exception(maqs::orb::ServerRequestInfo&) noexcept override;

 private:
  const char* name_;
  Layer layer_;
};

/// Registers the probes on a client ORB and a server ORB for its
/// lifetime. Both ORBs must outlive it.
class ProbeSet {
 public:
  ProbeSet(maqs::orb::Orb& client, maqs::orb::Orb& server);
  ~ProbeSet();
  ProbeSet(const ProbeSet&) = delete;
  ProbeSet& operator=(const ProbeSet&) = delete;

 private:
  maqs::orb::Orb& client_;
  maqs::orb::Orb& server_;
  ClientProbe mediator_{"probe.mediator", kMediator};
  ClientProbe route_{"probe.route", kRoute};
  ClientProbe resilience_{"probe.resilience", kResilience};
  ClientProbe wire_{"probe.wire", kWire};
  ServerProbe sched_{"probe.sched", kSched};
  ServerProbe qos_server_{"probe.qos_server", kQosServer};
  ServerProbe skeleton_{"probe.skeleton", kSkeleton};
};

}  // namespace perfbench
