// Load-balancing QoS characteristic ("performance by load-balancing",
// paper §6).
//
// An application-centered mechanism (the paper lists load balancing as
// feasible purely at the application layer, §4), bound onto the ORB's one
// replica picker. The agreement names the replica group as one stringified
// multi-profile IOR — the form ReplicaGroup::group_reference() and
// directory lookups emit. The mediator names that group as the target of
// every intercepted call (ClientDelegate::target; the call holds it, no
// copy is made); the client ORB's naming::ReplicaSelector (chain
// priorities 250/375) then points the call at one profile's endpoint
// inside it, skips open-breaker and quarantined ones, and fails over.
//
// The client ORB must run one ReplicaSelector, installed like a
// RetryGovernor; otherwise calls go to the group's primary. The policy
// (round-robin, least-loaded, locality) is SelectorConfig::policy.
//
// The server-side QoS implementation measures load in its prolog and
// exposes it through the QoS operation qos_load — a mechanism-management
// op in the paper's taxonomy. Its figures reach the selector through
// ReplicaSelector::update_loads.
//
//   param string replicas = "";   // stringified multi-profile IOR
//   mechanism double qos_load();
#pragma once

#include "core/provider.hpp"

namespace maqs::characteristics {

const std::string& loadbalancing_name();  // "LoadBalancing"

core::CharacteristicDescriptor loadbalancing_descriptor();
core::CharacteristicProvider make_loadbalancing_provider();

class LoadBalancingMediator final : public core::Mediator {
 public:
  LoadBalancingMediator();

  void bind_agreement(const core::Agreement& agreement) override;
  std::shared_ptr<const orb::ObjRef> target() const override {
    return group_;
  }

 private:
  /// The agreed replica group; null keeps the stub's own target. A rebind
  /// replaces the pointer, so calls in flight keep the group they started
  /// with.
  std::shared_ptr<const orb::ObjRef> group_;
};

/// Server side: load measurement in the prolog/epilog bracket.
class LoadReportingImpl final : public core::QosImpl {
 public:
  LoadReportingImpl();

  void prolog(orb::ServerContext& ctx) override;
  void epilog(orb::ServerContext& ctx) override;
  void dispatch_qos_op(const std::string& op, cdr::Decoder& args,
                       cdr::Encoder& out, orb::ServerContext& ctx) override;

  /// Exponentially decayed request counter (the "load" figure).
  double load() const noexcept { return load_; }
  std::uint64_t served() const noexcept { return served_; }

  /// Extra synthetic load added externally (benchmarks model busy hosts).
  void add_synthetic_load(double load) { load_ += load; }

 private:
  double load_ = 0;
  std::uint64_t served_ = 0;
};

}  // namespace maqs::characteristics
