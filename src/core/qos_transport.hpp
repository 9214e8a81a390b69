// The QoS transport: Fig. 3's dispatch inside the ORB.
//
//                  +-- no QoS?  ------------------> GIOP/IIOP (plain path)
//   invocation --->|
//                  +-- QoS-aware request ---+-- module assigned --> module
//                  |                        +-- none ------------> plain
//                  +-- command --+-- target_module == "" --> transport cmd
//                                +-- named module ---------> module cmd
//
// The transport also owns module administration ("administrates all QoS
// transport modules"): loading on request through the factory registry,
// per-relationship module assignment, and the command channel that makes
// up the reflection mechanism the paper describes ("a simple reflection
// mechanism allows the extension of the ORB at runtime").
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/module.hpp"
#include "orb/orb.hpp"

namespace maqs::core {

/// Dispatch counters backing bench_f3_dispatch.
struct TransportStats {
  std::uint64_t requests_via_module = 0;
  std::uint64_t requests_fallback_plain = 0;
  std::uint64_t commands_to_transport = 0;
  std::uint64_t commands_to_module = 0;
  std::uint64_t inbound_module_transforms = 0;
  std::uint64_t modules_loaded = 0;
  /// Requests whose *assigned* module was missing from the module table —
  /// a broken binding, counted apart from the deliberate no-assignment
  /// fallback above so the condition cannot hide in fallback noise.
  std::uint64_t requests_module_missing = 0;
  /// Requests routed plain because their module is quarantined (graceful
  /// degradation), plus per-request fallbacks after a module failure.
  std::uint64_t requests_degraded = 0;
  /// Quarantine transitions (a module can re-enter after release).
  std::uint64_t modules_quarantined = 0;
};

/// Graceful-degradation knobs: after `failure_threshold` consecutive
/// module failures for one assignment, the module is quarantined for
/// `quarantine_period` of virtual time and traffic takes the plain path.
struct DegradationConfig {
  int failure_threshold = 3;
  sim::Duration quarantine_period = 500 * sim::kMillisecond;
};

class QosTransport final : public orb::RequestRouter {
 public:
  /// Installs itself as the ORB's router and registers the transport's
  /// static pseudo-object ("maqs/qos-transport") in the object adapter so
  /// it is reachable "like any other object".
  explicit QosTransport(orb::Orb& orb);
  ~QosTransport() override;
  QosTransport(const QosTransport&) = delete;
  QosTransport& operator=(const QosTransport&) = delete;

  orb::Orb& orb() noexcept { return orb_; }
  const TransportStats& stats() const noexcept { return stats_; }
  void reset_stats() { stats_ = TransportStats{}; }

  /// Reserved object key of the transport pseudo-object.
  static const std::string& pseudo_object_key();

  // ---- module administration ----

  /// Loads (instantiates + starts) a module; idempotent. Throws QosError
  /// when no factory is registered under `name`.
  QosModule& load_module(const std::string& name);
  /// Stops and discards the module; assignments to it are removed.
  void unload_module(const std::string& name);
  /// Fault injection: drops the module instance *without* administrative
  /// cleanup — assignments keep pointing at it, modeling a mechanism that
  /// crashed out from under its bindings. Requests for those assignments
  /// take the requests_module_missing path (warned, routed plain) until
  /// the module reloads or the binding is renegotiated.
  void crash_module(const std::string& name);
  /// string_view key: the per-request inbound/outbound lookups probe the
  /// module table straight from context-tag bytes, no temporary string.
  QosModule* find_module(std::string_view name);
  bool is_loaded(const std::string& name) const;
  std::vector<std::string> loaded_modules() const;

  // ---- module assignment (client/server relationship -> module) ----

  /// Routes future requests for `object_key` (on any server) through the
  /// module, loading it on demand.
  void assign(const std::string& object_key, const std::string& module);
  void unassign(const std::string& object_key);
  std::optional<std::string> assignment(const std::string& object_key) const;

  // ---- orb::RequestRouter (Fig. 3) ----
  /// Finds the module by the assignment of req.object_key.
  orb::ReplyMessage route(const net::Address& dest,
                          orb::RequestMessage req) override;
  std::optional<orb::ReplyMessage> inbound(
      orb::RequestMessage& req, const net::Address& from) override;
  void outbound(const orb::RequestMessage& req,
                orb::ReplyMessage& rep) override;

  /// The transport's own dynamic interface (commands with empty
  /// target_module): load_module, unload_module, list_modules, assign,
  /// unassign, ping.
  cdr::Any transport_command(const std::string& op,
                             const std::vector<cdr::Any>& args);

  /// Hook for negotiation/commands addressed to "maqs.negotiator": the
  /// negotiation service registers itself here (keeps core decoupled).
  using CommandHandler = std::function<cdr::Any(
      const std::string& op, const std::vector<cdr::Any>& args,
      const net::Address& from)>;
  void set_command_handler(const std::string& target, CommandHandler handler);

  // ---- graceful degradation (quarantine + renegotiation hook) ----

  /// Enables module-failure tracking on route(); nullopt (the default)
  /// disables it and clears all health state.
  void set_degradation(std::optional<DegradationConfig> config);
  const std::optional<DegradationConfig>& degradation() const noexcept {
    return degradation_;
  }

  /// Invoked (once per quarantine transition, from a fresh event-loop
  /// tick) when an assignment's module is quarantined. The adaptation
  /// engine registers itself here to renegotiate the agreement down.
  using DegradationHandler = std::function<void(
      const std::string& module, const std::string& object_key,
      const std::string& reason)>;
  void set_degradation_handler(DegradationHandler handler) {
    degradation_handler_ = std::move(handler);
  }

  /// True while `object_key`'s assigned module sits in quarantine.
  bool is_quarantined(const std::string& object_key) const;

 private:
  /// Per-assignment module health, tracked only while degradation is on.
  struct ModuleHealth {
    int consecutive_failures = 0;
    bool quarantined = false;
    sim::TimePoint release_at = 0;
  };

  /// Records a module failure for the assignment; quarantines at the
  /// configured threshold and schedules the degradation handler.
  void on_module_failure(const std::string& object_key,
                         const std::string& module,
                         const std::string& reason);
  /// Checks (and lazily expires) quarantine for the assignment.
  bool quarantined_now(const std::string& object_key);

  orb::ReplyMessage command_reply(std::uint64_t request_id,
                                  const cdr::Any& result);
  orb::ReplyMessage command_error(std::uint64_t request_id,
                                  const std::string& what);

  orb::Orb& orb_;
  ModuleContext context_;
  std::map<std::string, std::unique_ptr<QosModule>, std::less<>> modules_;
  std::map<std::string, std::string, std::less<>> assignments_;
  std::map<std::string, CommandHandler> command_handlers_;
  std::optional<DegradationConfig> degradation_;
  DegradationHandler degradation_handler_;
  std::map<std::string, ModuleHealth, std::less<>> health_;
  TransportStats stats_;
};

}  // namespace maqs::core
