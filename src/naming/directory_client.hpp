// Client-side access to the ServiceDirectory: blocking wrappers for
// lookup/registration plus the HeartbeatAgent a replica runs to keep its
// membership lease alive and to piggyback load/epoch reports on each beat.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "naming/directory.hpp"
#include "orb/orb.hpp"

namespace maqs::naming {

/// What a directory lookup returns: the multi-profile reference plus the
/// load/epoch each profile advertised on its last heartbeat, index-aligned
/// with ObjRef::profile(i).
struct ServiceView {
  orb::ObjRef ref;
  std::vector<double> loads;
  std::vector<std::uint64_t> epochs;
};

/// Thin blocking wrapper over the directory's wire protocol. Requests ride
/// the plain client chain (local-fault, retry, breaker), so directory
/// traffic is as resilient as application traffic.
class DirectoryClient {
 public:
  DirectoryClient(orb::Orb& orb, net::Address directory_endpoint)
      : orb_(orb), directory_(std::move(directory_endpoint)) {}

  const net::Address& directory_endpoint() const noexcept {
    return directory_;
  }

  /// Nullopt when the service is unknown/empty or the directory is
  /// unreachable.
  std::optional<ServiceView> lookup(const std::string& service);

  bool register_member(const std::string& service, const std::string& repo_id,
                       const orb::AltProfile& profile, double load,
                       std::uint64_t epoch);

  /// True when the directory still knows the member; false asks the caller
  /// to re-register (lease expired or directory restarted).
  bool heartbeat(const std::string& service, const orb::AltProfile& profile,
                 double load, std::uint64_t epoch);

  void deregister(const std::string& service,
                  const orb::AltProfile& profile);

 private:
  orb::ReplyMessage call(const std::string& operation, util::Bytes args);

  orb::Orb& orb_;
  net::Address directory_;
};

struct HeartbeatStats {
  std::uint64_t beats_sent = 0;
  /// Beats the directory answered "unknown", triggering a re-register.
  std::uint64_t reregisters = 0;
};

/// Periodic, non-blocking membership lease renewal for one local servant.
/// start() registers the servant's profile with the directory and then
/// beats every `period`; each beat samples the load and epoch probes so
/// the directory (and through it, every client-side selector) sees fresh
/// figures without any extra round trips.
class HeartbeatAgent {
 public:
  struct Config {
    std::string service;
    /// Object key the servant is activated under on this ORB's adapter.
    std::string object_key;
    sim::Duration period = 100 * sim::kMillisecond;
    /// Current-load sample, e.g. core::make_load_probe(scheduler). Defaults
    /// to a constant 0.
    std::function<double()> load_probe;
    /// State-epoch sample for primary-backup ordering (defaults to 0; wire to
    /// characteristics::Replication::epoch()).
    std::function<std::uint64_t()> epoch_probe;
  };

  HeartbeatAgent(orb::Orb& orb, net::Address directory_endpoint,
                 Config config);
  ~HeartbeatAgent() { stop(); }

  HeartbeatAgent(const HeartbeatAgent&) = delete;
  HeartbeatAgent& operator=(const HeartbeatAgent&) = delete;

  /// Registers with the directory and starts the beat timer. Idempotent.
  void start();
  /// Cancels the beat timer (membership then lapses at the TTL).
  void stop();
  bool running() const noexcept { return timer_ != 0; }

  const HeartbeatStats& stats() const noexcept { return stats_; }

 private:
  void send_register();
  void beat();
  double sample_load() const {
    return config_.load_probe ? config_.load_probe() : 0.0;
  }
  std::uint64_t sample_epoch() const {
    return config_.epoch_probe ? config_.epoch_probe() : 0;
  }

  orb::Orb& orb_;
  net::Address directory_;
  Config config_;
  orb::AltProfile profile_;
  HeartbeatStats stats_;
  sim::EventId timer_ = 0;
  /// In-flight request ids, cancelled on stop() so no reply handler can
  /// outlive the agent.
  std::uint64_t inflight_register_ = 0;
  std::uint64_t inflight_beat_ = 0;
};

}  // namespace maqs::naming
