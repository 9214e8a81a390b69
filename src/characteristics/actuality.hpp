// Actuality-of-data QoS characteristic ("actuality of data", paper §6).
//
// A client-centered mechanism: the mediator answers reads from a local
// cache as long as the cached value is younger than the negotiated
// freshness bound; the server-side QoS implementation stamps every reply
// with the server's timestamp in its epilog (reply service context
// "qos.timestamp"), so staleness is measured against server time, not
// client receipt time. Writes (non-cacheable operations) invalidate the
// whole cache for the object.
//
//   dimension string freshness = { "tight", "normal", "loose" } degrade 0;
//   param long max_age_ms = 100;        // freshness bound at "tight"
//   param string cacheable_ops = "";    // ','-separated read operations
//   mechanism long qos_cache_hits();
//
// The freshness dimension scales the negotiated bound: "tight" serves
// max_age_ms as agreed, "normal" 4x and "loose" 16x. Degrading relaxes
// actuality — more cache hits, fewer server round trips — which is how
// this characteristic gives resources back under pressure.
#pragma once

#include <map>
#include <set>

#include "core/provider.hpp"

namespace maqs::characteristics {

const std::string& actuality_name();  // "Actuality"

core::CharacteristicDescriptor actuality_descriptor();
core::CharacteristicProvider make_actuality_provider();

/// Reply service-context key carrying the server timestamp (ns, i64).
const std::string& actuality_timestamp_key();

/// Multiplier the freshness dimension applies to max_age_ms
/// ("tight" 1, "normal" 4, "loose" 16).
std::int64_t freshness_scale(const std::string& freshness);

class ActualityMediator final : public core::Mediator {
 public:
  /// Needs the clock to judge freshness.
  explicit ActualityMediator(sim::EventLoop& loop);

  void bind_agreement(const core::Agreement& agreement) override;
  std::optional<orb::ReplyMessage> try_local(
      const orb::RequestMessage& req) override;
  void inbound(const orb::RequestMessage& req,
               orb::ReplyMessage& rep) override;
  cdr::Any qos_operation(const std::string& op,
                         const std::vector<cdr::Any>& args) override;

  std::uint64_t cache_hits() const noexcept { return hits_; }
  std::uint64_t cache_misses() const noexcept { return misses_; }
  /// Drops all cached entries.
  void invalidate() { cache_.clear(); }

  /// Observed staleness (ns) of the last cache hit.
  sim::Duration last_staleness() const noexcept { return last_staleness_; }

 private:
  struct CacheEntry {
    orb::ReplyMessage reply;
    sim::TimePoint server_timestamp = 0;
  };
  bool cacheable(const std::string& operation) const;
  static std::string cache_key(const orb::RequestMessage& req);

  sim::EventLoop& loop_;
  sim::Duration max_age_ = 0;
  std::set<std::string> cacheable_ops_;
  std::map<std::string, CacheEntry> cache_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  sim::Duration last_staleness_ = 0;
};

/// Server side: timestamps every reply in the epilog.
class ActualityImpl final : public core::QosImpl {
 public:
  explicit ActualityImpl(sim::EventLoop& loop);

  void epilog(orb::ServerContext& ctx) override;
  void dispatch_qos_op(const std::string& op, cdr::Decoder& args,
                       cdr::Encoder& out, orb::ServerContext& ctx) override;

 private:
  sim::EventLoop& loop_;
  std::uint64_t stamped_ = 0;
};

}  // namespace maqs::characteristics
