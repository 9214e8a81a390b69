// What the two halves of the weave share (paper §3.3, Fig. 2).
//
// A negotiated characteristic weaves into both ends of an invocation: a
// mediator set in the client stub as a delegate, and a QoS implementation
// the server skeleton delegates to. Both carry the same state — the
// characteristic, the agreement they operate under, the woven channel
// version and an optional payload stage — so both derive from
// QosDelegate. Both ends may also hold several delegates at once, one per
// independently negotiated agreement: CompositeMediator and QosServantBase
// keep theirs in a DelegateSet, which orders the members, fuses their
// payload stages into one TransformChain and versions the shared wire
// channel.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/contract.hpp"
#include "core/transform.hpp"

namespace maqs::core {

class QosDelegate {
 public:
  explicit QosDelegate(std::string characteristic)
      : characteristic_(std::move(characteristic)) {}
  virtual ~QosDelegate() = default;

  const std::string& characteristic() const noexcept {
    return characteristic_;
  }

  /// Binds/rebinds the agreement this delegate operates under; called at
  /// negotiation time and again after every successful renegotiation
  /// (adaptation swaps parameters without replacing the delegate).
  virtual void bind_agreement(const Agreement& agreement) {
    agreement_ = agreement;
  }
  const Agreement& agreement() const noexcept { return agreement_; }

  /// Woven channel version: when several agreements share one wire channel
  /// (a composite stub, or a servant with several delegates installed),
  /// frames are versioned by the SUM of all member agreement versions —
  /// strictly monotone across any single member's renegotiation — rather
  /// than by any one agreement's version. The DelegateSet distributes it at
  /// weave and rebind time; -1 (the default) means standalone, where
  /// bind_agreement versions its mechanism material (codec bindings, key
  /// epochs) by the agreement's own version.
  void set_channel_version(std::int64_t version) noexcept {
    channel_version_ = version;
  }
  std::int64_t channel_version() const noexcept { return channel_version_; }

  /// This delegate's payload transform, when it has one. The DelegateSet
  /// fuses the stages of all its members into a single TransformChain (one
  /// arena, zero intermediate copies); nullptr leaves the payload alone.
  virtual StreamingTransform* streaming_transform() { return nullptr; }

 protected:
  /// Version to register versioned mechanism material under for
  /// `agreement`: the channel version when woven, else the agreement's own.
  std::int64_t effective_version(const Agreement& agreement) const noexcept {
    return channel_version_ >= 0 ? channel_version_ : agreement.version();
  }

 private:
  std::string characteristic_;
  Agreement agreement_;
  std::int64_t channel_version_ = -1;
};

/// The delegates woven through one stub or one servant, in installation
/// order. Every change of membership or agreement rebuilds the fused chain
/// of their payload stages and redistributes the channel version. The
/// owner validates before it adds (no nulls, no duplicate characteristic).
template <typename Member>
class DelegateSet {
 public:
  /// Span names of the fused chain (see TransformChain).
  DelegateSet(const char* forward_span, const char* reverse_span) noexcept
      : fused_(forward_span, reverse_span) {}

  const std::vector<std::shared_ptr<Member>>& members() const noexcept {
    return members_;
  }
  std::size_t size() const noexcept { return members_.size(); }
  bool empty() const noexcept { return members_.empty(); }
  TransformChain& fused() noexcept { return fused_; }

  std::shared_ptr<Member> find(const std::string& characteristic) const {
    for (const auto& member : members_) {
      if (member->characteristic() == characteristic) return member;
    }
    return nullptr;
  }

  void add(std::shared_ptr<Member> member) {
    members_.push_back(std::move(member));
    rebuild();
  }

  /// Removes by characteristic; returns the removed member, nullptr when
  /// absent.
  std::shared_ptr<Member> remove(const std::string& characteristic) {
    std::shared_ptr<Member> removed = find(characteristic);
    if (removed) {
      std::erase(members_, removed);
      rebuild();
    }
    return removed;
  }

  void clear() noexcept {
    members_.clear();
    fused_.clear();
  }

  /// Rebinds one member at a renegotiated agreement and redistributes the
  /// channel version: every member re-registers its versioned material at
  /// the new frame epoch while retaining the previous one, so in-flight
  /// frames across the switch still decode. Returns false when no member
  /// carries the characteristic.
  bool rebind(const std::string& characteristic, const Agreement& agreement) {
    const std::shared_ptr<Member> member = find(characteristic);
    if (!member) return false;
    if (members_.size() >= 2 && agreement.version() > 0) {
      // Bump the channel before binding so the member registers its new
      // material under the NEW epoch instead of overwriting the binding
      // in-flight frames of the current epoch still need.
      std::int64_t sum = agreement.version();
      for (const auto& other : members_) {
        if (other != member) sum += other->agreement().version();
      }
      member->set_channel_version(sum);
    }
    member->bind_agreement(agreement);
    distribute_channel_version();
    return true;
  }

 private:
  void rebuild() {
    fused_.clear();
    for (const auto& member : members_) {
      if (StreamingTransform* stage = member->streaming_transform()) {
        fused_.add(stage);
      }
    }
    distribute_channel_version();
  }

  /// Pushes the channel version (sum of member agreement versions) to the
  /// members; see QosDelegate::set_channel_version.
  void distribute_channel_version() {
    // A lone member (or none) keeps standalone semantics: its mechanism
    // material stays versioned by its own agreement, exactly as if it were
    // bound by hand outside any weave.
    if (members_.size() < 2) {
      for (const auto& member : members_) member->set_channel_version(-1);
      return;
    }
    std::int64_t sum = 0;
    for (const auto& member : members_) sum += member->agreement().version();
    for (const auto& member : members_) {
      // Hand-built members (version 0) never joined a negotiation; leave
      // their bindings alone so legacy frames stay byte-identical.
      if (member->agreement().version() <= 0) continue;
      if (member->channel_version() == sum) continue;
      member->set_channel_version(sum);
      // Re-register the member's versioned material (codec binding, key
      // epoch) under the channel version. Copy first: bind_agreement
      // overwrites the member's stored agreement.
      const Agreement bound = member->agreement();
      member->bind_agreement(bound);
    }
  }

  std::vector<std::shared_ptr<Member>> members_;
  TransformChain fused_;
};

}  // namespace maqs::core
