// Client-side aspect weaving: mediators.
//
// Paper §3.3: "On the client side the stub is extended by a so called
// mediator. The QoS implementor implements the generated mediator
// skeleton. At runtime the mediator of the desired QoS is set in the stub
// as a delegate."
//
// Mediator is that generated skeleton's base: it plugs into StubBase's
// delegate slot (consumed by the pipeline's mediator interceptor), carries
// the agreement it operates under, and exposes
// the characteristic's QoS operations to client code (mechanism ops run
// locally on the mediator; peer ops talk to the server-side QoS impl over
// the middleware).
//
// CompositeMediator supports several simultaneously negotiated
// characteristics on one stub (e.g. Compression + Encryption): it chains
// the delegates in a defined order — outbound in installation order,
// inbound reversed — and fuses every member's payload stage into one
// TransformChain, so payload transforms nest correctly and the members'
// own hooks always see the application payload.
#pragma once

#include <memory>
#include <vector>

#include "core/contract.hpp"
#include "core/transform.hpp"
#include "orb/stub.hpp"

namespace maqs::core {

class Mediator : public orb::ClientDelegate {
 public:
  explicit Mediator(std::string characteristic)
      : characteristic_(std::move(characteristic)) {}

  const std::string& characteristic() const noexcept {
    return characteristic_;
  }

  /// Binds/rebinds the agreement this mediator operates under; called at
  /// negotiation time and again after every successful renegotiation
  /// (adaptation swaps parameters without replacing the delegate).
  virtual void bind_agreement(const Agreement& agreement) {
    agreement_ = agreement;
  }

  const Agreement& agreement() const noexcept { return agreement_; }

  /// Woven channel version: when several agreements share one wire channel
  /// (a composite stub), frames are versioned by the SUM of all member
  /// agreement versions — strictly monotone across any single member's
  /// renegotiation — rather than by any one agreement's version. The
  /// composite distributes it at weave and rebind time; -1 (the default)
  /// means standalone, where bind_agreement versions its mechanism
  /// material (codec bindings, key epochs) by the agreement's own version.
  void set_channel_version(std::int64_t version) noexcept {
    channel_version_ = version;
  }
  std::int64_t channel_version() const noexcept { return channel_version_; }

  /// Client-side entry for the characteristic's QoS operations (the
  /// mediator half of the QIDL mapping). Mechanism ops usually execute
  /// locally; peer ops are forwarded to the server's QoS implementation.
  /// Default: reject (characteristic declares no client-side ops).
  virtual cdr::Any qos_operation(const std::string& op,
                                 const std::vector<cdr::Any>& args) {
    (void)args;
    throw QosError("mediator " + characteristic_ +
                   ": unsupported QoS operation '" + op + "'");
  }

  /// This mediator's payload transform, when it has one. A composite fuses
  /// the stages of all its members into a single TransformChain (one
  /// arena, zero intermediate copies) that runs after every outbound() hook
  /// and before every inbound() hook.
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

class CompositeMediator : public orb::ClientDelegate {
 public:
  /// Appends a mediator at the end of the outbound chain.
  void add(std::shared_ptr<Mediator> mediator);
  /// Removes by characteristic name; returns false when absent.
  bool remove(const std::string& characteristic);
  /// Rebinds one member at a renegotiated agreement and redistributes the
  /// channel version: every member re-registers its versioned material at
  /// the new frame epoch while retaining the previous one, so in-flight
  /// frames across the switch still decode. Returns false when no member
  /// carries the characteristic.
  bool rebind(const std::string& characteristic, const Agreement& agreement);
  std::shared_ptr<Mediator> find(const std::string& characteristic) const;
  std::size_t size() const noexcept { return chain_.size(); }

  std::optional<orb::ReplyMessage> try_local(
      const orb::RequestMessage& req, const orb::ObjRef& target) override;
  void outbound(orb::RequestMessage& req, orb::ObjRef& target) override;
  void inbound(const orb::RequestMessage& req,
               orb::ReplyMessage& rep) override;
  /// True iff any delegate in the chain needs it: the retained request is
  /// shared across the whole chain, so one payload-hungry mediator pins it.
  bool needs_request_payload() const override;

 private:
  /// Rebuilds the fused chain after add/remove from the stages of the
  /// members that have one, in installation order.
  void rebuild_fused();
  /// Pushes the channel version (sum of member agreement versions) to the
  /// members sharing this stub's wire channel; see
  /// Mediator::set_channel_version.
  void distribute_channel_version();

  std::vector<std::shared_ptr<Mediator>> chain_;
  TransformChain fused_{"mediator.outbound", "mediator.inbound"};
};

}  // namespace maqs::core
