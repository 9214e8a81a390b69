// Client-side aspect weaving: mediators.
//
// Paper §3.3: "On the client side the stub is extended by a so called
// mediator. The QoS implementor implements the generated mediator
// skeleton. At runtime the mediator of the desired QoS is set in the stub
// as a delegate."
//
// Mediator is that generated skeleton's base: it plugs into StubBase's
// delegate slot (consumed by the pipeline's mediator interceptor), carries
// what every delegate of the weave carries (QosDelegate: agreement,
// channel version, payload stage), and exposes the characteristic's QoS
// operations to client code (mechanism ops run locally on the mediator;
// peer ops talk to the server-side QoS impl over the middleware).
//
// CompositeMediator supports several simultaneously negotiated
// characteristics on one stub (e.g. Compression + Encryption): it keeps
// them in a DelegateSet and chains them in a defined order — outbound in
// installation order, inbound reversed — around one fused run of every
// member's payload stage, so payload transforms nest correctly and the
// members' own hooks always see the application payload.
#pragma once

#include <memory>
#include <vector>

#include "core/delegate.hpp"
#include "orb/stub.hpp"

namespace maqs::core {

class Mediator : public orb::ClientDelegate, public QosDelegate {
 public:
  explicit Mediator(std::string characteristic)
      : QosDelegate(std::move(characteristic)) {}

  /// Client-side entry for the characteristic's QoS operations (the
  /// mediator half of the QIDL mapping). Mechanism ops usually execute
  /// locally; peer ops are forwarded to the server's QoS implementation.
  /// Default: reject (characteristic declares no client-side ops).
  virtual cdr::Any qos_operation(const std::string& op,
                                 const std::vector<cdr::Any>& args) {
    (void)args;
    throw QosError("mediator " + characteristic() +
                   ": unsupported QoS operation '" + op + "'");
  }
};

class CompositeMediator : public orb::ClientDelegate {
 public:
  /// Appends a mediator at the end of the outbound chain.
  void add(std::shared_ptr<Mediator> mediator);
  /// Removes by characteristic name; returns false when absent.
  bool remove(const std::string& characteristic) {
    return delegates_.remove(characteristic) != nullptr;
  }
  /// See DelegateSet::rebind.
  bool rebind(const std::string& characteristic, const Agreement& agreement) {
    return delegates_.rebind(characteristic, agreement);
  }
  std::shared_ptr<Mediator> find(const std::string& characteristic) const {
    return delegates_.find(characteristic);
  }
  std::size_t size() const noexcept { return delegates_.size(); }

  std::optional<orb::ReplyMessage> try_local(
      const orb::RequestMessage& req) override;
  /// The last member that names a reference wins.
  std::shared_ptr<const orb::ObjRef> target() const override;
  void outbound(orb::RequestMessage& req) override;
  void inbound(const orb::RequestMessage& req,
               orb::ReplyMessage& rep) override;
  /// True iff any delegate in the chain needs it: the retained request is
  /// shared across the whole chain, so one payload-hungry mediator pins it.
  bool needs_request_payload() const override;

 private:
  DelegateSet<Mediator> delegates_{"mediator.outbound", "mediator.inbound"};
};

}  // namespace maqs::core
