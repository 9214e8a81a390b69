// Client-side programming model: stubs and the mediator slot.
//
// The paper's client-side weaving (§3.3): "the stub is extended by a so
// called mediator. [...] At runtime the mediator of the desired QoS is set
// in the stub as a delegate. Each call is intercepted and delegated to the
// mediator which can issue the QoS behaviour on the client side."
//
// StubBase implements exactly that: generated (or generated-style) stubs
// funnel every operation through invoke_operation(), which builds the
// per-invocation ClientRequestInfo record and hands it to the ORB's
// interceptor pipeline. The installed ClientDelegate (maqs::core::Mediator
// derives from it) is consumed by the pipeline's mediator stage; it may
// rewrite the request, name another reference the call addresses (load
// balancing's replica group, which the stage points the call at without
// copying this stub's reference), or answer locally (actuality cache)
// without touching application code.
#pragma once

#include <memory>
#include <string>

#include "orb/orb.hpp"

namespace maqs::orb {

/// Maps a non-OK reply onto the exception hierarchy. Shared by static
/// stubs and the DII.
void raise_for_status(const ReplyMessage& rep);

class StubBase {
 public:
  StubBase(Orb& orb, ObjRef ref) : orb_(orb), ref_(std::move(ref)) {}
  virtual ~StubBase() = default;

  Orb& orb() const noexcept { return orb_; }
  const ObjRef& ref() const noexcept { return ref_; }

  /// Installs the mediator delegate (nullptr removes it).
  void set_mediator(std::shared_ptr<ClientDelegate> mediator) {
    mediator_ = std::move(mediator);
  }
  const std::shared_ptr<ClientDelegate>& mediator() const noexcept {
    return mediator_;
  }

 protected:
  /// Generated stubs call this for every operation: request construction,
  /// the pipeline walk, reply checking. Returns the reply body
  /// (CDR-encoded results); throws on any non-OK status.
  util::Bytes invoke_operation(const std::string& operation,
                               util::Bytes args) const;

 private:
  Orb& orb_;
  ObjRef ref_;
  std::shared_ptr<ClientDelegate> mediator_;
};

}  // namespace maqs::orb
