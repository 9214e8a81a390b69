// Server-side aspect weaving: QoS skeletons (paper Fig. 2).
//
// The QIDL server-side mapping: "The server inherits from the QoS skeleton
// and the server skeleton [...]. The server skeleton is extended by a
// delegate to the actual QoS implementation. This will be exchanged at
// runtime to the actual QoS characteristic's QoS implementation. Hence,
// only the operations of the actual negotiated QoS characteristic are
// processed while others raise an exception. The server skeleton takes
// incoming requests from the ORB and calls a prolog and an epilog
// operation on the QoS implementation before and after the operation is
// processed by the server."
//
// QosServantBase realizes exactly that weaving:
//   - assigned characteristics declare which operations are QoS ops,
//   - a single exchangeable QosImpl delegate handles the negotiated one,
//   - QoS ops of non-negotiated (but assigned) characteristics raise
//     NotNegotiated,
//   - application operations are bracketed by prolog/epilog, run by
//     dispatch() as one direct loop in Fig. 2's order.
// QosImpl shares its base (QosDelegate) and its member set (DelegateSet)
// with the client half, core/mediator.hpp.
//
// Generated server skeletons derive from QosServantBase and implement
// dispatch_app() (our qidlc emits this shape). For retrofitting an
// existing plain skeleton without regenerating it, WovenServant wraps any
// orb::Servant by delegation — same weaving, composition instead of
// inheritance.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/characteristic.hpp"
#include "core/delegate.hpp"
#include "orb/exceptions.hpp"
#include "orb/servant.hpp"

namespace maqs::core {

/// The cross-cut the paper singles out for replica groups: "the ability
/// for this QoS violates the encapsulation of a server", resolved through
/// a dedicated interface ("QoS aspect integration", §3.2). Servants whose
/// interface carries a characteristic with state-aspect ops implement it;
/// QoS implementations reach it via QosServerContext::state_access().
class StateAccess {
 public:
  virtual ~StateAccess() = default;
  virtual util::Bytes get_state() = 0;
  virtual void set_state(util::BytesView state) = 0;
};

class QosServantBase;

/// What a QoS implementation may touch on its hosting servant.
class QosServerContext {
 public:
  explicit QosServerContext(QosServantBase& host) : host_(host) {}
  /// The servant's state-access aspect interface; nullptr if the servant
  /// does not expose one.
  StateAccess* state_access();

 private:
  QosServantBase& host_;
};

/// Server half of a QoS characteristic — "the QoS implementation" of
/// Fig. 2. Exchanged as a delegate at (re)negotiation time. Its payload
/// stage (QosDelegate::streaming_transform) restores the marshaled
/// arguments in reverse() before the application skeleton unmarshals them
/// (the inverse of what the mediator did on the client: decrypt,
/// decompress, ...) and transforms the marshaled result in forward().
class QosImpl : public QosDelegate {
 public:
  explicit QosImpl(std::string characteristic)
      : QosDelegate(std::move(characteristic)) {}

  /// Called when the delegate is installed into / removed from a servant.
  virtual void attach(QosServerContext& ctx) { (void)ctx; }
  virtual void detach() {}

  /// Bracket around every application operation (Fig. 2).
  virtual void prolog(orb::ServerContext& ctx) { (void)ctx; }
  virtual void epilog(orb::ServerContext& ctx) { (void)ctx; }

  /// The characteristic's QoS operations (mechanism + peer + aspect ops
  /// from QIDL). Throws BadOperation for names it does not implement.
  virtual void dispatch_qos_op(const std::string& op, cdr::Decoder& args,
                               cdr::Encoder& out, orb::ServerContext& ctx) {
    (void)args;
    (void)out;
    (void)ctx;
    throw orb::BadOperation("qos impl " + characteristic() +
                            ": unknown QoS operation " + op);
  }
};

/// Base of QoS-enabled server skeletons (see file comment).
class QosServantBase : public orb::Servant {
 public:
  /// Declares a characteristic as assigned to this interface. Its QoS
  /// operations become dispatchable (NotNegotiated until negotiated).
  void assign_characteristic(const CharacteristicDescriptor& descriptor);

  bool is_assigned(const std::string& characteristic) const;
  std::vector<std::string> assigned_characteristics() const;

  /// Paper-faithful delegate exchange (Fig. 2): clears every installed
  /// delegate and installs `impl` as the single negotiated one. Passing
  /// nullptr clears everything (all QoS ops raise NotNegotiated again).
  void set_active_impl(std::shared_ptr<QosImpl> impl);

  /// Most recently installed delegate; nullptr when none.
  const std::shared_ptr<QosImpl>& active_impl() const;

  /// Multi-category extension: each characteristic's delegate slot is
  /// exchanged independently, so several independently negotiated
  /// agreements (e.g. Compression + Actuality) weave simultaneously.
  /// Replaces any previous delegate of the same characteristic.
  void install_impl(std::shared_ptr<QosImpl> impl);
  void remove_impl(const std::string& characteristic);
  void clear_impls();
  /// Rebinds the delegate of `characteristic` at a renegotiated agreement;
  /// see DelegateSet::rebind. Returns false when no delegate of that
  /// characteristic is installed.
  bool rebind_impl(const std::string& characteristic,
                   const Agreement& agreement) {
    return delegates_.rebind(characteristic, agreement);
  }
  std::shared_ptr<QosImpl> impl_for(const std::string& characteristic) const {
    return delegates_.find(characteristic);
  }
  /// Installed delegates in installation order.
  const std::vector<std::shared_ptr<QosImpl>>& active_impls() const noexcept {
    return delegates_.members();
  }

  /// The woven dispatch path; final so weaving cannot be bypassed.
  void dispatch(const std::string& operation, cdr::Decoder& args,
                cdr::Encoder& out, orb::ServerContext& ctx) final;

  /// Optional state-access aspect (override in servants that expose it).
  virtual StateAccess* state_access() { return nullptr; }

 protected:
  /// The generated application skeleton: unmarshal, call impl, marshal.
  virtual void dispatch_app(const std::string& operation, cdr::Decoder& args,
                            cdr::Encoder& out, orb::ServerContext& ctx) = 0;

 private:
  /// op name -> owning characteristic (across all assigned ones).
  std::map<std::string, std::string> qos_ops_;
  std::map<std::string, CharacteristicDescriptor> assigned_;
  /// Installed delegates in installation order (client mediator chains
  /// install in the same negotiation order, which the transform nesting
  /// relies on — see dispatch()).
  DelegateSet<QosImpl> delegates_{"skeleton.transform_result",
                                  "skeleton.transform_args"};
  std::unique_ptr<QosServerContext> impl_ctx_;
};

/// Delegation-based weaving for pre-existing skeletons: wraps any servant
/// and applies the same QoS dispatch rules around it.
class WovenServant final : public QosServantBase {
 public:
  explicit WovenServant(std::shared_ptr<orb::Servant> inner);

  const std::string& repo_id() const override { return inner_->repo_id(); }
  StateAccess* state_access() override;

 protected:
  void dispatch_app(const std::string& operation, cdr::Decoder& args,
                    cdr::Encoder& out, orb::ServerContext& ctx) override;

 private:
  std::shared_ptr<orb::Servant> inner_;
};

}  // namespace maqs::core
