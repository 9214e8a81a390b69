// QoS negotiation.
//
// "There is no system wide view on the QoS capability of a system but
// each QoS agreement has to be negotiated independently" (§3). The
// protocol runs as commands over the plain GIOP/IIOP path — exactly the
// bootstrap story of Fig. 3, where a QoS-aware relationship without an
// assigned module falls back to the plain module: "This allows initial
// negotiation of a QoS agreement between client and service".
//
// Protocol (command target "maqs.negotiator" on the server transport):
//   negotiate(characteristic, object_key, phase, matrix, params)
//       -> accepted? agreement_id, matrix, final/counter params, message
//   renegotiate(agreement_id, expected_version, matrix, params)
//       -> same result shape
//   terminate(agreement_id)                -> void
//
// The offer carries a capability matrix: the client's ranked preference
// lattice with its chosen point. The server intersects that lattice with
// ResourceManager capacity and either accepts the chosen point or
// counters with its best feasible point; the client confirms a counter
// (phase "accept") when it satisfies its preferences. Accepted
// agreements are versioned; a renegotiation must name the version it is
// renegotiating from and either commits version+1 atomically or leaves
// the previous agreement version (matrix, params, reservation) intact.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "core/contract.hpp"
#include "core/provider.hpp"
#include "core/qos_transport.hpp"
#include "orb/stub.hpp"

namespace maqs::core {

/// Raised on rejected or failed negotiations.
class NegotiationFailed : public QosError {
 public:
  using QosError::QosError;
};

/// Parameter <-> Any-sequence marshaling shared by both sides.
std::vector<cdr::Any> encode_params(
    const std::map<std::string, cdr::Any>& params);
std::map<std::string, cdr::Any> decode_params(
    const std::vector<cdr::Any>& anys, std::size_t offset);

/// Admission outcome of an offer review.
struct AdmissionDecision {
  enum class Kind { kAccept, kCounter, kReject } kind = Kind::kAccept;
};

/// Outcome of reviewing one offered capability matrix + scalar params
/// against a provider's declared capabilities and the resource budget.
struct OfferReview {
  AdmissionDecision::Kind kind = AdmissionDecision::Kind::kReject;
  /// kAccept: the granted matrix (offer's chosen point, possibly degraded
  /// to the best feasible point when that equals the offer — see below).
  /// kCounter: the server's best feasible point in the client's lattice.
  CapabilityMatrix matrix;
  /// Validated scalar params (defaults filled).
  std::map<std::string, cdr::Any> scalars;
  /// scalars + matrix.chosen_params(): the agreement's flat param view.
  std::map<std::string, cdr::Any> flattened;
  /// Demand at the granted point; reserved in the ResourceManager iff
  /// `reserved` (kAccept only — counters hold nothing).
  ResourceDemand demand;
  bool reserved = false;
  std::string reason;
};

/// Shared offer-validation/admission helper behind both handle_negotiate
/// and handle_renegotiate: validates the scalar params and the matrix
/// against the provider's descriptor, then walks the offered preference
/// lattice from its chosen point down until the flattened demand fits the
/// resource budget. Fitting at the offered point accepts (demand stays
/// reserved); fitting lower down counters with that point (nothing
/// reserved); exhausting the lattice falls back to degrading integral
/// scalar params toward their minima (legacy counter) before rejecting.
OfferReview review_offer(const CharacteristicProvider& provider,
                         ResourceManager& resources,
                         CapabilityMatrix offer,
                         const std::map<std::string, cdr::Any>& proposed);

/// Server half. One instance per server ORB/transport.
class NegotiationService {
 public:
  static const std::string& command_target();  // "maqs.negotiator"

  NegotiationService(QosTransport& transport, const ProviderRegistry& providers,
                     ResourceManager& resources);
  ~NegotiationService();

  AgreementRepository& agreements() noexcept { return agreements_; }
  ResourceManager& resources() noexcept { return resources_; }

  /// Marks the agreement violated and pushes a violation notification to
  /// the client's adaptation handler (QoS-to-QoS over the middleware).
  void notify_violation(std::uint64_t agreement_id, const std::string& reason);

  /// Resolves a resource overload (capacity dropped below reservations):
  /// newest agreements demanding the resource are violated first until
  /// reservations fit. Returns the violated agreement ids.
  std::vector<std::uint64_t> shed_overload(const std::string& resource);

 private:
  cdr::Any handle_command(const std::string& op,
                          const std::vector<cdr::Any>& args,
                          const net::Address& from);
  cdr::Any handle_negotiate(const std::vector<cdr::Any>& args,
                            const net::Address& from);
  cdr::Any handle_renegotiate(const std::vector<cdr::Any>& args);
  cdr::Any handle_terminate(const std::vector<cdr::Any>& args);

  /// Applies the server-side binding for an accepted agreement: QoS impl
  /// delegate into the servant, module load.
  void apply_server_binding(Agreement& agreement);

  cdr::Any result_any(bool accepted, std::uint64_t agreement_id,
                      const std::string& message,
                      const CapabilityMatrix& matrix,
                      const std::map<std::string, cdr::Any>& params);

  QosTransport& transport_;
  const ProviderRegistry& providers_;
  ResourceManager& resources_;
  AgreementRepository agreements_;
  /// agreement id -> client adaptation endpoint (push channel) and the
  /// demand reserved for it.
  std::map<std::uint64_t, net::Address> client_endpoints_;
  std::map<std::uint64_t, ResourceDemand> reservations_;
};

/// Client preferences (outlook §6: "client preferences have to be
/// incorporated in the negotiation process"). Bounds per integral param
/// or dimension, plus per-dimension allowed value sets; a counter-offer
/// violating any of them is refused.
struct ClientPreferences {
  struct Bound {
    std::optional<std::int64_t> min;
    std::optional<std::int64_t> max;
  };
  std::map<std::string, Bound> bounds;
  /// Non-integral dimensions (e.g. compression.algorithm): the counter's
  /// value must be a member of the listed set when one is given.
  std::map<std::string, std::vector<cdr::Any>> allowed;

  bool acceptable(const std::map<std::string, cdr::Any>& params) const;
};

/// Client half: drives the protocol and applies the client-side binding
/// (mediator into the stub, module assignment, setup handshakes).
class Negotiator {
 public:
  Negotiator(QosTransport& transport, const ProviderRegistry& providers);

  /// Negotiates `characteristic` for the stub's object and installs the
  /// woven client side on success. Params naming a declared dimension
  /// restrict the offered lattice to start at that value; the rest travel
  /// as scalar params. A server counter is confirmed (phase "accept")
  /// iff it satisfies `prefs` (when given); the loop converges in at most
  /// dimensions+1 rounds. Throws NegotiationFailed otherwise.
  Agreement negotiate(orb::StubBase& stub, const std::string& characteristic,
                      const std::map<std::string, cdr::Any>& params,
                      const ClientPreferences* prefs = nullptr);

  /// Same protocol from an explicit pre-built offer matrix.
  Agreement negotiate_offer(orb::StubBase& stub,
                            const std::string& characteristic,
                            CapabilityMatrix offer,
                            std::map<std::string, cdr::Any> scalars,
                            const ClientPreferences* prefs = nullptr);

  /// Renegotiates an existing agreement to new parameters (dimension
  /// names re-pin the matrix point, the rest replace scalars), rebinding
  /// the installed mediator/modules on success. The request names the
  /// agreement version it renegotiates from; a stale version fails.
  Agreement renegotiate(orb::StubBase& stub, const Agreement& agreement,
                        const std::map<std::string, cdr::Any>& params);

  /// Terminates the agreement and removes the client-side weaving.
  void terminate(orb::StubBase& stub, const Agreement& agreement);

 private:
  /// Installs mediator/module for an accepted agreement.
  void apply_client_binding(orb::StubBase& stub, const Agreement& agreement);

  QosTransport& transport_;
  const ProviderRegistry& providers_;
};

}  // namespace maqs::core
