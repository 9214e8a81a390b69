#include "core/negotiation.hpp"

#include <algorithm>

#include "core/adaptation.hpp"
#include "orb/dii.hpp"
#include "util/log.hpp"

namespace maqs::core {

namespace {

const std::string& arg_string(const std::vector<cdr::Any>& args,
                              std::size_t i) {
  if (i >= args.size()) {
    throw QosError("negotiation: missing argument " + std::to_string(i));
  }
  return args[i].as_string();
}

std::int64_t arg_int(const std::vector<cdr::Any>& args, std::size_t i) {
  if (i >= args.size()) {
    throw QosError("negotiation: missing argument " + std::to_string(i));
  }
  return args[i].as_integer();
}

const cdr::Any& arg_any(const std::vector<cdr::Any>& args, std::size_t i) {
  if (i >= args.size()) {
    throw QosError("negotiation: missing argument " + std::to_string(i));
  }
  return args[i];
}

/// scalars + chosen dimension values, dimension values winning.
std::map<std::string, cdr::Any> flatten_point(
    const std::map<std::string, cdr::Any>& scalars,
    const CapabilityMatrix& matrix) {
  std::map<std::string, cdr::Any> out = scalars;
  for (auto& [name, value] : matrix.chosen_params()) {
    out[name] = std::move(value);
  }
  return out;
}

bool demand_fits(const ResourceManager& resources,
                 const ResourceDemand& demand) {
  for (const auto& [resource, amount] : demand) {
    if (!resources.is_declared(resource) ||
        resources.available(resource) < amount) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::vector<cdr::Any> encode_params(
    const std::map<std::string, cdr::Any>& params) {
  std::vector<cdr::Any> out;
  out.reserve(params.size() * 2);
  for (const auto& [name, value] : params) {
    out.push_back(cdr::Any::from_string(name));
    out.push_back(value);
  }
  return out;
}

std::map<std::string, cdr::Any> decode_params(
    const std::vector<cdr::Any>& anys, std::size_t offset) {
  if ((anys.size() - offset) % 2 != 0) {
    throw QosError("negotiation: odd param list");
  }
  std::map<std::string, cdr::Any> out;
  for (std::size_t i = offset; i + 1 < anys.size(); i += 2) {
    out[anys[i].as_string()] = anys[i + 1];
  }
  return out;
}

// ---- shared offer review ----

OfferReview review_offer(const CharacteristicProvider& provider,
                         ResourceManager& resources,
                         CapabilityMatrix offer,
                         const std::map<std::string, cdr::Any>& proposed) {
  OfferReview review;
  review.scalars = provider.descriptor.validate_params(proposed);
  provider.descriptor.validate_matrix(offer);

  if (!provider.resource_demand) {
    review.kind = AdmissionDecision::Kind::kAccept;
    review.matrix = std::move(offer);
    review.flattened = flatten_point(review.scalars, review.matrix);
    return review;
  }

  // Walk the offered lattice from the chosen point down: the first point
  // whose demand both names only declared resources and fits the budget
  // wins. Fitting at the offered point itself is an accept (and the
  // demand stays reserved); anything lower is a counter-offer.
  CapabilityMatrix candidate = offer;
  while (true) {
    const std::map<std::string, cdr::Any> flat =
        flatten_point(review.scalars, candidate);
    const ResourceDemand demand = provider.resource_demand(flat);
    for (const auto& [resource, _] : demand) {
      if (!resources.is_declared(resource)) {
        review.kind = AdmissionDecision::Kind::kReject;
        review.reason = "undeclared resource '" + resource + "'";
        return review;
      }
    }
    if (resources.try_reserve(demand)) {
      if (candidate.same_point(offer)) {
        review.kind = AdmissionDecision::Kind::kAccept;
        review.matrix = std::move(candidate);
        review.flattened = flat;
        review.demand = demand;
        review.reserved = true;
      } else {
        // Counter: the client has to confirm before anything is held.
        resources.release(demand);
        review.kind = AdmissionDecision::Kind::kCounter;
        review.matrix = std::move(candidate);
        review.flattened = flat;
      }
      return review;
    }
    if (!candidate.degrade_step().has_value()) break;
  }

  // Lattice exhausted: fall back to degrading integral scalar params
  // toward their minima (the legacy scalar counter).
  std::map<std::string, cdr::Any> counter = review.scalars;
  bool degraded = false;
  for (const ParamDesc& param : provider.descriptor.params()) {
    if (!param.min.has_value()) continue;
    auto it = counter.find(param.name);
    if (it == counter.end()) continue;
    if (it->second.as_integer() > *param.min) {
      // Preserve the declared parameter type when lowering the level.
      switch (param.type->kind()) {
        case cdr::TCKind::kShort:
          it->second =
              cdr::Any::from_short(static_cast<std::int16_t>(*param.min));
          break;
        case cdr::TCKind::kLong:
          it->second =
              cdr::Any::from_long(static_cast<std::int32_t>(*param.min));
          break;
        default:
          it->second = cdr::Any::from_longlong(*param.min);
          break;
      }
      degraded = true;
    }
  }
  if (degraded) {
    const std::map<std::string, cdr::Any> flat =
        flatten_point(counter, candidate);
    if (demand_fits(resources, provider.resource_demand(flat))) {
      review.kind = AdmissionDecision::Kind::kCounter;
      review.matrix = std::move(candidate);
      review.scalars = std::move(counter);
      review.flattened = flat;
      return review;
    }
  }
  review.kind = AdmissionDecision::Kind::kReject;
  review.reason = "insufficient resources";
  return review;
}

// ---- NegotiationService ----

const std::string& NegotiationService::command_target() {
  static const std::string kTarget = "maqs.negotiator";
  return kTarget;
}

NegotiationService::NegotiationService(QosTransport& transport,
                                       const ProviderRegistry& providers,
                                       ResourceManager& resources)
    : transport_(transport), providers_(providers), resources_(resources) {
  transport_.set_command_handler(
      command_target(),
      [this](const std::string& op, const std::vector<cdr::Any>& args,
             const net::Address& from) {
        return handle_command(op, args, from);
      });
}

NegotiationService::~NegotiationService() {
  transport_.set_command_handler(command_target(), nullptr);
}

cdr::Any NegotiationService::handle_command(const std::string& op,
                                            const std::vector<cdr::Any>& args,
                                            const net::Address& from) {
  if (op == "negotiate") return handle_negotiate(args, from);
  if (op == "renegotiate") return handle_renegotiate(args);
  if (op == "terminate") return handle_terminate(args);
  throw QosError("negotiation: unknown command '" + op + "'");
}

cdr::Any NegotiationService::result_any(
    bool accepted, std::uint64_t agreement_id, const std::string& message,
    const CapabilityMatrix& matrix,
    const std::map<std::string, cdr::Any>& params) {
  std::vector<cdr::Any> items;
  items.push_back(cdr::Any::from_string(accepted ? "accepted" : message));
  items.push_back(
      cdr::Any::from_longlong(static_cast<std::int64_t>(agreement_id)));
  items.push_back(matrix.to_any());
  for (cdr::Any& any : encode_params(params)) items.push_back(std::move(any));
  return make_tuple_any(std::move(items));
}

void NegotiationService::apply_server_binding(Agreement& agreement) {
  const CharacteristicProvider& provider =
      providers_.get(agreement.characteristic);
  orb::Orb& orb = transport_.orb();
  std::shared_ptr<orb::Servant> servant =
      orb.adapter().find(agreement.object_key);
  if (!servant) {
    throw NegotiationFailed("negotiation: no such object '" +
                            agreement.object_key + "'");
  }
  auto* qos_servant = dynamic_cast<QosServantBase*>(servant.get());
  if (qos_servant == nullptr) {
    throw NegotiationFailed("negotiation: object '" + agreement.object_key +
                            "' is not QoS-enabled");
  }
  if (!qos_servant->is_assigned(agreement.characteristic)) {
    throw NegotiationFailed("negotiation: characteristic '" +
                            agreement.characteristic +
                            "' is not assigned to interface of '" +
                            agreement.object_key + "'");
  }
  if (provider.module.empty() == false) {
    transport_.load_module(provider.module);
  }
  if (provider.make_impl) {
    std::shared_ptr<QosImpl> impl =
        provider.make_impl(agreement, orb, transport_);
    impl->bind_agreement(agreement);
    // Per-characteristic delegate exchange: other negotiated
    // characteristics on the same object keep their delegates.
    qos_servant->install_impl(std::move(impl));
  }
}

cdr::Any NegotiationService::handle_negotiate(
    const std::vector<cdr::Any>& args, const net::Address& from) {
  const std::string characteristic = arg_string(args, 0);
  const std::string object_key = arg_string(args, 1);
  const std::string phase = arg_string(args, 2);  // "offer" | "accept"
  if (phase != "offer" && phase != "accept") {
    return result_any(false, 0, "unknown negotiation phase '" + phase + "'",
                      {}, {});
  }
  const CharacteristicProvider* provider = providers_.find(characteristic);
  if (provider == nullptr) {
    return result_any(false, 0, "unknown characteristic", {}, {});
  }
  OfferReview review;
  try {
    review = review_offer(*provider, resources_,
                          CapabilityMatrix::from_any(arg_any(args, 3)),
                          decode_params(args, 4));
  } catch (const QosError& e) {
    return result_any(false, 0, e.what(), {}, {});
  }
  switch (review.kind) {
    case AdmissionDecision::Kind::kReject:
      return result_any(
          false, 0, review.reason.empty() ? "rejected" : review.reason, {},
          {});
    case AdmissionDecision::Kind::kCounter:
      return result_any(false, 0, "counter", review.matrix, review.flattened);
    case AdmissionDecision::Kind::kAccept:
      break;
  }

  Agreement draft;
  draft.characteristic = characteristic;
  draft.object_key = object_key;
  draft.client = from.to_string();
  draft.params = review.flattened;
  draft.matrix = review.matrix;
  draft.matrix.set_version(1);
  draft.state = AgreementState::kActive;
  Agreement& agreement = agreements_.create(std::move(draft));
  try {
    apply_server_binding(agreement);
  } catch (const Error& e) {
    if (review.reserved) resources_.release(review.demand);
    agreements_.terminate(agreement.id);
    return result_any(false, 0, e.what(), {}, {});
  }
  client_endpoints_[agreement.id] = from;
  if (provider->resource_demand) {
    reservations_[agreement.id] = review.demand;
  }
  MAQS_INFO() << "negotiated agreement " << agreement.id << " ("
              << characteristic << ") v" << agreement.version() << " for "
              << object_key;
  return result_any(true, agreement.id, "", agreement.matrix,
                    agreement.params);
}

cdr::Any NegotiationService::handle_renegotiate(
    const std::vector<cdr::Any>& args) {
  const std::uint64_t id = static_cast<std::uint64_t>(arg_int(args, 0));
  const std::int64_t expected_version = arg_int(args, 1);
  Agreement* agreement = agreements_.find(id);
  if (agreement == nullptr ||
      agreement->state == AgreementState::kTerminated) {
    return result_any(false, id, "unknown agreement", {}, {});
  }
  if (expected_version != agreement->matrix.version()) {
    // Stale renegotiation: the client is talking about a superseded
    // agreement generation. Nothing changes on this side.
    return result_any(false, id,
                      "version conflict: agreement at v" +
                          std::to_string(agreement->matrix.version()) +
                          ", request names v" +
                          std::to_string(expected_version),
                      agreement->matrix, agreement->params);
  }
  const CharacteristicProvider& provider =
      providers_.get(agreement->characteristic);

  // Snapshot the current generation; every failure path below restores it
  // exactly (matrix, params, state, reservation).
  const Agreement snapshot = *agreement;
  const auto old_reservation = reservations_.find(id);
  const bool had_reservation = old_reservation != reservations_.end();
  const ResourceDemand old_demand =
      had_reservation ? old_reservation->second : ResourceDemand{};
  if (had_reservation) resources_.release(old_demand);

  auto restore_reservation = [&] {
    if (had_reservation) resources_.try_reserve(old_demand);
  };

  OfferReview review;
  try {
    review = review_offer(provider, resources_,
                          CapabilityMatrix::from_any(arg_any(args, 2)),
                          decode_params(args, 3));
  } catch (const QosError& e) {
    restore_reservation();
    return result_any(false, id, e.what(), {}, {});
  }
  if (review.kind != AdmissionDecision::Kind::kAccept) {
    // The previous version keeps running untouched.
    restore_reservation();
    return result_any(false, id,
                      review.kind == AdmissionDecision::Kind::kCounter
                          ? "counter"
                          : review.reason,
                      review.matrix, review.flattened);
  }
  agreement->params = review.flattened;
  agreement->matrix = review.matrix;
  agreement->matrix.set_version(snapshot.matrix.version() + 1);
  agreement->state = AgreementState::kActive;
  if (provider.resource_demand) {
    reservations_[id] = review.demand;
  }
  // Rebind the server-side implementation at the new point (via the
  // servant so the woven channel version redistributes across every
  // installed delegate). A rebind failure rolls the whole renegotiation
  // back to the snapshot version.
  try {
    if (auto servant =
            transport_.orb().adapter().find(agreement->object_key)) {
      if (auto* qos_servant = dynamic_cast<QosServantBase*>(servant.get())) {
        qos_servant->rebind_impl(agreement->characteristic, *agreement);
      }
    }
  } catch (const Error& e) {
    if (review.reserved) resources_.release(review.demand);
    agreement->params = snapshot.params;
    agreement->matrix = snapshot.matrix;
    agreement->state = snapshot.state;
    if (had_reservation) {
      reservations_[id] = old_demand;
      resources_.try_reserve(old_demand);
    } else {
      reservations_.erase(id);
    }
    // Re-arm the server impl at the restored generation (the channel
    // version falls back to the pre-renegotiation sum with it).
    if (auto servant =
            transport_.orb().adapter().find(agreement->object_key)) {
      if (auto* qos_servant = dynamic_cast<QosServantBase*>(servant.get())) {
        qos_servant->rebind_impl(agreement->characteristic, *agreement);
      }
    }
    return result_any(false, id,
                      std::string("rebind failed, rolled back: ") + e.what(),
                      agreement->matrix, agreement->params);
  }
  MAQS_INFO() << "renegotiated agreement " << id << " to v"
              << agreement->version();
  return result_any(true, id, "", agreement->matrix, agreement->params);
}

cdr::Any NegotiationService::handle_terminate(
    const std::vector<cdr::Any>& args) {
  const std::uint64_t id = static_cast<std::uint64_t>(arg_int(args, 0));
  Agreement* agreement = agreements_.find(id);
  if (agreement == nullptr ||
      agreement->state == AgreementState::kTerminated) {
    return cdr::Any::make_void();
  }
  auto reservation = reservations_.find(id);
  if (reservation != reservations_.end()) {
    resources_.release(reservation->second);
    reservations_.erase(reservation);
  }
  // Remove the server-side delegate if it belongs to this agreement.
  if (auto servant = transport_.orb().adapter().find(agreement->object_key)) {
    if (auto* qos_servant = dynamic_cast<QosServantBase*>(servant.get())) {
      auto impl = qos_servant->impl_for(agreement->characteristic);
      if (impl && impl->agreement().id == id) {
        qos_servant->remove_impl(agreement->characteristic);
      }
    }
  }
  client_endpoints_.erase(id);
  agreements_.terminate(id);
  return cdr::Any::make_void();
}

void NegotiationService::notify_violation(std::uint64_t agreement_id,
                                          const std::string& reason) {
  Agreement* agreement = agreements_.find(agreement_id);
  if (agreement == nullptr) {
    throw QosError("negotiation: violation on unknown agreement " +
                   std::to_string(agreement_id));
  }
  agreement->state = AgreementState::kViolated;
  auto endpoint = client_endpoints_.find(agreement_id);
  if (endpoint == client_endpoints_.end()) return;

  // Push asynchronously over the middleware: a command addressed to the
  // client transport's adaptation handler (QoS-to-QoS, §3.2).
  orb::RequestMessage cmd;
  cmd.kind = orb::RequestKind::kCommand;
  cmd.qos_aware = true;
  cmd.target_module = AdaptationManager::command_target();
  cmd.operation = "violation";
  cmd.body = orb::encode_command_args(
      {cdr::Any::from_longlong(static_cast<std::int64_t>(agreement_id)),
       cdr::Any::from_string(agreement->characteristic),
       cdr::Any::from_string(reason)});
  transport_.orb().send_request(endpoint->second, std::move(cmd),
                                [](const orb::ReplyMessage&) {});
}

std::vector<std::uint64_t> NegotiationService::shed_overload(
    const std::string& resource) {
  std::vector<std::uint64_t> violated;
  while (resources_.is_declared(resource) &&
         resources_.reserved(resource) > resources_.capacity(resource)) {
    // Newest agreement holding this resource loses first.
    std::uint64_t victim = 0;
    for (const auto& [id, demand] : reservations_) {
      auto it = demand.find(resource);
      if (it == demand.end() || it->second <= 0) continue;
      const Agreement* agreement = agreements_.find(id);
      if (agreement == nullptr ||
          agreement->state != AgreementState::kActive) {
        continue;
      }
      victim = std::max(victim, id);
    }
    if (victim == 0) break;
    resources_.release(reservations_[victim]);
    reservations_.erase(victim);
    notify_violation(victim, "resource overload: " + resource);
    violated.push_back(victim);
  }
  return violated;
}

// ---- ClientPreferences ----

bool ClientPreferences::acceptable(
    const std::map<std::string, cdr::Any>& params) const {
  for (const auto& [name, bound] : bounds) {
    auto it = params.find(name);
    if (it == params.end()) continue;
    const std::int64_t v = it->second.as_integer();
    if (bound.min.has_value() && v < *bound.min) return false;
    if (bound.max.has_value() && v > *bound.max) return false;
  }
  for (const auto& [name, values] : allowed) {
    auto it = params.find(name);
    if (it == params.end()) continue;
    if (std::find(values.begin(), values.end(), it->second) == values.end()) {
      return false;
    }
  }
  return true;
}

// ---- Negotiator ----

Negotiator::Negotiator(QosTransport& transport,
                       const ProviderRegistry& providers)
    : transport_(transport), providers_(providers) {}

namespace {
struct NegotiationResult {
  std::string kind;  // "accepted" | "counter" | reject reason
  std::uint64_t agreement_id = 0;
  CapabilityMatrix matrix;
  std::map<std::string, cdr::Any> params;
};

NegotiationResult parse_result(const cdr::Any& any) {
  const std::vector<cdr::Any>& items = any.as_elements();
  if (items.size() < 3) throw QosError("negotiation: malformed result");
  NegotiationResult result;
  result.kind = items[0].as_string();
  result.agreement_id =
      static_cast<std::uint64_t>(items[1].as_longlong());
  result.matrix = CapabilityMatrix::from_any(items[2]);
  result.params = decode_params(items, 3);
  return result;
}

/// Drops entries naming a matrix dimension: what remains are scalars.
std::map<std::string, cdr::Any> scalars_of(
    const std::map<std::string, cdr::Any>& params,
    const CapabilityMatrix& matrix) {
  std::map<std::string, cdr::Any> out;
  for (const auto& [name, value] : params) {
    if (matrix.find_dimension(name) == CapabilityMatrix::npos) {
      out[name] = value;
    }
  }
  return out;
}
}  // namespace

Agreement Negotiator::negotiate(orb::StubBase& stub,
                                const std::string& characteristic,
                                const std::map<std::string, cdr::Any>& params,
                                const ClientPreferences* prefs) {
  // Unknown characteristics still go on the wire with an empty matrix:
  // the server is the authority and rejects them (NegotiationFailed),
  // exactly as for any other refused offer.
  const CharacteristicProvider* provider = providers_.find(characteristic);
  CapabilityMatrix offer =
      provider != nullptr ? provider->descriptor.default_matrix()
                          : CapabilityMatrix{};
  std::map<std::string, cdr::Any> scalars;
  for (const auto& [name, value] : params) {
    if (offer.find_dimension(name) != CapabilityMatrix::npos) {
      if (!offer.restrict_to(name, value)) {
        throw NegotiationFailed("negotiation: '" + value.type()->to_string() +
                                "' value is not in dimension '" + name +
                                "' of " + characteristic);
      }
    } else {
      scalars[name] = value;
    }
  }
  return negotiate_offer(stub, characteristic, std::move(offer),
                         std::move(scalars), prefs);
}

Agreement Negotiator::negotiate_offer(orb::StubBase& stub,
                                      const std::string& characteristic,
                                      CapabilityMatrix offer,
                                      std::map<std::string, cdr::Any> scalars,
                                      const ClientPreferences* prefs) {
  const orb::ObjRef& ref = stub.ref();
  // Offer -> (counter -> accept)*: a fixed-capacity server counters at
  // most once (its best feasible point is feasible next round), and every
  // further counter is strictly lower in the lattice, so dimensions+1
  // rounds always suffice.
  const std::size_t max_rounds =
      std::max<std::size_t>(2, offer.dimensions().size() + 1);
  std::string phase = "offer";
  NegotiationResult result;
  for (std::size_t round = 0; round < max_rounds; ++round) {
    std::vector<cdr::Any> args{cdr::Any::from_string(characteristic),
                               cdr::Any::from_string(ref.object_key),
                               cdr::Any::from_string(phase),
                               offer.to_any()};
    for (cdr::Any& any : encode_params(scalars)) {
      args.push_back(std::move(any));
    }
    result = parse_result(
        orb::send_command(stub.orb(), ref.endpoint,
                          NegotiationService::command_target(), "negotiate",
                          args));
    if (result.kind == "accepted") {
      Agreement agreement;
      agreement.id = result.agreement_id;
      agreement.characteristic = characteristic;
      agreement.object_key = ref.object_key;
      agreement.client = stub.orb().endpoint().to_string();
      agreement.params = std::move(result.params);
      agreement.matrix = std::move(result.matrix);
      agreement.state = AgreementState::kActive;
      apply_client_binding(stub, agreement);
      return agreement;
    }
    if (result.kind != "counter") {
      throw NegotiationFailed("negotiation rejected for " + characteristic +
                              ": " + result.kind);
    }
    if (prefs != nullptr && !prefs->acceptable(result.params)) {
      throw NegotiationFailed(
          "negotiation: counter-offer outside client preferences for " +
          characteristic);
    }
    // Confirmation round at the server's counter point.
    scalars = scalars_of(result.params, result.matrix);
    offer = std::move(result.matrix);
    phase = "accept";
  }
  throw NegotiationFailed("negotiation for " + characteristic +
                          " did not converge");
}

Agreement Negotiator::renegotiate(
    orb::StubBase& stub, const Agreement& agreement,
    const std::map<std::string, cdr::Any>& params) {
  CapabilityMatrix offer = agreement.matrix;
  std::map<std::string, cdr::Any> scalars =
      scalars_of(agreement.params, offer);
  for (const auto& [name, value] : params) {
    if (offer.find_dimension(name) != CapabilityMatrix::npos) {
      if (!offer.choose(name, value)) {
        throw NegotiationFailed("renegotiation: value is not in dimension '" +
                                name + "' of " + agreement.characteristic);
      }
    } else {
      scalars[name] = value;
    }
  }
  std::vector<cdr::Any> args{
      cdr::Any::from_longlong(static_cast<std::int64_t>(agreement.id)),
      cdr::Any::from_longlong(agreement.matrix.version()), offer.to_any()};
  for (cdr::Any& any : encode_params(scalars)) args.push_back(std::move(any));
  NegotiationResult result = parse_result(orb::send_command(
      stub.orb(), stub.ref().endpoint, NegotiationService::command_target(),
      "renegotiate", args));
  if (result.kind != "accepted") {
    throw NegotiationFailed("renegotiation rejected for agreement " +
                            std::to_string(agreement.id) + ": " +
                            result.kind);
  }
  Agreement updated = agreement;
  updated.params = std::move(result.params);
  updated.matrix = std::move(result.matrix);
  updated.state = AgreementState::kActive;
  // Rebind the installed mediator at the new point through the composite
  // so the woven channel version redistributes across every member.
  if (auto composite =
          std::dynamic_pointer_cast<CompositeMediator>(stub.mediator())) {
    composite->rebind(agreement.characteristic, updated);
  }
  // Module-based mechanisms re-arm through the provider's setup hook so
  // an agreed algorithm/key change reaches both transports.
  const CharacteristicProvider* provider =
      providers_.find(agreement.characteristic);
  if (provider != nullptr && provider->client_setup) {
    provider->client_setup(updated, stub.ref(), stub.orb(), transport_);
  }
  return updated;
}

void Negotiator::terminate(orb::StubBase& stub, const Agreement& agreement) {
  orb::send_command(
      stub.orb(), stub.ref().endpoint, NegotiationService::command_target(),
      "terminate",
      {cdr::Any::from_longlong(static_cast<std::int64_t>(agreement.id))});
  if (auto composite =
          std::dynamic_pointer_cast<CompositeMediator>(stub.mediator())) {
    composite->remove(agreement.characteristic);
  }
  const CharacteristicProvider* provider =
      providers_.find(agreement.characteristic);
  if (provider != nullptr && !provider->module.empty()) {
    transport_.unassign(agreement.object_key);
  }
}

void Negotiator::apply_client_binding(orb::StubBase& stub,
                                      const Agreement& agreement) {
  const CharacteristicProvider& provider =
      providers_.get(agreement.characteristic);
  if (provider.make_mediator) {
    std::shared_ptr<Mediator> mediator =
        provider.make_mediator(agreement, stub.orb(), transport_);
    mediator->bind_agreement(agreement);
    std::shared_ptr<CompositeMediator> composite =
        std::dynamic_pointer_cast<CompositeMediator>(stub.mediator());
    if (!composite) {
      if (stub.mediator()) {
        throw QosError(
            "negotiator: stub already carries a non-composite mediator");
      }
      composite = std::make_shared<CompositeMediator>();
      stub.set_mediator(composite);
    }
    composite->remove(agreement.characteristic);
    composite->add(std::move(mediator));
  }
  if (!provider.module.empty()) {
    transport_.assign(agreement.object_key, provider.module);
  }
  if (provider.client_setup) {
    provider.client_setup(agreement, stub.ref(), stub.orb(), transport_);
  }
}

}  // namespace maqs::core
