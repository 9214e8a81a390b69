#include "characteristics/loadbalancing.hpp"

namespace maqs::characteristics {

const std::string& loadbalancing_name() {
  static const std::string kName = "LoadBalancing";
  return kName;
}

core::CharacteristicDescriptor loadbalancing_descriptor() {
  return core::CharacteristicDescriptor(
      loadbalancing_name(), core::QosCategory::kPerformance,
      {
          core::ParamDesc{"replicas", cdr::TypeCode::string_tc(),
                          cdr::Any::from_string(""), {}, {}},
      },
      {
          core::QosOpDesc{"qos_load", core::QosOpKind::kMechanism},
      });
}

// ---- mediator ----

LoadBalancingMediator::LoadBalancingMediator()
    : core::Mediator(loadbalancing_name()) {}

void LoadBalancingMediator::bind_agreement(
    const core::Agreement& agreement) {
  core::Mediator::bind_agreement(agreement);
  const std::string group_ior = agreement.string_param("replicas");
  auto group = std::make_shared<const orb::ObjRef>(
      group_ior.empty() ? orb::ObjRef{} : orb::ObjRef::from_string(group_ior));
  group_ = group->is_nil() ? nullptr : std::move(group);
}

// ---- server impl ----

LoadReportingImpl::LoadReportingImpl()
    : core::QosImpl(loadbalancing_name()) {}

void LoadReportingImpl::prolog(orb::ServerContext& ctx) {
  (void)ctx;
  // Exponential decay toward the recent request rate.
  load_ = load_ * 0.9 + 1.0;
}

void LoadReportingImpl::epilog(orb::ServerContext& ctx) {
  (void)ctx;
  ++served_;
}

void LoadReportingImpl::dispatch_qos_op(const std::string& op,
                                        cdr::Decoder& args,
                                        cdr::Encoder& out,
                                        orb::ServerContext& ctx) {
  if (op == "qos_load") {
    args.expect_end();
    out.write_f64(load_);
    return;
  }
  core::QosImpl::dispatch_qos_op(op, args, out, ctx);
}

// ---- provider ----

core::CharacteristicProvider make_loadbalancing_provider() {
  core::CharacteristicProvider provider;
  provider.descriptor = loadbalancing_descriptor();
  provider.make_mediator = [](const core::Agreement&, orb::Orb&,
                              core::QosTransport&) {
    return std::make_shared<LoadBalancingMediator>();
  };
  provider.make_impl = [](const core::Agreement&, orb::Orb&,
                          core::QosTransport&) {
    return std::make_shared<LoadReportingImpl>();
  };
  provider.resource_demand = [](const std::map<std::string, cdr::Any>&) {
    return core::ResourceDemand{{"cpu", 1.0}};
  };
  return provider;
}

}  // namespace maqs::characteristics
