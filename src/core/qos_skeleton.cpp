#include "core/qos_skeleton.hpp"

#include <utility>

#include "trace/trace.hpp"
#include "util/buffer_pool.hpp"

namespace maqs::core {

StateAccess* QosServerContext::state_access() {
  return host_.state_access();
}

void QosServantBase::assign_characteristic(
    const CharacteristicDescriptor& descriptor) {
  if (assigned_.contains(descriptor.name())) {
    throw QosError("qos skeleton: characteristic '" + descriptor.name() +
                   "' already assigned");
  }
  // QoS operation names must be unambiguous across assigned
  // characteristics: the dispatch has to attribute each op to exactly one
  // owner (this mirrors the paper's conflict avoidance, §3.2). Validate
  // against a copy so a rejected assignment leaves earlier ones intact.
  std::map<std::string, std::string> updated = qos_ops_;
  for (const QosOpDesc& op : descriptor.operations()) {
    auto [it, inserted] = updated.emplace(op.name, descriptor.name());
    if (!inserted) {
      throw QosError("qos skeleton: QoS operation '" + op.name +
                     "' clashes between '" + it->second + "' and '" +
                     descriptor.name() + "'");
    }
  }
  qos_ops_ = std::move(updated);
  assigned_.emplace(descriptor.name(), descriptor);
}

bool QosServantBase::is_assigned(const std::string& characteristic) const {
  return assigned_.contains(characteristic);
}

std::vector<std::string> QosServantBase::assigned_characteristics() const {
  std::vector<std::string> out;
  out.reserve(assigned_.size());
  for (const auto& [name, _] : assigned_) out.push_back(name);
  return out;
}

void QosServantBase::install_impl(std::shared_ptr<QosImpl> impl) {
  if (!impl) throw QosError("qos skeleton: install_impl(nullptr)");
  if (!assigned_.contains(impl->characteristic())) {
    throw QosError("qos skeleton: characteristic '" +
                   impl->characteristic() + "' is not assigned");
  }
  remove_impl(impl->characteristic());
  if (!impl_ctx_) impl_ctx_ = std::make_unique<QosServerContext>(*this);
  impl->attach(*impl_ctx_);
  delegates_.add(std::move(impl));
}

void QosServantBase::remove_impl(const std::string& characteristic) {
  if (std::shared_ptr<QosImpl> removed = delegates_.remove(characteristic)) {
    removed->detach();
  }
}

void QosServantBase::clear_impls() {
  for (const auto& impl : delegates_.members()) impl->detach();
  delegates_.clear();
}

void QosServantBase::set_active_impl(std::shared_ptr<QosImpl> impl) {
  clear_impls();
  if (impl) install_impl(std::move(impl));
}

const std::shared_ptr<QosImpl>& QosServantBase::active_impl() const {
  static const std::shared_ptr<QosImpl> kNone;
  return delegates_.empty() ? kNone : delegates_.members().back();
}

void QosServantBase::dispatch(const std::string& operation,
                              cdr::Decoder& args, cdr::Encoder& out,
                              orb::ServerContext& ctx) {
  // QoS operation? Only negotiated characteristics' are processed; the
  // rest of the assigned set raises the exception (Fig. 2).
  auto it = qos_ops_.find(operation);
  if (it != qos_ops_.end()) {
    if (std::shared_ptr<QosImpl> owner = impl_for(it->second)) {
      owner->dispatch_qos_op(operation, args, out, ctx);
      return;
    }
    throw orb::NotNegotiated("qos skeleton: operation '" + operation +
                             "' belongs to characteristic '" + it->second +
                             "', which is not negotiated");
  }
  // Application operation: Fig. 2's weave. Prologs run in installation
  // order; the fused argument transforms in reverse installation order (the
  // client's mediator chain applied them in installation order, so the
  // last one is outermost on the wire); then the application; the result
  // transforms in installation order (so the client chain can peel them
  // back); epilogs reversed. An exception from any step skips every step
  // after it and propagates to the adapter's reply mapping.
  if (delegates_.empty()) {
    trace::SpanScope app_span("skeleton.app", operation);
    dispatch_app(operation, args, out, ctx);
    return;
  }
  const auto& impls = delegates_.members();
  auto& pool = util::BufferPool::instance();
  const util::BytesView raw_args = args.read_remaining_view();
  util::Bytes body = pool.acquire(raw_args.size());
  body.assign(raw_args.begin(), raw_args.end());
  for (const auto& impl : impls) {
    trace::SpanScope span("skeleton.prolog", impl->characteristic());
    impl->prolog(ctx);
  }
  const std::uint64_t request_id = ctx.request().request_id;
  delegates_.fused().run_reverse(body, {request_id, false});
  // Replies are usually the same order of size as the (restored)
  // arguments; a recycled buffer at that size encodes most results
  // without any allocation.
  cdr::Encoder app_out(pool.acquire(body.size() + 32));
  {
    cdr::Decoder transformed_args{util::BytesView(body)};
    trace::SpanScope app_span("skeleton.app", operation);
    dispatch_app(operation, transformed_args, app_out, ctx);
  }
  util::Bytes result = app_out.take();
  delegates_.fused().run_forward(result, {request_id, true});
  for (auto impl = impls.rbegin(); impl != impls.rend(); ++impl) {
    trace::SpanScope span("skeleton.epilog", (*impl)->characteristic());
    (*impl)->epilog(ctx);
  }
  out.write_raw(result);
  pool.release(std::move(body));
  pool.release(std::move(result));
}

WovenServant::WovenServant(std::shared_ptr<orb::Servant> inner)
    : inner_(std::move(inner)) {
  if (!inner_) throw QosError("woven servant: null inner servant");
}

StateAccess* WovenServant::state_access() {
  return dynamic_cast<StateAccess*>(inner_.get());
}

void WovenServant::dispatch_app(const std::string& operation,
                                cdr::Decoder& args, cdr::Encoder& out,
                                orb::ServerContext& ctx) {
  inner_->dispatch(operation, args, out, ctx);
}

}  // namespace maqs::core
