#include "core/qos_skeleton.hpp"

#include <utility>

#include "trace/trace.hpp"
#include "util/buffer_pool.hpp"

namespace maqs::core {

namespace {

// The Fig. 2 prolog/epilog bracket of one installed delegate, as a stage on
// the skeleton's server chain. Spans are scoped to the hook body (siblings,
// not parents of the stages below) so the trace tree matches the woven
// loop it replaces.
class PrologEpilogStage final : public orb::ServerInterceptor {
 public:
  explicit PrologEpilogStage(std::shared_ptr<QosImpl> impl)
      : impl_(std::move(impl)) {}
  const char* name() const noexcept override { return "skeleton.prolog_epilog"; }

  void receive_request(orb::ServerRequestInfo& info) override {
    trace::SpanScope span("skeleton.prolog", impl_->characteristic());
    impl_->prolog(*info.ctx);
  }

  void send_reply(orb::ServerRequestInfo& info) override {
    trace::SpanScope span("skeleton.epilog", impl_->characteristic());
    impl_->epilog(*info.ctx);
  }

 private:
  std::shared_ptr<QosImpl> impl_;
};

// The payload stages of every installed delegate, fused into one chain in
// the transform band: reversed (arguments restored) on the way in, in
// installation order (results transformed) on the way out, with one span
// per characteristic.
class FusedTransformStage final : public orb::ServerInterceptor {
 public:
  FusedTransformStage()
      : chain_("skeleton.transform_result", "skeleton.transform_args") {}
  const char* name() const noexcept override { return "skeleton.transform"; }

  TransformChain& chain() noexcept { return chain_; }

  void receive_request(orb::ServerRequestInfo& info) override {
    chain_.run_reverse(info.request->body,
                       {info.request->request_id, false});
  }

  void send_reply(orb::ServerRequestInfo& info) override {
    chain_.run_forward(info.reply.body, {info.request->request_id, true});
  }

 private:
  TransformChain chain_;
};

}  // namespace

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
  impls_.push_back(std::move(impl));
  rebuild_stage_chain();
  distribute_channel_version();
}

void QosServantBase::remove_impl(const std::string& characteristic) {
  for (auto it = impls_.begin(); it != impls_.end(); ++it) {
    if ((*it)->characteristic() == characteristic) {
      (*it)->detach();
      impls_.erase(it);
      rebuild_stage_chain();
      distribute_channel_version();
      return;
    }
  }
}

void QosServantBase::distribute_channel_version() {
  // A lone delegate (or none) keeps standalone semantics: its mechanism
  // material stays versioned by its own agreement.
  if (impls_.size() < 2) {
    for (const auto& impl : impls_) impl->set_channel_version(-1);
    return;
  }
  std::int64_t sum = 0;
  for (const auto& impl : impls_) sum += impl->agreement().version();
  for (const auto& impl : impls_) {
    // Hand-built delegates (version 0) never joined a negotiation; leave
    // their bindings alone so legacy frames stay byte-identical.
    if (impl->agreement().version() <= 0) continue;
    if (impl->channel_version() == sum) continue;
    impl->set_channel_version(sum);
    // Re-register the delegate's versioned material (codec binding, key
    // epoch) under the channel version. Copy first: bind_agreement
    // overwrites the delegate's stored agreement.
    const Agreement bound = impl->agreement();
    impl->bind_agreement(bound);
  }
}

bool QosServantBase::rebind_impl(const std::string& characteristic,
                                 const Agreement& agreement) {
  const std::shared_ptr<QosImpl> delegate = impl_for(characteristic);
  if (!delegate) return false;
  if (impls_.size() >= 2 && agreement.version() > 0) {
    // Bump the channel before binding so the delegate registers its new
    // material under the NEW epoch instead of overwriting the binding
    // in-flight frames of the current epoch still need.
    std::int64_t sum = agreement.version();
    for (const auto& impl : impls_) {
      if (impl != delegate) sum += impl->agreement().version();
    }
    delegate->set_channel_version(sum);
  }
  delegate->bind_agreement(agreement);
  distribute_channel_version();
  return true;
}

void QosServantBase::clear_impls() {
  for (auto& impl : impls_) impl->detach();
  impls_.clear();
  rebuild_stage_chain();
}

void QosServantBase::rebuild_stage_chain() {
  stage_chain_ = orb::ServerChain{};
  stages_.clear();
  // Band layout encodes the paper's nesting: prologs run in installation
  // order (ascending prolog band) and epilogs reversed on the unwind; the
  // one transform stage sits below them all, so arguments are restored
  // after every prolog and results transformed before every epilog.
  const int n = static_cast<int>(impls_.size());
  auto transform = std::make_unique<FusedTransformStage>();
  for (int i = 0; i < n; ++i) {
    stages_.push_back(std::make_unique<PrologEpilogStage>(impls_[i]));
    stage_chain_.add(stages_.back().get(),
                     orb::priorities::kSkeletonPrologBase + i);
    if (StreamingTransform* stage = impls_[i]->streaming_transform()) {
      transform->chain().add(stage);
    }
  }
  if (!transform->chain().empty()) {
    stage_chain_.add(transform.get(), orb::priorities::kSkeletonTransformBase);
    stages_.push_back(std::move(transform));
  }
}

void QosServantBase::set_active_impl(std::shared_ptr<QosImpl> impl) {
  clear_impls();
  if (impl) install_impl(std::move(impl));
}

const std::shared_ptr<QosImpl>& QosServantBase::active_impl() const {
  static const std::shared_ptr<QosImpl> kNone;
  return impls_.empty() ? kNone : impls_.back();
}

std::shared_ptr<QosImpl> QosServantBase::impl_for(
    const std::string& characteristic) const {
  for (const auto& impl : impls_) {
    if (impl->characteristic() == characteristic) return impl;
  }
  return nullptr;
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
  // Application operation: the woven stage chain. Walk order (ascending
  // priority) runs prologs in installation order, then the fused argument
  // transforms in reverse installation order (the client's mediator chain
  // applied them in installation order, so the last one is outermost on
  // the wire), then the application terminal; the unwind applies result
  // transforms in installation order (so the client chain can peel them
  // back) and epilogs reversed. An exception from any stage skips the
  // unwind hooks below it and propagates to the adapter's reply mapping.
  if (impls_.empty()) {
    trace::SpanScope app_span("skeleton.app", operation);
    dispatch_app(operation, args, out, ctx);
    return;
  }
  auto& pool = util::BufferPool::instance();
  const util::BytesView raw_args = args.read_remaining_view();
  orb::RequestMessage staged;
  staged.request_id = ctx.request().request_id;
  staged.operation = operation;
  staged.body = pool.acquire(raw_args.size());
  staged.body.assign(raw_args.begin(), raw_args.end());
  orb::ServerRequestInfo info;
  info.from = &ctx.client();
  info.request = &staged;
  info.ctx = &ctx;
  orb::walk_server_chain(
      stage_chain_, 0, info,
      [this, &operation, &pool](orb::ServerRequestInfo& i) {
        cdr::Decoder transformed_args{util::BytesView(i.request->body)};
        // Replies are usually the same order of size as the (restored)
        // arguments; a recycled buffer at that size encodes most results
        // without any allocation.
        cdr::Encoder app_out(pool.acquire(i.request->body.size() + 32));
        {
          trace::SpanScope app_span("skeleton.app", operation);
          dispatch_app(operation, transformed_args, app_out, *i.ctx);
        }
        i.reply.body = app_out.take();
      });
  out.write_raw(info.reply.body);
  pool.release(std::move(staged.body));
  pool.release(std::move(info.reply.body));
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
