#include "core/qos_transport.hpp"

#include "core/characteristic.hpp"
#include "orb/dii.hpp"
#include "trace/trace.hpp"
#include "util/log.hpp"

namespace maqs::core {

// ---- QosModule defaults ----

orb::ReplyMessage QosModule::invoke(orb::RequestMessage req,
                                    const net::Address& dest) {
  req.context[kModuleContextKey] = util::to_bytes(name_);
  transform_request(req);
  orb::ReplyMessage rep = context().orb().invoke_plain(dest, std::move(req));
  restore_reply(rep);
  return rep;
}

cdr::Any QosModule::command(const std::string& op,
                            const std::vector<cdr::Any>& args) {
  (void)args;
  throw QosError("module " + name_ + ": unknown command '" + op + "'");
}

ModuleContext& QosModule::context() {
  if (ctx_ == nullptr) {
    throw QosError("module " + name_ + ": not started");
  }
  return *ctx_;
}

// ---- ModuleFactoryRegistry ----

ModuleFactoryRegistry& ModuleFactoryRegistry::instance() {
  static ModuleFactoryRegistry registry;
  return registry;
}

void ModuleFactoryRegistry::register_factory(const std::string& name,
                                             Factory factory) {
  if (!factory) throw QosError("module registry: null factory for " + name);
  auto [_, inserted] = factories_.emplace(name, std::move(factory));
  if (!inserted) {
    throw QosError("module registry: duplicate factory '" + name + "'");
  }
}

bool ModuleFactoryRegistry::contains(const std::string& name) const {
  return factories_.contains(name);
}

std::unique_ptr<QosModule> ModuleFactoryRegistry::create(
    const std::string& name) const {
  auto it = factories_.find(name);
  if (it == factories_.end()) {
    throw QosError("module registry: no factory for '" + name + "'");
  }
  std::unique_ptr<QosModule> module = it->second();
  if (!module || module->name() != name) {
    throw QosError("module registry: factory for '" + name +
                   "' produced a mismatched module");
  }
  return module;
}

std::vector<std::string> ModuleFactoryRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(factories_.size());
  for (const auto& [name, _] : factories_) out.push_back(name);
  return out;
}

void ModuleFactoryRegistry::unregister(const std::string& name) {
  factories_.erase(name);
}

// ---- transport pseudo-object ----

namespace {

/// The static interface "modelled as a pseudo object and therefore can be
/// accessed like any other object" (§4): a plain servant delegating to
/// the transport's administration API.
class TransportPseudoServant final : public orb::Servant {
 public:
  explicit TransportPseudoServant(QosTransport& transport)
      : transport_(transport) {}

  const std::string& repo_id() const override {
    static const std::string kId = "IDL:maqs/QosTransport:1.0";
    return kId;
  }

  void dispatch(const std::string& operation, cdr::Decoder& args,
                cdr::Encoder& out, orb::ServerContext& ctx) override {
    (void)ctx;
    if (operation == "load_module") {
      const std::string name = args.read_string();
      args.expect_end();
      transport_.load_module(name);
    } else if (operation == "unload_module") {
      const std::string name = args.read_string();
      args.expect_end();
      transport_.unload_module(name);
    } else if (operation == "list_modules") {
      args.expect_end();
      const auto names = transport_.loaded_modules();
      out.write_u32(static_cast<std::uint32_t>(names.size()));
      for (const auto& name : names) out.write_string(name);
    } else if (operation == "is_loaded") {
      const std::string name = args.read_string();
      args.expect_end();
      out.write_bool(transport_.is_loaded(name));
    } else {
      throw orb::BadOperation("QosTransport: unknown operation " + operation);
    }
  }

 private:
  QosTransport& transport_;
};

}  // namespace

// ---- QosTransport ----

const std::string& QosTransport::pseudo_object_key() {
  static const std::string kKey = "maqs/qos-transport";
  return kKey;
}

QosTransport::QosTransport(orb::Orb& orb) : orb_(orb), context_(orb, *this) {
  orb_.set_router(this);
  orb_.adapter().activate(pseudo_object_key(),
                          std::make_shared<TransportPseudoServant>(*this));
}

QosTransport::~QosTransport() {
  for (auto& [_, module] : modules_) module->stop();
  orb_.adapter().deactivate(pseudo_object_key());
  orb_.set_router(nullptr);
}

QosModule& QosTransport::load_module(const std::string& name) {
  auto it = modules_.find(name);
  if (it != modules_.end()) return *it->second;
  std::unique_ptr<QosModule> module =
      ModuleFactoryRegistry::instance().create(name);
  module->start(context_);
  ++stats_.modules_loaded;
  auto [inserted_it, _] = modules_.emplace(name, std::move(module));
  MAQS_DEBUG() << "qos-transport " << orb_.endpoint().to_string()
               << ": loaded module " << name;
  return *inserted_it->second;
}

void QosTransport::unload_module(const std::string& name) {
  auto it = modules_.find(name);
  if (it == modules_.end()) return;
  it->second->stop();
  modules_.erase(it);
  std::erase_if(assignments_, [&](const auto& entry) {
    if (entry.second != name) return false;
    health_.erase(entry.first);
    return true;
  });
}

void QosTransport::crash_module(const std::string& name) {
  auto it = modules_.find(name);
  if (it == modules_.end()) return;
  it->second->stop();
  modules_.erase(it);
}

QosModule* QosTransport::find_module(std::string_view name) {
  auto it = modules_.find(name);
  return it != modules_.end() ? it->second.get() : nullptr;
}

bool QosTransport::is_loaded(const std::string& name) const {
  return modules_.contains(name);
}

std::vector<std::string> QosTransport::loaded_modules() const {
  std::vector<std::string> out;
  out.reserve(modules_.size());
  for (const auto& [name, _] : modules_) out.push_back(name);
  return out;
}

void QosTransport::assign(const std::string& object_key,
                          const std::string& module) {
  load_module(module);
  assignments_[object_key] = module;
  // A (re)assignment is a fresh contract: forget the old failure streak
  // and lift any quarantine so the new binding gets a clean start.
  health_.erase(object_key);
}

void QosTransport::unassign(const std::string& object_key) {
  assignments_.erase(object_key);
  health_.erase(object_key);
}

std::optional<std::string> QosTransport::assignment(
    const std::string& object_key) const {
  auto it = assignments_.find(object_key);
  if (it == assignments_.end()) return std::nullopt;
  return it->second;
}

orb::ReplyMessage QosTransport::route(const net::Address& dest,
                                      orb::RequestMessage req) {
  auto it = assignments_.find(req.object_key);
  if (it != assignments_.end()) {
    if (degradation_.has_value() && quarantined_now(req.object_key)) {
      // Graceful degradation: the assigned mechanism keeps failing, so
      // traffic takes the plain path until the quarantine lifts (or the
      // adaptation engine renegotiates the agreement).
      ++stats_.requests_degraded;
      trace::SpanScope span("transport.degraded", it->second);
      return orb_.invoke_plain(dest, std::move(req));
    }
    QosModule* module = find_module(it->second);
    if (module != nullptr) {
      if (!degradation_.has_value()) {
        ++stats_.requests_via_module;
        trace::SpanScope span("transport.module", it->second);
        return module->invoke(std::move(req), dest);
      }
      // Failure tracking needs the pristine request for the plain-path
      // fallback: the module may have partially transformed (or consumed)
      // `req` before throwing. One copy, only while degradation is on.
      // A request whose module attempt fails counts as degraded, not as
      // via_module — each request lands in exactly one counter.
      orb::RequestMessage pristine = req;
      try {
        trace::SpanScope span("transport.module", it->second);
        orb::ReplyMessage rep = module->invoke(std::move(req), dest);
        health_.erase(pristine.object_key);
        ++stats_.requests_via_module;
        return rep;
      } catch (const Error& e) {
        trace::note_error(e.what());
        on_module_failure(pristine.object_key, it->second, e.what());
        ++stats_.requests_degraded;
        trace::SpanScope fallback("transport.degraded", it->second);
        return orb_.invoke_plain(dest, std::move(pristine));
      }
    }
    // An *assigned* module missing from the table is a broken binding —
    // not the deliberate unassigned fallback below. Count it apart so it
    // cannot hide in fallback noise.
    ++stats_.requests_module_missing;
    MAQS_WARN() << "qos-transport " << orb_.endpoint().to_string()
                << ": assigned module '" << it->second << "' for "
                << req.object_key
                << " is not loaded; routing plain";
    trace::SpanScope span("transport.plain", it->second);
    return orb_.invoke_plain(dest, std::move(req));
  }
  // "If a QoS module is not assigned to a client server relationship the
  // GIOP/IIOP module is used" — the bootstrap path for negotiation and
  // QoS-to-QoS traffic.
  ++stats_.requests_fallback_plain;
  trace::SpanScope span("transport.plain");
  return orb_.invoke_plain(dest, std::move(req));
}

void QosTransport::set_degradation(std::optional<DegradationConfig> config) {
  degradation_ = config;
  health_.clear();
}

bool QosTransport::is_quarantined(const std::string& object_key) const {
  auto it = health_.find(object_key);
  return it != health_.end() && it->second.quarantined &&
         orb_.loop().now() < it->second.release_at;
}

bool QosTransport::quarantined_now(const std::string& object_key) {
  auto it = health_.find(object_key);
  if (it == health_.end() || !it->second.quarantined) return false;
  if (orb_.loop().now() < it->second.release_at) return true;
  // Quarantine expired: give the module a fresh (zero-streak) chance.
  health_.erase(it);
  return false;
}

void QosTransport::on_module_failure(const std::string& object_key,
                                     const std::string& module,
                                     const std::string& reason) {
  ModuleHealth& health = health_[object_key];
  ++health.consecutive_failures;
  if (health.quarantined ||
      health.consecutive_failures < degradation_->failure_threshold) {
    return;
  }
  health.quarantined = true;
  health.release_at = orb_.loop().now() + degradation_->quarantine_period;
  ++stats_.modules_quarantined;
  MAQS_WARN() << "qos-transport " << orb_.endpoint().to_string()
              << ": quarantining module '" << module << "' for "
              << object_key << " after " << health.consecutive_failures
              << " consecutive failures: " << reason;
  if (trace::tracing_active()) {
    trace::point("transport.quarantine", module + " for " + object_key);
  }
  if (degradation_handler_) {
    // Fresh tick: the handler renegotiates (nested pumping) and must not
    // run inside the failing invocation's stack.
    orb_.loop().schedule(
        0, [this, module, object_key, reason] {
          if (degradation_handler_) {
            degradation_handler_(module, object_key, reason);
          }
        });
  }
}

std::optional<orb::ReplyMessage> QosTransport::inbound(
    orb::RequestMessage& req, const net::Address& from) {
  if (req.kind == orb::RequestKind::kCommand) {
    // Module-command or transport-command ("Modul-Command" vs
    // "Transport-Command" in Fig. 3).
    trace::SpanScope span("transport.command", req.operation);
    try {
      const std::vector<cdr::Any> args = orb::decode_command_args(req.body);
      if (req.target_module.empty()) {
        ++stats_.commands_to_transport;
        return command_reply(req.request_id,
                             transport_command(req.operation, args));
      }
      if (auto handler = command_handlers_.find(req.target_module);
          handler != command_handlers_.end()) {
        ++stats_.commands_to_transport;
        return command_reply(req.request_id,
                             handler->second(req.operation, args, from));
      }
      ++stats_.commands_to_module;
      // Dynamic loading on request: a command addressed to an unloaded
      // module loads it first.
      QosModule& module = load_module(req.target_module);
      return command_reply(req.request_id, module.command(req.operation, args));
    } catch (const Error& e) {
      trace::note_error(e.what());
      return command_error(req.request_id, e.what());
    }
  }

  // QoS-aware service request: undo the peer module's payload transform.
  auto tag = req.context.find(kModuleContextKey);
  if (tag != req.context.end()) {
    // Probe the module table straight from the tag bytes; only the first
    // frame from a not-yet-loaded module pays a string allocation.
    const std::string_view module_name(
        reinterpret_cast<const char*>(tag->second.data()),
        tag->second.size());
    try {
      QosModule* module = find_module(module_name);
      if (module == nullptr) module = &load_module(std::string(module_name));
      module->restore_request(req);
      ++stats_.inbound_module_transforms;
    } catch (const Error& e) {
      trace::note_error(e.what());
      return command_error(req.request_id,
                           std::string("qos-transport inbound: ") + e.what());
    }
  }
  return std::nullopt;
}

void QosTransport::outbound(const orb::RequestMessage& req,
                            orb::ReplyMessage& rep) {
  auto tag = req.context.find(kModuleContextKey);
  if (tag == req.context.end()) return;
  const std::string_view module_name(
      reinterpret_cast<const char*>(tag->second.data()), tag->second.size());
  if (QosModule* module = find_module(module_name)) {
    module->transform_reply(req, rep);
  }
}

cdr::Any QosTransport::transport_command(const std::string& op,
                                         const std::vector<cdr::Any>& args) {
  auto string_arg = [&](std::size_t i) -> const std::string& {
    if (i >= args.size()) {
      throw QosError("transport command " + op + ": missing argument " +
                     std::to_string(i));
    }
    return args[i].as_string();
  };
  if (op == "ping") {
    return cdr::Any::from_string("pong");
  }
  if (op == "load_module") {
    load_module(string_arg(0));
    return cdr::Any::make_void();
  }
  if (op == "unload_module") {
    unload_module(string_arg(0));
    return cdr::Any::make_void();
  }
  if (op == "list_modules") {
    std::vector<cdr::Any> names;
    for (const auto& name : loaded_modules()) {
      names.push_back(cdr::Any::from_string(name));
    }
    return cdr::Any::from_sequence(cdr::TypeCode::string_tc(),
                                   std::move(names));
  }
  if (op == "assign") {
    assign(string_arg(0), string_arg(1));
    return cdr::Any::make_void();
  }
  if (op == "unassign") {
    unassign(string_arg(0));
    return cdr::Any::make_void();
  }
  throw QosError("qos-transport: unknown transport command '" + op + "'");
}

void QosTransport::set_command_handler(const std::string& target,
                                       CommandHandler handler) {
  if (handler) {
    command_handlers_[target] = std::move(handler);
  } else {
    command_handlers_.erase(target);
  }
}

orb::ReplyMessage QosTransport::command_reply(std::uint64_t request_id,
                                              const cdr::Any& result) {
  orb::ReplyMessage rep;
  rep.request_id = request_id;
  rep.status = orb::ReplyStatus::kOk;
  if (result.kind() != cdr::TCKind::kVoid) {
    cdr::Encoder enc;
    result.encode(enc);
    rep.body = enc.take();
  }
  return rep;
}

orb::ReplyMessage QosTransport::command_error(std::uint64_t request_id,
                                              const std::string& what) {
  orb::ReplyMessage rep;
  rep.request_id = request_id;
  rep.status = orb::ReplyStatus::kSystemException;
  rep.exception = what;
  return rep;
}

}  // namespace maqs::core
