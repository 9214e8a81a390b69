// Transport-layer QoS modules (paper §4, Fig. 3).
//
// "The QoS transport is an entity which administrates all QoS transport
// modules. Each QoS module offers a common static interface and a
// specific dynamic interface. The common interface allows the dynamic
// loading of QoS modules on request. [...] the dynamic interface is
// handled through the dynamic invocation interface."
//
// QosModule is the common static interface: lifecycle (start/stop on
// load/unload), the request-path hooks, and command() — the dynamic
// interface, reached via DII-built command requests whose arguments are
// self-describing Anys.
//
// The request-path hooks come in two granularities:
//   - payload transforms (transform_request / restore_request /
//     transform_reply / restore_reply): symmetric body rewrites such as
//     compression and encryption; the default invoke() drives them and
//     ships the frame over the plain path, stamping "qos.module" into the
//     service context so the peer transport finds the right module;
//   - full invoke() override: modules that change routing itself
//     (replica-group multicast, load distribution at transport level).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cdr/any.hpp"
#include "core/characteristic.hpp"
#include "orb/ior.hpp"
#include "orb/message.hpp"
#include "orb/orb.hpp"

namespace maqs::core {

class QosTransport;

/// Facilities handed to a module when it is loaded.
class ModuleContext {
 public:
  ModuleContext(orb::Orb& orb, QosTransport& transport)
      : orb_(orb), transport_(transport) {}

  orb::Orb& orb() noexcept { return orb_; }
  QosTransport& transport() noexcept { return transport_; }
  net::Network& network() noexcept { return orb_.network(); }

 private:
  orb::Orb& orb_;
  QosTransport& transport_;
};

/// Service-context key naming the module a frame was transformed by.
inline const std::string kModuleContextKey = "qos.module";

class QosModule {
 public:
  explicit QosModule(std::string name) : name_(std::move(name)) {}
  virtual ~QosModule() = default;

  const std::string& name() const noexcept { return name_; }

  // ---- static interface (lifecycle) ----
  virtual void start(ModuleContext& ctx) { ctx_ = &ctx; }
  virtual void stop() { ctx_ = nullptr; }

  // ---- request path ----

  /// Client side: deliver the request to `dest`, the endpoint of the
  /// profile it addresses, and produce the reply. The default applies
  /// transform_request, sends over the plain path and applies
  /// restore_reply on the way back.
  virtual orb::ReplyMessage invoke(orb::RequestMessage req,
                                   const net::Address& dest);

  /// Client outbound payload rewrite.
  virtual void transform_request(orb::RequestMessage& req) { (void)req; }
  /// Server inbound inverse of transform_request.
  virtual void restore_request(orb::RequestMessage& req) { (void)req; }
  /// Server outbound reply rewrite.
  virtual void transform_reply(const orb::RequestMessage& req,
                               orb::ReplyMessage& rep) {
    (void)req;
    (void)rep;
  }
  /// Client inbound inverse of transform_reply.
  virtual void restore_reply(orb::ReplyMessage& rep) { (void)rep; }

  // ---- dynamic interface (DII commands) ----
  virtual cdr::Any command(const std::string& op,
                           const std::vector<cdr::Any>& args);

 protected:
  /// Valid between start() and stop().
  ModuleContext& context();

 private:
  std::string name_;
  ModuleContext* ctx_ = nullptr;
};

/// Factory registry simulating dynamic loading: loading a module "on
/// request" instantiates it from its registered factory (the analogue of
/// dlopen'ing a module library).
class ModuleFactoryRegistry {
 public:
  using Factory = std::function<std::unique_ptr<QosModule>()>;

  static ModuleFactoryRegistry& instance();

  /// Throws QosError on duplicates.
  void register_factory(const std::string& name, Factory factory);
  bool contains(const std::string& name) const;
  /// Throws QosError for unknown names.
  std::unique_ptr<QosModule> create(const std::string& name) const;
  std::vector<std::string> names() const;
  /// Test hook.
  void unregister(const std::string& name);

 private:
  std::map<std::string, Factory> factories_;
};

}  // namespace maqs::core
