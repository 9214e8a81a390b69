// Server-side programming model: servants and dispatch context.
#pragma once

#include <string>

#include "cdr/decoder.hpp"
#include "cdr/encoder.hpp"
#include "orb/message.hpp"

namespace maqs::orb {

/// Per-invocation server-side context. QoS skeletons use it to read the
/// request's service context (negotiated agreement id, payload tags) and to
/// attach reply context entries (timestamps, monitoring samples).
class ServerContext {
 public:
  ServerContext(const RequestMessage& request, ServiceContext& reply_context)
      : request_(request), reply_context_(reply_context) {}

  const RequestMessage& request() const noexcept { return request_; }

  /// Mutable reply service context.
  ServiceContext& reply_context() noexcept { return reply_context_; }

 private:
  const RequestMessage& request_;
  ServiceContext& reply_context_;
};

/// Base of all skeletons. Generated (or generated-style) skeletons decode
/// arguments, call the implementation and encode results; infrastructure
/// errors are reported by throwing the exceptions in orb/exceptions.hpp.
class Servant {
 public:
  virtual ~Servant() = default;

  /// Repository id of the most-derived interface.
  virtual const std::string& repo_id() const = 0;

  /// Dispatches one operation. `args` holds the CDR argument stream; the
  /// result (if any) is encoded into `out`. Throws BadOperation for unknown
  /// operations.
  virtual void dispatch(const std::string& operation, cdr::Decoder& args,
                        cdr::Encoder& out, ServerContext& ctx) = 0;
};

}  // namespace maqs::orb
