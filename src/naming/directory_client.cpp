#include "naming/directory_client.hpp"

#include <utility>

#include "cdr/decoder.hpp"
#include "cdr/encoder.hpp"
#include "util/log.hpp"

namespace maqs::naming {

namespace {

void write_profile(cdr::Encoder& enc, const orb::AltProfile& profile) {
  enc.write_string(profile.endpoint.node);
  enc.write_u16(profile.endpoint.port);
  enc.write_string(profile.object_key);
}

}  // namespace

orb::ReplyMessage DirectoryClient::call(const std::string& operation,
                                        util::Bytes args) {
  orb::RequestMessage req;
  req.object_key = directory_object_key();
  req.operation = operation;
  req.body = std::move(args);
  return orb_.invoke_plain(directory_, std::move(req));
}

std::optional<ServiceView> DirectoryClient::lookup(
    const std::string& service) {
  cdr::Encoder args = cdr::Encoder::pooled();
  args.write_string(service);
  orb::ReplyMessage rep = call("lookup", args.take());
  if (rep.status != orb::ReplyStatus::kOk) return std::nullopt;
  cdr::Decoder result(std::move(rep.body));
  ServiceView view;
  view.ref = orb::ObjRef::decode(result.read_bytes());
  const std::uint32_t n = result.read_count();
  view.loads.reserve(n);
  view.epochs.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    view.loads.push_back(result.read_f64());
    view.epochs.push_back(result.read_u64());
  }
  result.expect_end();
  if (view.ref.is_nil()) return std::nullopt;
  return view;
}

bool DirectoryClient::register_member(const std::string& service,
                                      const std::string& repo_id,
                                      const orb::AltProfile& profile,
                                      double load, std::uint64_t epoch) {
  cdr::Encoder args = cdr::Encoder::pooled();
  args.write_string(service);
  args.write_string(repo_id);
  write_profile(args, profile);
  args.write_f64(load);
  args.write_u64(epoch);
  orb::ReplyMessage rep = call("register", args.take());
  if (rep.status != orb::ReplyStatus::kOk) return false;
  cdr::Decoder result(std::move(rep.body));
  const bool accepted = result.read_bool();
  result.expect_end();
  return accepted;
}

bool DirectoryClient::heartbeat(const std::string& service,
                                const orb::AltProfile& profile, double load,
                                std::uint64_t epoch) {
  cdr::Encoder args = cdr::Encoder::pooled();
  args.write_string(service);
  write_profile(args, profile);
  args.write_f64(load);
  args.write_u64(epoch);
  orb::ReplyMessage rep = call("heartbeat", args.take());
  if (rep.status != orb::ReplyStatus::kOk) return false;
  cdr::Decoder result(std::move(rep.body));
  const bool known = result.read_bool();
  result.expect_end();
  return known;
}

void DirectoryClient::deregister(const std::string& service,
                                 const orb::AltProfile& profile) {
  cdr::Encoder args = cdr::Encoder::pooled();
  args.write_string(service);
  write_profile(args, profile);
  call("deregister", args.take());
}

HeartbeatAgent::HeartbeatAgent(orb::Orb& orb, net::Address directory_endpoint,
                               Config config)
    : orb_(orb),
      directory_(std::move(directory_endpoint)),
      config_(std::move(config)),
      profile_{orb.endpoint(), config_.object_key} {}

void HeartbeatAgent::start() {
  if (running()) return;
  send_register();
  timer_ = orb_.loop().schedule(config_.period, [this] { beat(); });
}

void HeartbeatAgent::stop() {
  if (timer_ != 0) {
    orb_.loop().cancel(timer_);
    timer_ = 0;
  }
  if (inflight_register_ != 0) {
    orb_.cancel_request(inflight_register_);
    inflight_register_ = 0;
  }
  if (inflight_beat_ != 0) {
    orb_.cancel_request(inflight_beat_);
    inflight_beat_ = 0;
  }
}

void HeartbeatAgent::send_register() {
  cdr::Encoder args = cdr::Encoder::pooled();
  args.write_string(config_.service);
  args.write_string(orb_.adapter().reference(config_.object_key).repo_id);
  args.write_string(profile_.endpoint.node);
  args.write_u16(profile_.endpoint.port);
  args.write_string(profile_.object_key);
  args.write_f64(sample_load());
  args.write_u64(sample_epoch());
  orb::RequestMessage req;
  req.object_key = directory_object_key();
  req.operation = "register";
  req.body = args.take();
  // Fire-and-forget: a lost register is repaired by the next beat's
  // "unknown" answer, so the reply only clears the in-flight marker.
  inflight_register_ = orb_.send_request(
      directory_, std::move(req),
      [this](orb::ReplyMessage) { inflight_register_ = 0; }, config_.period);
}

void HeartbeatAgent::beat() {
  timer_ = 0;
  cdr::Encoder args = cdr::Encoder::pooled();
  args.write_string(config_.service);
  args.write_string(profile_.endpoint.node);
  args.write_u16(profile_.endpoint.port);
  args.write_string(profile_.object_key);
  args.write_f64(sample_load());
  args.write_u64(sample_epoch());
  orb::RequestMessage req;
  req.object_key = directory_object_key();
  req.operation = "heartbeat";
  req.body = args.take();
  ++stats_.beats_sent;
  inflight_beat_ = orb_.send_request(
      directory_, std::move(req),
      [this](orb::ReplyMessage rep) {
        inflight_beat_ = 0;
        if (rep.status != orb::ReplyStatus::kOk) return;
        cdr::Decoder result(std::move(rep.body));
        const bool known = result.read_bool();
        if (!known) {
          ++stats_.reregisters;
          MAQS_INFO() << "heartbeat: " << config_.service
                      << " unknown at directory, re-registering";
          send_register();
        }
      },
      config_.period);
  timer_ = orb_.loop().schedule(config_.period, [this] { beat(); });
}

}  // namespace maqs::naming
