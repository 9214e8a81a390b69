#include "characteristics/encryption.hpp"

#include <algorithm>
#include <cstring>

#include "cdr/decoder.hpp"
#include "cdr/encoder.hpp"
#include "orb/dii.hpp"
#include "util/rng.hpp"

namespace maqs::characteristics {

namespace {

std::uint64_t key_fingerprint(const crypto::Key128& key) {
  return (static_cast<std::uint64_t>(key[0]) << 32 | key[1]) ^
         (static_cast<std::uint64_t>(key[2]) << 32 | key[3]);
}

void store_le64(std::uint8_t* p, std::uint64_t v) noexcept {
  for (int b = 0; b < 8; ++b) {
    p[b] = static_cast<std::uint8_t>(v >> (8 * b));
  }
}

constexpr std::uint64_t kReplyNonceFlip = 0x8000000000000001ULL;

std::uint64_t frame_nonce(const core::TransformContext& ctx) noexcept {
  return ctx.reply ? ctx.request_id ^ kReplyNonceFlip : ctx.request_id;
}

/// key_bits 64 keeps the XTEA frame format but masks the upper half of
/// the derived key — the degraded point trades key strength for cheaper
/// key management, not a different cipher.
crypto::Key128 masked_key(crypto::Key128 key, std::int64_t key_bits) {
  if (key_bits <= 64) {
    key[2] = 0;
    key[3] = 0;
  }
  return key;
}

core::ResourceDemand encryption_demand(
    const std::map<std::string, cdr::Any>& params) {
  std::int64_t bits = 128;
  if (auto it = params.find("key_bits"); it != params.end()) {
    bits = it->second.as_integer();
  }
  bool integrity = true;
  if (auto it = params.find("integrity"); it != params.end()) {
    integrity = it->second.as_bool();
  }
  core::ResourceDemand demand;
  demand["cpu"] = static_cast<double>(bits) / 16.0 + (integrity ? 2.0 : 0.0);
  return demand;
}

}  // namespace

const std::string& encryption_name() {
  static const std::string kName = "Encryption";
  return kName;
}

const std::string& encryption_module_name() {
  static const std::string kName = "encryption";
  return kName;
}

core::CharacteristicDescriptor encryption_descriptor() {
  return core::CharacteristicDescriptor(
      encryption_name(), core::QosCategory::kPrivacy,
      {
          core::ParamDesc{"psk", cdr::TypeCode::string_tc(),
                          cdr::Any::from_string(""), {}, {}},
      },
      {
          core::DimensionDesc{"key_bits",
                              {cdr::Any::from_long(128),
                               cdr::Any::from_long(64)},
                              1},
          core::DimensionDesc{"integrity",
                              {cdr::Any::from_bool(true),
                               cdr::Any::from_bool(false)},
                              2},
      },
      {
          core::QosOpDesc{"qos_cipher_info", core::QosOpKind::kMechanism},
      });
}

// ---- streaming stage ----

const std::string& EncryptionTransform::label() const {
  return encryption_name();
}

void EncryptionTransform::forward(core::ChainBuf& buf,
                                  const core::TransformContext& ctx) {
  const std::uint64_t nonce = frame_nonce(ctx);
  const std::int64_t epoch = source_->seal_epoch();
  const crypto::Key128& key = source_->key_for(epoch);
  if (buf.headroom() < 16) {
    // First stage over a borrowed body: move the payload into an arena
    // region once, with room for this header and all later ones.
    const std::size_t reserve = buf.reserve_front();
    const std::size_t n = buf.size();
    std::span<std::uint8_t> region = buf.arena().allocate(reserve + 16 + n);
    if (n != 0) {
      std::memcpy(region.data() + reserve + 16, buf.view().data(), n);
    }
    buf.adopt(region, reserve + 16, n);
  }
  const crypto::XteaCtr cipher(key, nonce);
  std::uint64_t tag = 0;
  if (source_->integrity_for(epoch)) {
    tag = cipher.seal(buf.mutable_span(), key_fingerprint(key));
  } else {
    cipher.apply_in_place(buf.mutable_span());
  }
  // [epoch:i64 LE][mac:u64 LE] — byte-identical to the legacy
  // cdr::Encoder-built frame header.
  std::uint8_t* hdr = buf.prepend(16);
  store_le64(hdr, static_cast<std::uint64_t>(epoch));
  store_le64(hdr + 8, tag);
}

void EncryptionTransform::reverse(core::ChainBuf& buf,
                                  const core::TransformContext& ctx) {
  const std::uint64_t nonce = frame_nonce(ctx);
  // Decode via cdr for error parity with the legacy open path on
  // truncated frames.
  cdr::Decoder dec(buf.view());
  const std::int64_t epoch = dec.read_i64();
  const std::uint64_t tag = dec.read_u64();
  buf.drop_front(16);
  const crypto::Key128& key = source_->key_for(epoch);
  const crypto::XteaCtr cipher(key, nonce);
  if (!source_->integrity_for(epoch)) {
    cipher.apply_in_place(buf.mutable_span());
  } else if (!cipher.open(buf.mutable_span(), key_fingerprint(key), tag)) {
    throw core::QosError("encryption: integrity check failed");
  }
  // Tell downstream reverse stages (the compression codec) which
  // agreement version sealed this frame.
  ctx.frame_version = epoch;
}

// ---- module (DH) ----

EncryptionModule::EncryptionModule()
    : core::QosModule(encryption_module_name()), stage_(*this) {
  chain_.add(&stage_);
}

std::int64_t EncryptionModule::seal_epoch() const {
  if (current_epoch_ < 0) {
    throw core::QosError("encryption: no key installed");
  }
  return current_epoch_;
}

const crypto::Key128& EncryptionModule::key_for(std::int64_t epoch) const {
  auto it = keys_.find(epoch);
  if (it == keys_.end()) {
    throw core::QosError("encryption: no key for epoch " +
                         std::to_string(epoch));
  }
  return it->second;
}

void EncryptionModule::transform_request(orb::RequestMessage& req) {
  chain_.run_forward(req.body, {req.request_id, false});
}

void EncryptionModule::restore_request(orb::RequestMessage& req) {
  chain_.run_reverse(req.body, {req.request_id, false});
}

void EncryptionModule::transform_reply(const orb::RequestMessage& req,
                                       orb::ReplyMessage& rep) {
  if (rep.status != orb::ReplyStatus::kOk) return;
  chain_.run_forward(rep.body, {req.request_id, true});
}

void EncryptionModule::restore_reply(orb::ReplyMessage& rep) {
  if (rep.status != orb::ReplyStatus::kOk) return;
  chain_.run_reverse(rep.body, {rep.request_id, true});
}

void EncryptionModule::install_key(std::int64_t epoch,
                                   util::BytesView secret) {
  keys_[epoch] = masked_key(crypto::derive_key(secret), key_bits_);
  if (epoch > current_epoch_) current_epoch_ = epoch;
}

void EncryptionModule::set_key_bits(std::int64_t bits) {
  if (bits != 128 && bits != 64) {
    throw core::QosError("encryption: key_bits must be 128 or 64");
  }
  key_bits_ = bits;
}

void EncryptionModule::set_current_epoch(std::int64_t epoch) {
  key_for(epoch);  // must exist
  current_epoch_ = epoch;
}

cdr::Any EncryptionModule::command(const std::string& op,
                                   const std::vector<cdr::Any>& args) {
  if (op == "dh_exchange") {
    if (args.size() < 2) {
      throw core::QosError("encryption: dh_exchange(epoch, peer_public)");
    }
    const std::int64_t epoch = args[0].as_integer();
    const auto peer_public =
        static_cast<std::uint64_t>(args[1].as_longlong());
    // Private exponent drawn from the module's seed, fresh per epoch.
    util::Rng rng(dh_private_seed_ ^ static_cast<std::uint64_t>(epoch));
    const crypto::DhGroup& group = crypto::default_group();
    crypto::DhParty party(group, 2 + rng.next_below(group.p - 4));
    install_key(epoch, party.shared_secret_bytes(peer_public));
    return cdr::Any::from_longlong(
        static_cast<std::int64_t>(party.public_value()));
  }
  if (op == "set_epoch") {
    if (args.empty()) throw core::QosError("encryption: set_epoch(epoch)");
    set_current_epoch(args[0].as_integer());
    return cdr::Any::make_void();
  }
  if (op == "set_integrity") {
    if (args.empty()) {
      throw core::QosError("encryption: set_integrity(bool)");
    }
    integrity_ = args[0].as_bool();
    return cdr::Any::make_void();
  }
  if (op == "set_key_bits") {
    if (args.empty()) {
      throw core::QosError("encryption: set_key_bits(128|64)");
    }
    set_key_bits(args[0].as_integer());
    return cdr::Any::make_void();
  }
  if (op == "current_epoch") {
    return cdr::Any::from_longlong(current_epoch_);
  }
  return core::QosModule::command(op, args);
}

void register_encryption_module() {
  auto& registry = core::ModuleFactoryRegistry::instance();
  if (!registry.contains(encryption_module_name())) {
    registry.register_factory(encryption_module_name(), [] {
      return std::make_unique<EncryptionModule>();
    });
  }
}

std::int64_t encryption_rotate_key(orb::Orb& orb,
                                   core::QosTransport& transport,
                                   const orb::ObjRef& target,
                                   std::int64_t epoch,
                                   std::uint64_t client_seed) {
  register_encryption_module();
  auto& module = dynamic_cast<EncryptionModule&>(
      transport.load_module(encryption_module_name()));
  util::Rng rng(client_seed ^ static_cast<std::uint64_t>(epoch));
  const crypto::DhGroup& group = crypto::default_group();
  crypto::DhParty party(group, 2 + rng.next_below(group.p - 4));
  // QoS-to-QoS: module command over the plain path (Fig. 3 dual use).
  const cdr::Any server_public = orb::send_command(
      orb, target.endpoint, encryption_module_name(), "dh_exchange",
      {cdr::Any::from_longlong(epoch),
       cdr::Any::from_longlong(
           static_cast<std::int64_t>(party.public_value()))});
  module.install_key(
      epoch, party.shared_secret_bytes(
                 static_cast<std::uint64_t>(server_public.as_longlong())));
  module.set_current_epoch(epoch);
  return epoch;
}

core::CharacteristicProvider make_encryption_provider() {
  // Any side holding the provider may have to load the module.
  register_encryption_module();
  core::CharacteristicProvider provider;
  provider.descriptor = encryption_descriptor();
  provider.module = encryption_module_name();
  provider.client_setup = [](const core::Agreement& agreement,
                             const orb::ObjRef& target, orb::Orb& orb,
                             core::QosTransport& transport) {
    register_encryption_module();
    const bool integrity = agreement.bool_param_or("integrity", true);
    const std::int64_t key_bits = agreement.int_param_or("key_bits", 128);
    auto& module = transport.load_module(encryption_module_name());
    module.command("set_integrity", {cdr::Any::from_bool(integrity)});
    orb::send_command(orb, target.endpoint, encryption_module_name(),
                      "set_integrity", {cdr::Any::from_bool(integrity)});
    // Both peers must mask the derived key the same way, so key_bits
    // travels before the exchange that installs the next key.
    module.command("set_key_bits", {cdr::Any::from_longlong(key_bits)});
    orb::send_command(orb, target.endpoint, encryption_module_name(),
                      "set_key_bits", {cdr::Any::from_longlong(key_bits)});
    // Key epoch = agreement version (min 1: the first negotiation), so a
    // renegotiated cipher change is an ordinary epoch rotation and
    // cross-version frames stay decodable. Client seed derived from the
    // agreement id so distinct agreements use distinct exponents.
    encryption_rotate_key(orb, transport, target,
                          std::max<std::int64_t>(1, agreement.version()),
                          0xC11E27ULL ^ agreement.id);
  };
  provider.resource_demand = encryption_demand;
  return provider;
}

// ---- application-centered PSK variant ----

void PskKeySource::configure(const crypto::Key128& key, bool integrity,
                             std::int64_t version) {
  if (!bindings_.empty() && bindings_.back().version == version) {
    bindings_.back() = VersionedKey{version, key, integrity};
    return;
  }
  bindings_.push_back(VersionedKey{version, key, integrity});
  if (bindings_.size() > kMaxRetained) {
    bindings_.erase(bindings_.begin());
  }
}

const PskKeySource::VersionedKey& PskKeySource::binding_for(
    std::int64_t epoch) const {
  for (auto it = bindings_.rbegin(); it != bindings_.rend(); ++it) {
    if (it->version == epoch) return *it;
  }
  throw core::QosError("encryption: no key for epoch " +
                       std::to_string(epoch));
}

std::int64_t PskKeySource::seal_epoch() const {
  if (bindings_.empty()) {
    throw core::QosError("encryption: no key installed");
  }
  return bindings_.back().version;
}

const crypto::Key128& PskKeySource::key_for(std::int64_t epoch) const {
  return binding_for(epoch).key;
}

bool PskKeySource::integrity() const {
  return bindings_.empty() || bindings_.back().integrity;
}

bool PskKeySource::integrity_for(std::int64_t epoch) const {
  return binding_for(epoch).integrity;
}

namespace {

/// Key/integrity/version as one PSK binding from an agreement's point in
/// the capability lattice. `version` is the frame epoch to seal under:
/// the woven channel version when the stage shares a wire channel with
/// other characteristics, else the agreement's own version.
void configure_psk(PskKeySource& source, const core::Agreement& agreement,
                   std::int64_t version) {
  source.configure(
      masked_key(
          crypto::derive_key(
              util::to_bytes(agreement.string_param_or("psk", ""))),
          agreement.int_param_or("key_bits", 128)),
      agreement.bool_param_or("integrity", true), version);
}

}  // namespace

EncryptionMediator::EncryptionMediator()
    : core::Mediator(encryption_name()), stage_(source_) {}

void EncryptionMediator::bind_agreement(const core::Agreement& agreement) {
  core::Mediator::bind_agreement(agreement);
  configure_psk(source_, agreement, effective_version(agreement));
}

EncryptionImpl::EncryptionImpl()
    : core::QosImpl(encryption_name()), stage_(source_) {}

void EncryptionImpl::bind_agreement(const core::Agreement& agreement) {
  core::QosImpl::bind_agreement(agreement);
  configure_psk(source_, agreement, effective_version(agreement));
}

core::CharacteristicProvider make_encryption_psk_provider() {
  core::CharacteristicProvider provider;
  provider.descriptor = encryption_descriptor();
  provider.make_mediator = [](const core::Agreement&, orb::Orb&,
                              core::QosTransport&) {
    return std::make_shared<EncryptionMediator>();
  };
  provider.make_impl = [](const core::Agreement&, orb::Orb&,
                          core::QosTransport&) {
    return std::make_shared<EncryptionImpl>();
  };
  provider.resource_demand = encryption_demand;
  return provider;
}

}  // namespace maqs::characteristics
