// Encryption QoS characteristic ("privacy through encryption", paper §6).
//
// Network-centered mechanism: the "encryption" transport module encrypts
// message bodies with XTEA-CTR under keys negotiated via Diffie-Hellman.
// The DH handshake is the paper's flagship "QoS to QoS" example — "on the
// fly change of encryption keys" (§3.2) — and runs as module commands over
// the plain path before the module is armed:
//
//   client                           server module
//     dh_exchange(epoch, A=g^a) ------------>
//     <----------------------------- B=g^b   (derives K=A^b for epoch)
//     (derives K=B^a, installs locally)
//
// Keys are versioned by epoch; each frame carries its epoch so a key
// change under traffic never corrupts in-flight requests (E5 measures
// exactly that). An optional integrity tag (keyed MAC) detects tampering.
//
// QIDL (conceptually):
//   qos characteristic Encryption {
//     dimension long key_bits  = { 128, 64 }      degrade 1;
//     dimension bool integrity = { true, false }  degrade 2;
//     param string psk = "";
//     mechanism string qos_cipher_info();
//   };
//
// key_bits and integrity are negotiated capability dimensions; the
// agreement version doubles as the frame epoch (hand-built agreements are
// version 0, matching the legacy PSK frames), so a renegotiated cipher
// downgrade is just another epoch rotation: old-epoch frames still open
// under their original key/integrity binding, and the reverse stage
// publishes the frame's version for downstream stages (the compression
// codec) via TransformContext::frame_version.
//
// An application-centered variant (EncryptionMediator/EncryptionImpl)
// exists as well: it weaves the same cipher through the stub/skeleton
// layer using a pre-shared secret parameter, demonstrating that the
// characteristic can live at either layer of Fig. 1.
//
// Both variants drive one EncryptionTransform streaming stage that
// enciphers the payload in place over arena-owned storage and prepends
// the [epoch:i64][mac:u64] header into pre-reserved headroom — the frame
// bytes are identical to the legacy seal/open copy path. With integrity
// on, XteaCtr::seal/open compute the tag inside the cipher's pass, and a
// frame that fails it is left as it arrived.
#pragma once

#include <map>
#include <vector>

#include "core/provider.hpp"
#include "core/transform.hpp"
#include "crypto/dh.hpp"
#include "crypto/xtea.hpp"

namespace maqs::characteristics {

const std::string& encryption_name();          // "Encryption"
const std::string& encryption_module_name();   // "encryption"

core::CharacteristicDescriptor encryption_descriptor();

/// Module-based (DH) provider.
core::CharacteristicProvider make_encryption_provider();

/// Application-centered pre-shared-key provider (same descriptor).
core::CharacteristicProvider make_encryption_psk_provider();

void register_encryption_module();

/// Performs a DH exchange with the server's encryption module for `epoch`
/// and arms both sides with the derived key ("on the fly change of
/// encryption keys", §3.2). Returns the installed epoch.
std::int64_t encryption_rotate_key(orb::Orb& orb,
                                   core::QosTransport& transport,
                                   const orb::ObjRef& target,
                                   std::int64_t epoch,
                                   std::uint64_t client_seed);

/// Where the encryption stage gets key material and the integrity flag.
/// The module implements this over its epoch->key map; the PSK variant
/// over one fixed key (epoch 0).
class EncryptionKeySource {
 public:
  virtual ~EncryptionKeySource() = default;

  /// Epoch stamped on outbound frames; throws QosError when no key is
  /// armed yet ("encryption: no key installed").
  virtual std::int64_t seal_epoch() const = 0;
  /// Key for a frame's epoch; throws QosError for unknown epochs.
  virtual const crypto::Key128& key_for(std::int64_t epoch) const = 0;
  virtual bool integrity() const = 0;
  /// Integrity setting the given epoch was sealed under; defaults to the
  /// current setting for sources that do not version it.
  virtual bool integrity_for(std::int64_t /*epoch*/) const {
    return integrity();
  }
};

/// Streaming cipher stage. Frame: [epoch:i64][mac:u64][ciphertext...];
/// mac is 0 when integrity is off. The nonce binds the keystream to the
/// request id (reply direction flips it) so identical plaintexts never
/// share keystream.
class EncryptionTransform final : public core::StreamingTransform {
 public:
  explicit EncryptionTransform(const EncryptionKeySource& source) noexcept
      : source_(&source) {}

  const std::string& label() const override;
  /// 16-byte [epoch][mac] header.
  std::size_t forward_overhead() const noexcept override { return 16; }
  void forward(core::ChainBuf& buf,
               const core::TransformContext& ctx) override;
  void reverse(core::ChainBuf& buf,
               const core::TransformContext& ctx) override;

 private:
  const EncryptionKeySource* source_;
};

class EncryptionModule final : public core::QosModule,
                               public EncryptionKeySource {
 public:
  EncryptionModule();

  void transform_request(orb::RequestMessage& req) override;
  void restore_request(orb::RequestMessage& req) override;
  void transform_reply(const orb::RequestMessage& req,
                       orb::ReplyMessage& rep) override;
  void restore_reply(orb::ReplyMessage& rep) override;

  /// Commands: dh_exchange(epoch, peer_public) -> own public;
  /// install_key(epoch, secret-bytes) [local side];
  /// set_epoch(epoch); set_integrity(bool); set_key_bits(128|64);
  /// current_epoch() -> epoch.
  cdr::Any command(const std::string& op,
                   const std::vector<cdr::Any>& args) override;

  /// Local (in-process) key management used by client_setup.
  void install_key(std::int64_t epoch, util::BytesView secret);
  void set_current_epoch(std::int64_t epoch);
  std::int64_t current_epoch() const noexcept { return current_epoch_; }

  /// Effective key strength for keys installed from now on: 64 masks the
  /// upper half of the derived 128-bit key. Both DH peers must agree
  /// before the next exchange (client_setup sends it ahead of rotating).
  void set_key_bits(std::int64_t bits);
  std::int64_t key_bits() const noexcept { return key_bits_; }

  // EncryptionKeySource
  std::int64_t seal_epoch() const override;
  const crypto::Key128& key_for(std::int64_t epoch) const override;
  bool integrity() const override { return integrity_; }

 private:
  std::map<std::int64_t, crypto::Key128> keys_;
  std::int64_t current_epoch_ = -1;  // -1 = no key, refuse traffic
  bool integrity_ = true;
  std::int64_t key_bits_ = 128;
  std::uint64_t dh_private_seed_ = 0x5EED;
  EncryptionTransform stage_;
  core::TransformChain chain_;
};

/// Pre-shared-key source for the application-centered variant: frames are
/// sealed as the agreement's version (0 for hand-built bindings, matching
/// the legacy fixed-epoch frames). Bindings of recent versions stay
/// retained so cross-version frames in flight across a renegotiation
/// still open under the key/integrity pair they were sealed with.
class PskKeySource final : public EncryptionKeySource {
 public:
  /// Binds `key`/`integrity` for agreement `version` and makes it the
  /// seal version. Rebinding the current version replaces it in place.
  void configure(const crypto::Key128& key, bool integrity,
                 std::int64_t version = 0);

  std::int64_t seal_epoch() const override;
  const crypto::Key128& key_for(std::int64_t epoch) const override;
  bool integrity() const override;
  bool integrity_for(std::int64_t epoch) const override;

 private:
  struct VersionedKey {
    std::int64_t version = 0;
    crypto::Key128 key{};
    bool integrity = true;
  };
  static constexpr std::size_t kMaxRetained = 4;

  const VersionedKey& binding_for(std::int64_t epoch) const;

  std::vector<VersionedKey> bindings_;  // ascending version, newest last
};

/// Application-centered variant: same cipher woven at the stub/skeleton
/// layer, keyed by the agreement's "psk" parameter.
class EncryptionMediator final : public core::Mediator {
 public:
  EncryptionMediator();
  void bind_agreement(const core::Agreement& agreement) override;
  /// The stage derives the reply nonce from request_id alone (a retained
  /// header field), so the argument stream need not be kept.
  bool needs_request_payload() const override { return false; }
  core::StreamingTransform* streaming_transform() override { return &stage_; }

 private:
  PskKeySource source_;
  EncryptionTransform stage_;
};

class EncryptionImpl final : public core::QosImpl {
 public:
  EncryptionImpl();
  void bind_agreement(const core::Agreement& agreement) override;
  core::StreamingTransform* streaming_transform() override { return &stage_; }

 private:
  PskKeySource source_;
  EncryptionTransform stage_;
};

}  // namespace maqs::characteristics
