// Compression QoS characteristic ("compression for channels with small
// bandwidth", paper §6).
//
// Implemented at BOTH integration layers of Fig. 1, which is exactly what
// experiment F1 compares:
//   - application-centered: CompressionMediator (client stub delegate)
//     compresses the marshaled argument stream; CompressionImpl (server
//     QoS implementation) restores it in the QoS skeleton's transform
//     stage and compresses results on the way out.
//   - network-centered: CompressionModule, a QoS transport module that
//     rewrites message bodies below the ORB's invocation layer.
//
// All three run the same CompressionTransform streaming stage: the codec
// emits straight into an arena region behind the frame marker, so the hot
// path never materializes an intermediate vector (see core/transform.hpp).
//
// QIDL (conceptually):
//   qos characteristic Compression {
//     dimension string algorithm = { "lz77", "rle", "none" } degrade 0;
//     param long   min_size = 64;     // skip tiny payloads
//     param long   level = 32;        // LZ77 probe depth
//     mechanism double compression_ratio();
//   };
//
// The algorithm is a negotiated capability dimension: agreements pin one
// point in the {lz77, rle, none} preference lattice and renegotiations
// walk it down under pressure. The transform keeps the codec of recent
// agreement versions bound, keyed by the frame version the encryption
// stage publishes via TransformContext::frame_version, so an in-flight
// frame sealed under the previous version still decodes after an agreed
// algorithm switch.
#pragma once

#include <memory>

#include "compress/codec.hpp"
#include "core/provider.hpp"
#include "core/transform.hpp"

namespace maqs::characteristics {

/// Characteristic name: "Compression".
const std::string& compression_name();
/// Transport module name: "compression".
const std::string& compression_module_name();

/// Descriptor as qidlc would emit it.
core::CharacteristicDescriptor compression_descriptor();

/// Full provider wired for the application-centered implementation.
/// Registered into a ProviderRegistry on both client and server sides.
core::CharacteristicProvider make_compression_provider();

/// Same characteristic but delegating the mechanism to the transport
/// module (network-centered; for F1 and the hierarchy story of §4).
core::CharacteristicProvider make_compression_module_provider();

/// Registers the "compression" module factory (idempotent).
void register_compression_module();

/// The streaming compression stage shared by every integration layer.
///
/// Frame (wire-identical to the legacy copy path): one marker octet
/// (0 = raw, 1 = compressed) followed by the stream. forward() compresses
/// straight into an arena region the size of the raw frame, with the
/// payload size as the codec's budget, and copies the payload raw into
/// that region when the stream does not come in under it; reverse() drops
/// the marker in place for raw frames and decompresses into a recycled
/// stage-owned scratch buffer otherwise.
class CompressionTransform final : public core::StreamingTransform {
 public:
  CompressionTransform();

  const std::string& label() const override;
  std::size_t forward_overhead() const noexcept override { return 1; }
  void forward(core::ChainBuf& buf,
               const core::TransformContext& ctx) override;
  void reverse(core::ChainBuf& buf,
               const core::TransformContext& ctx) override;

  /// Rebinds the current version slot to `codec` (legacy single-version
  /// API; the algorithm name follows the codec's).
  void set_codec(std::unique_ptr<compress::Codec> codec);
  /// Binds `algorithm` ("lz77", "rle" or "none" = ship raw) for agreement
  /// `version`. Earlier versions stay bound (bounded retention) so
  /// cross-version frames keep decoding after a renegotiated switch.
  void set_algorithm(const std::string& algorithm, std::int64_t level,
                     std::int64_t version);
  void set_min_size(std::int64_t min_size) noexcept { min_size_ = min_size; }
  const compress::Codec& codec() const noexcept;
  const std::string& algorithm() const noexcept;
  std::int64_t current_version() const noexcept;
  std::int64_t min_size() const noexcept { return min_size_; }

  /// Byte counters for the mechanism ops: forward counts unframed-in /
  /// framed-out, reverse counts framed-in / unframed-out.
  std::uint64_t forward_bytes_in() const noexcept { return fwd_in_; }
  std::uint64_t forward_bytes_out() const noexcept { return fwd_out_; }
  std::uint64_t reverse_bytes_in() const noexcept { return rev_in_; }
  std::uint64_t reverse_bytes_out() const noexcept { return rev_out_; }

 private:
  /// Codec bound for one agreement version. "none" keeps the previous
  /// codec object around purely for decoding older compressed frames.
  struct VersionedCodec {
    std::int64_t version = 0;
    std::string algorithm;
    std::shared_ptr<compress::Codec> codec;
  };
  static constexpr std::size_t kMaxRetained = 4;

  const VersionedCodec& current() const noexcept { return bindings_.back(); }
  VersionedCodec& current() noexcept { return bindings_.back(); }
  const VersionedCodec& binding_for(std::int64_t version) const noexcept;

  std::vector<VersionedCodec> bindings_;  // ascending version, newest last
  std::int64_t min_size_ = 64;
  util::Bytes scratch_;  // reverse-direction decompress target (recycled)
  std::uint64_t fwd_in_ = 0;
  std::uint64_t fwd_out_ = 0;
  std::uint64_t rev_in_ = 0;
  std::uint64_t rev_out_ = 0;
};

class CompressionMediator final : public core::Mediator {
 public:
  CompressionMediator();

  void bind_agreement(const core::Agreement& agreement) override;
  /// The stage only decompresses the reply; the stub need not keep the
  /// argument stream alive across the call.
  bool needs_request_payload() const override { return false; }
  core::StreamingTransform* streaming_transform() override { return &stage_; }
  cdr::Any qos_operation(const std::string& op,
                         const std::vector<cdr::Any>& args) override;

  /// Observed mean output/input size ratio (1.0 until data flows).
  double compression_ratio() const;

 private:
  CompressionTransform stage_;
};

class CompressionImpl final : public core::QosImpl {
 public:
  CompressionImpl();

  void bind_agreement(const core::Agreement& agreement) override;
  core::StreamingTransform* streaming_transform() override { return &stage_; }
  void dispatch_qos_op(const std::string& op, cdr::Decoder& args,
                       cdr::Encoder& out, orb::ServerContext& ctx) override;

 private:
  CompressionTransform stage_;
};

/// Network-centered variant: body transforms at the transport layer.
class CompressionModule final : public core::QosModule {
 public:
  CompressionModule();

  void transform_request(orb::RequestMessage& req) override;
  void restore_request(orb::RequestMessage& req) override;
  void transform_reply(const orb::RequestMessage& req,
                       orb::ReplyMessage& rep) override;
  void restore_reply(orb::ReplyMessage& rep) override;
  cdr::Any command(const std::string& op,
                   const std::vector<cdr::Any>& args) override;

 private:
  CompressionTransform stage_;
  core::TransformChain chain_;
};

}  // namespace maqs::characteristics
