// XTEA block cipher with a CTR-mode stream interface.
//
// Substrate for the privacy/encryption QoS characteristic. XTEA is a real
// 64-bit-block cipher (Needham/Wheeler, 1997) that is tiny enough to
// implement from scratch; CTR mode turns it into a stream cipher so
// payloads of any length encrypt without padding and encryption equals
// decryption. seal/open compute the mac64 integrity tag inside the
// cipher's pass, the way an AEAD authenticates as it encrypts (seal
// re-reads only its last 256-byte chunk). This is adequate to reproduce
// the paper's overhead shapes; it is NOT a modern AEAD and must not be
// used outside the simulation.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "util/bytes.hpp"

namespace maqs::crypto {

/// 128-bit key.
using Key128 = std::array<std::uint32_t, 4>;

class Mac64;

/// Derives a Key128 from arbitrary secret bytes (e.g. a DH shared secret).
Key128 derive_key(util::BytesView secret);

class XteaCtr {
 public:
  /// nonce distinguishes streams under the same key (e.g. request id).
  XteaCtr(const Key128& key, std::uint64_t nonce) noexcept
      : key_(key), nonce_(nonce) {}

  /// XORs the keystream into a copy of the input. Applying it twice with
  /// the same key/nonce restores the plaintext.
  util::Bytes apply(util::BytesView input) const;

  /// XORs the keystream into `data` in place (zero-copy transform path);
  /// byte-identical to apply() on the same input.
  void apply_in_place(std::span<std::uint8_t> data) const noexcept;

  /// Encrypts `data` in place and returns mac64(mac_key, ciphertext).
  std::uint64_t seal(std::span<std::uint8_t> data,
                     std::uint64_t mac_key) const noexcept;

  /// Decrypts `data` in place if mac64(mac_key, data) == tag and returns
  /// true. Otherwise leaves `data` exactly as passed in and returns false.
  bool open(std::span<std::uint8_t> data, std::uint64_t mac_key,
            std::uint64_t tag) const noexcept;

  /// Raw 64-bit block encryption (exposed for tests against the
  /// reference algorithm).
  static std::uint64_t encrypt_block(std::uint64_t block,
                                     const Key128& key) noexcept;

 private:
  /// The one CTR walk: XORs the keystream into `data` and, when `mac` is
  /// set, absorbs the ciphertext into it — after the XOR when `sealing`,
  /// before it otherwise.
  void walk(std::span<std::uint8_t> data, Mac64* mac,
            bool sealing) const noexcept;

  Key128 key_;
  std::uint64_t nonce_;
};

}  // namespace maqs::crypto
