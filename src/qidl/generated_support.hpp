// Runtime support for qidlc-generated code.
//
// Generated marshaling is expressed as unqualified `write(enc, v)` /
// `read(dec, v)` calls after `using maqs::qidl::gen::write;` — basic types
// resolve here, generated structs/enums resolve via ADL in their own
// namespace, and the vector overloads recurse through both.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cdr/decoder.hpp"
#include "cdr/encoder.hpp"

namespace maqs::qidl::gen {

inline void write(cdr::Encoder& enc, bool v) { enc.write_bool(v); }
inline void write(cdr::Encoder& enc, std::uint8_t v) { enc.write_u8(v); }
inline void write(cdr::Encoder& enc, std::int16_t v) { enc.write_i16(v); }
inline void write(cdr::Encoder& enc, std::int32_t v) { enc.write_i32(v); }
inline void write(cdr::Encoder& enc, std::int64_t v) { enc.write_i64(v); }
inline void write(cdr::Encoder& enc, float v) { enc.write_f32(v); }
inline void write(cdr::Encoder& enc, double v) { enc.write_f64(v); }
inline void write(cdr::Encoder& enc, const std::string& v) {
  enc.write_string(v);
}

inline void read(cdr::Decoder& dec, bool& v) { v = dec.read_bool(); }
inline void read(cdr::Decoder& dec, std::uint8_t& v) { v = dec.read_u8(); }
inline void read(cdr::Decoder& dec, std::int16_t& v) { v = dec.read_i16(); }
inline void read(cdr::Decoder& dec, std::int32_t& v) { v = dec.read_i32(); }
inline void read(cdr::Decoder& dec, std::int64_t& v) { v = dec.read_i64(); }
inline void read(cdr::Decoder& dec, float& v) { v = dec.read_f32(); }
inline void read(cdr::Decoder& dec, double& v) { v = dec.read_f64(); }
inline void read(cdr::Decoder& dec, std::string& v) {
  v = dec.read_string();
}

template <typename T>
void write(cdr::Encoder& enc, const std::vector<T>& v) {
  enc.write_u32(static_cast<std::uint32_t>(v.size()));
  for (const T& item : v) write(enc, item);
}

template <typename T>
void read(cdr::Decoder& dec, std::vector<T>& v) {
  const std::uint32_t n = dec.read_count();
  v.clear();
  v.reserve(dec.reservable(n, sizeof(T)));
  for (std::uint32_t i = 0; i < n; ++i) {
    T item{};
    read(dec, item);
    v.push_back(std::move(item));
  }
}

}  // namespace maqs::qidl::gen
