#include "compress/lz77.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <vector>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#endif

#include "compress/lz77_kernels.hpp"

namespace maqs::compress {

namespace {
constexpr std::size_t kWindow = 65535;   // max back-reference offset (u16)
constexpr std::size_t kMinMatch = 4;     // below this, literals are cheaper
constexpr std::size_t kMaxMatch = 65535;  // length field is u16
constexpr std::size_t kMaxLiteralRun = 65535;
constexpr std::size_t kHashBits = 15;
constexpr std::size_t kHashSize = 1u << kHashBits;
constexpr std::size_t kChainSize = kWindow + 1;
// Inside a long match only the first kMaxInsert covered positions enter
// the hash tables: later occurrences of the same data still match against
// these anchors, and insertion cost stays O(1) per long match instead of
// O(len).
constexpr std::size_t kMaxInsert = 8;
// A match this long is taken immediately instead of probing further
// candidates for a marginally longer one: on repetitive payloads the
// newest candidate already yields a near-maximal match, and the remaining
// probes are the bulk of the search cost.
constexpr std::size_t kGoodEnough = 64;

// ---- match-extension kernels ----
//
// A match on a redundant payload runs for hundreds of bytes, so the AVX2
// kernel compares 32 bytes from each side per step, bytewise into a bit
// mask whose first clear bit is the first difference; the portable
// kernel's 8-byte words finish the tail, so no load crosses `limit`. The
// AVX2 kernel is compiled for its ISA by a target attribute and picked at
// run time, as XTEA's block kernels are.

/// Extends a common prefix of length `len` to its end, capped at limit:
/// 8-byte words, then bytes.
std::size_t extend8(const std::uint8_t* a, const std::uint8_t* b,
                    std::size_t len, std::size_t limit) noexcept {
  if constexpr (std::endian::native == std::endian::little) {
    while (len + 8 <= limit) {
      std::uint64_t wa;
      std::uint64_t wb;
      std::memcpy(&wa, a + len, 8);
      std::memcpy(&wb, b + len, 8);
      const std::uint64_t diff = wa ^ wb;
      if (diff != 0) {
        return len + (static_cast<std::size_t>(std::countr_zero(diff)) >> 3);
      }
      len += 8;
    }
  }
  while (len < limit && a[len] == b[len]) ++len;
  return len;
}

std::size_t match_length_portable(const std::uint8_t* a, const std::uint8_t* b,
                                  std::size_t limit) noexcept {
  return extend8(a, b, 0, limit);
}

bool always() noexcept { return true; }

#if defined(__x86_64__) && defined(__GNUC__)
__attribute__((target("avx2"))) std::size_t match_length_avx2(
    const std::uint8_t* a, const std::uint8_t* b, std::size_t limit) noexcept {
  std::size_t len = 0;
  while (len + 32 <= limit) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + len));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + len));
    const auto eq =
        static_cast<unsigned>(_mm256_movemask_epi8(_mm256_cmpeq_epi8(va, vb)));
    if (eq != 0xFFFFFFFFu) {
      return len + static_cast<std::size_t>(std::countr_one(eq));
    }
    len += 32;
  }
  return extend8(a, b, len, limit);
}

bool has_avx2() noexcept { return __builtin_cpu_supports("avx2") != 0; }
#endif

constexpr detail::MatchKernel kKernels[] = {
#if defined(__x86_64__) && defined(__GNUC__)
    {"avx2", match_length_avx2, has_avx2},
#endif
    {"portable", match_length_portable, always},
};

detail::MatchLengthFn pick_match_length() noexcept {
  for (const detail::MatchKernel& kernel : kKernels) {
    if (kernel.supported()) return kernel.run;
  }
  return match_length_portable;
}

const detail::MatchLengthFn g_match_length = pick_match_length();

/// hash3 of p[0, 3) from one 4-byte load; p[3] must be readable.
std::uint32_t hash3(const std::uint8_t* p) noexcept {
  std::uint32_t v = 0;
  std::memcpy(&v, p, 4);
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap32(v);
  }
  return ((v & 0xFFFFFFu) * 2654435761u) >> (32 - kHashBits);
}

void put_u16(std::uint8_t* p, std::uint16_t v) noexcept {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
}

/// The per-thread match-finder scratch (see lz77.hpp). head[h] and
/// chain[g % kChainSize] store positions + 1 in a rolling coordinate
/// space; entries <= a call's base belong to earlier calls and read as
/// "none". The base rolls forward per call, and the tables are zeroed only
/// when the u32 position space would wrap.
struct MatchTables {
  std::vector<std::uint32_t> head;
  std::vector<std::uint32_t> chain;
  std::uint32_t next_base = 0;
};

MatchTables& match_tables() {
  static thread_local MatchTables tables;
  return tables;
}

/// Stored form: the input as pure literal runs. Exactly
/// n + 3 * ceil(n / kMaxLiteralRun) bytes.
std::size_t write_stored(util::BytesView input, std::uint8_t* out) {
  std::size_t w = 0;
  std::size_t begin = 0;
  while (begin < input.size()) {
    const std::size_t chunk = std::min(input.size() - begin, kMaxLiteralRun);
    out[w++] = 0x00;
    put_u16(out + w, static_cast<std::uint16_t>(chunk));
    w += 2;
    std::memcpy(out + w, input.data() + begin, chunk);
    w += chunk;
    begin += chunk;
  }
  return w;
}
}  // namespace

std::span<const detail::MatchKernel> detail::match_kernels() noexcept {
  return kKernels;
}

const std::string& Lz77Codec::name() const {
  static const std::string kName = "lz77";
  return kName;
}

std::size_t Lz77Codec::max_compressed_size(std::size_t n) const {
  if (n == 0) return 0;
  return n + 3 * ((n + kMaxLiteralRun - 1) / kMaxLiteralRun);
}

std::size_t Lz77Codec::compress_into(util::BytesView input,
                                     std::span<std::uint8_t> out) const {
  const std::size_t budget = out.size();
  const std::size_t stored = max_compressed_size(input.size());
  if (input.size() >= kMinMatch) {
    const std::size_t cap = std::min(budget, stored);
    const std::size_t written = try_compress(input, out.data(), cap);
    if (written < cap) return written;
  }
  // Expansion guard: an adversarial token stream can exceed the stored
  // form (a 5-byte match token may replace only 4 literal bytes), so the
  // stored form is the fallback, and it too must come in under budget.
  if (stored >= budget) return budget;
  return write_stored(input, out.data());
}

std::size_t Lz77Codec::try_compress(util::BytesView input, std::uint8_t* out,
                                    std::size_t cap) const {
  const std::size_t n = input.size();
  const std::uint8_t* const src = input.data();

  MatchTables& tables = match_tables();
  if (tables.head.empty()) {
    tables.head.assign(kHashSize, 0);
    tables.chain.assign(kChainSize, 0);
  }
  if (static_cast<std::uint64_t>(tables.next_base) + n + 1 >
      std::numeric_limits<std::uint32_t>::max()) {
    std::fill(tables.head.begin(), tables.head.end(), 0u);
    std::fill(tables.chain.begin(), tables.chain.end(), 0u);
    tables.next_base = 0;
  }
  const std::uint32_t base = tables.next_base;
  tables.next_base = base + static_cast<std::uint32_t>(n) + 1;
  std::uint32_t* const head = tables.head.data();
  std::uint32_t* const chain = tables.chain.data();
  const detail::MatchLengthFn match_length = g_match_length;

  std::size_t w = 0;
  // Emits input[begin, end) as literal runs; false when out of room.
  auto flush_literals = [&](std::size_t begin, std::size_t end) -> bool {
    while (begin < end) {
      const std::size_t chunk = std::min(end - begin, kMaxLiteralRun);
      if (cap - w < 3 + chunk) return false;
      out[w++] = 0x00;
      put_u16(out + w, static_cast<std::uint16_t>(chunk));
      w += 2;
      std::memcpy(out + w, src + begin, chunk);
      w += chunk;
      begin += chunk;
    }
    return true;
  };
  // Puts position p at the head of its bucket; returns the previous head.
  // head/chain store positions + 1; values <= base are stale leftovers
  // from earlier inputs and read like a null.
  auto insert = [&](std::size_t p) noexcept -> std::uint32_t {
    const std::uint32_t h = hash3(src + p);
    const std::uint32_t previous = head[h];
    chain[(base + p) % kChainSize] = previous;
    head[h] = base + static_cast<std::uint32_t>(p) + 1;
    return previous;
  };

  // Positions below scan_end have the kMinMatch bytes a match needs.
  const std::size_t scan_end = n >= kMinMatch ? n - kMinMatch + 1 : 0;
  std::size_t literal_start = 0;
  std::size_t i = 0;
  while (i < scan_end) {
    // The literal scan. A position enters its bucket before its probe,
    // which starts from the previous head: the walk could reach i's own
    // chain slot only through a candidate 64 KiB back, and the window
    // check stops it first. So the probe runs only where the bucket holds
    // a candidate inside the window.
    std::uint32_t candidate = insert(i);
    if (candidate <= base || i - (candidate - 1 - base) > kWindow) {
      ++i;
      continue;
    }

    std::size_t best_len = 0;
    std::size_t best_off = 0;
    int probes = max_probes_;
    const std::size_t limit = std::min(n - i, kMaxMatch);
    while (candidate > base && probes-- > 0) {
      const std::size_t pos = candidate - 1 - base;
      if (i - pos > kWindow) break;  // chain entries only get older
      // A candidate can only beat best_len if it also matches at index
      // best_len; checking that one byte first skips the extension for
      // most losing candidates without changing the outcome.
      if (best_len == 0 || src[pos + best_len] == src[i + best_len]) {
        const std::size_t len = match_length(src + pos, src + i, limit);
        if (len > best_len) {
          best_len = len;
          best_off = i - pos;
          if (len >= limit || len >= kGoodEnough) break;
        }
      }
      // The chain slot may have been overwritten by a position ~64K newer
      // (modulo indexing); accept only strictly older candidates to stay
      // acyclic.
      const std::uint32_t next = chain[(candidate - 1) % kChainSize];
      if (next > base && next - 1 - base >= pos) break;
      candidate = next;
    }
    if (best_len < kMinMatch) {
      ++i;
      continue;
    }

    if (!flush_literals(literal_start, i)) return cap;
    if (cap - w < 5) return cap;
    out[w++] = 0x01;
    put_u16(out + w, static_cast<std::uint16_t>(best_off));
    put_u16(out + w + 2, static_cast<std::uint16_t>(best_len));
    w += 4;
    // Hash anchors for the leading covered positions (i itself is in
    // already) so later matches can reference into this one.
    const std::size_t match_end = i + best_len;
    const std::size_t insert_end =
        std::min({match_end, i + kMaxInsert, scan_end});
    for (std::size_t p = i + 1; p < insert_end; ++p) insert(p);
    i = match_end;
    literal_start = i;
  }
  if (!flush_literals(literal_start, n)) return cap;
  return w;
}

void Lz77Codec::decompress_append(util::BytesView input,
                                  util::Bytes& out) const {
  const std::size_t start = out.size();
  std::size_t i = 0;
  auto read_u16 = [&]() -> std::uint16_t {
    if (input.size() - i < 2) throw CodecError("lz77: truncated stream");
    const std::uint16_t v = static_cast<std::uint16_t>(
        input[i] | (static_cast<std::uint16_t>(input[i + 1]) << 8));
    i += 2;
    return v;
  };
  while (i < input.size()) {
    const std::uint8_t tag = input[i++];
    if (tag == 0x00) {
      const std::uint16_t len = read_u16();
      if (len == 0) throw CodecError("lz77: zero-length literal run");
      if (input.size() - i < len) throw CodecError("lz77: truncated literals");
      out.insert(out.end(), input.begin() + static_cast<std::ptrdiff_t>(i),
                 input.begin() + static_cast<std::ptrdiff_t>(i + len));
      i += len;
    } else if (tag == 0x01) {
      const std::uint16_t off = read_u16();
      const std::uint16_t len = read_u16();
      if (off == 0 || off > out.size() - start) {
        throw CodecError("lz77: back-reference out of window");
      }
      if (len < kMinMatch) throw CodecError("lz77: short match token");
      // Overlapping copies are legal (e.g. off=1 replicates one byte).
      // Disjoint ranges take one memcpy; overlapping ones replicate the
      // off-byte pattern by doubling — identical bytes to the naive
      // byte-at-a-time copy.
      const std::size_t old_size = out.size();
      out.resize(old_size + len);
      std::uint8_t* dst = out.data() + old_size;
      const std::uint8_t* src = dst - off;
      if (off >= len) {
        std::memcpy(dst, src, len);
      } else if (off == 1) {
        std::memset(dst, src[0], len);
      } else {
        std::size_t have = std::min<std::size_t>(off, len);
        std::memcpy(dst, src, have);
        while (have < len) {
          const std::size_t chunk = std::min(have, len - have);
          std::memcpy(dst + have, dst, chunk);
          have += chunk;
        }
      }
    } else {
      throw CodecError("lz77: bad token tag");
    }
  }
}

}  // namespace maqs::compress
