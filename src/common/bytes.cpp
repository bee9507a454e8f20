#include "common/bytes.hpp"

#include <array>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "common/error.hpp"

namespace orv {

namespace {

// Slicing-by-8 tables: kCrcTables[0] is the classic bytewise table, and
// kCrcTables[k][b] advances byte b's contribution through k more zero
// bytes, so one 8-byte word is folded with eight independent lookups.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = make_crc_tables();

// Advances the raw (uninverted) CRC register over n bytes.
std::uint32_t slice8_update(const std::byte* p, std::size_t n,
                            std::uint32_t c) {
  static_assert(std::endian::native == std::endian::little,
                "slicing-by-8 folds little-endian words");
  const auto& t = kCrcTables;
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t w;
    std::memcpy(&w, p, sizeof(w));
    w ^= c;
    c = t[7][w & 0xffu] ^ t[6][(w >> 8) & 0xffu] ^ t[5][(w >> 16) & 0xffu] ^
        t[4][(w >> 24) & 0xffu] ^ t[3][(w >> 32) & 0xffu] ^
        t[2][(w >> 40) & 0xffu] ^ t[1][(w >> 48) & 0xffu] ^ t[0][w >> 56];
  }
  for (; n > 0; ++p, --n) {
    c = t[0][(c ^ static_cast<std::uint8_t>(*p)) & 0xffu] ^ (c >> 8);
  }
  return c;
}

#if defined(__x86_64__) || defined(__i386__)

__attribute__((target("pclmul,sse4.1"))) __m128i load16(const std::byte* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// Multiplies a's two 64-bit halves by k's (lo by lo, hi by hi) and xors
// both products into the next 16 bytes: a moved 128 bits further along.
__attribute__((target("pclmul,sse4.1"))) __m128i fold16(__m128i a, __m128i k,
                                                        __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(a, k, 0x00),
                                     _mm_clmulepi64_si128(a, k, 0x11)),
                       next);
}

// Advances the raw CRC register over n bytes, n a multiple of 16 and at
// least 64, by carry-less multiply folding (Intel, "Fast CRC Computation
// for Generic Polynomials Using PCLMULQDQ Instruction", 2009): four 128-bit
// lanes fold 64 bytes per step, then fold into one lane, fold that to 64
// bits and Barrett-reduce to 32. The constants are x^k mod P for the
// bit-reflected IEEE polynomial, as in zlib's crc32_simd.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t clmul_fold(
    const std::byte* p, std::size_t n, std::uint32_t c) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x1 =
      _mm_xor_si128(load16(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x2 = load16(p + 16);
  __m128i x3 = load16(p + 32);
  __m128i x4 = load16(p + 48);
  for (p += 64, n -= 64; n >= 64; p += 64, n -= 64) {
    x1 = fold16(x1, k1k2, load16(p));
    x2 = fold16(x2, k1k2, load16(p + 16));
    x3 = fold16(x3, k1k2, load16(p + 32));
    x4 = fold16(x4, k1k2, load16(p + 48));
  }
  x1 = fold16(fold16(fold16(x1, k3k4, x2), k3k4, x3), k3k4, x4);
  for (; n >= 16; p += 16, n -= 16) x1 = fold16(x1, k3k4, load16(p));

  // 128 -> 64 bits.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(
      _mm_srli_si128(x1, 4),
      _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00));
  // Barrett reduction to 32 bits.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}

#endif

using CrcKernel = std::uint32_t (*)(std::span<const std::byte>,
                                    std::uint32_t);

}  // namespace

namespace detail {

std::uint32_t crc32_slice8(std::span<const std::byte> data,
                           std::uint32_t seed) {
  return slice8_update(data.data(), data.size(), seed) ^ 0xffffffffu;
}

#if defined(__x86_64__) || defined(__i386__)

std::uint32_t crc32_clmul(std::span<const std::byte> data,
                          std::uint32_t seed) {
  const std::byte* p = data.data();
  std::size_t n = data.size();
  std::uint32_t c = seed;
  if (n >= 64) {
    const std::size_t folded = n & ~std::size_t{15};
    c = clmul_fold(p, folded, c);
    p += folded;
    n -= folded;
  }
  return slice8_update(p, n, c) ^ 0xffffffffu;
}

bool crc32_clmul_supported() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
}

#else

std::uint32_t crc32_clmul(std::span<const std::byte> data,
                          std::uint32_t seed) {
  return crc32_slice8(data, seed);
}

bool crc32_clmul_supported() { return false; }

#endif

}  // namespace detail

std::uint32_t crc32(std::span<const std::byte> data, std::uint32_t seed) {
  static const CrcKernel kernel = detail::crc32_clmul_supported()
                                      ? detail::crc32_clmul
                                      : detail::crc32_slice8;
  return kernel(data, seed);
}

void ByteWriter::put_string(std::string_view s) {
  ORV_REQUIRE(s.size() <= UINT32_MAX, "string too long to serialize");
  put_u32(static_cast<std::uint32_t>(s.size()));
  const auto* p = reinterpret_cast<const std::byte*>(s.data());
  buf_.insert(buf_.end(), p, p + s.size());
}

void ByteWriter::put_bytes(std::span<const std::byte> bytes) {
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

std::string ByteReader::get_string() {
  const std::uint32_t n = get_u32();
  require(n);
  std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
  pos_ += n;
  return s;
}

std::span<const std::byte> ByteReader::get_bytes(std::size_t n) {
  require(n);
  auto view = data_.subspan(pos_, n);
  pos_ += n;
  return view;
}

void ByteReader::check_count(std::uint64_t count,
                             std::size_t min_bytes_each) const {
  ORV_REQUIRE(min_bytes_each > 0, "check_count needs a positive size");
  if (count > remaining() / min_bytes_each) {
    throw FormatError(
        "corrupt stream: count " + std::to_string(count) + " x " +
        std::to_string(min_bytes_each) + "B exceeds the remaining " +
        std::to_string(remaining()) + " input bytes");
  }
}

void ByteReader::require(std::size_t n) const {
  if (data_.size() - pos_ < n) {
    throw FormatError("byte stream truncated: need " + std::to_string(n) +
                      " bytes at offset " + std::to_string(pos_) +
                      ", have " + std::to_string(data_.size() - pos_));
  }
}

}  // namespace orv
