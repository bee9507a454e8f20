#include "common/bytes.hpp"

#include <array>

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

}  // namespace

std::uint32_t crc32(std::span<const std::byte> data, std::uint32_t seed) {
  static_assert(std::endian::native == std::endian::little,
                "slicing-by-8 folds little-endian words");
  const auto& t = kCrcTables;
  const std::byte* p = data.data();
  std::size_t n = data.size();
  std::uint32_t c = seed;
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
  return c ^ 0xffffffffu;
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
