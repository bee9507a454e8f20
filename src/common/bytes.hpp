#pragma once

// Little-endian byte serialization and CRC-32 checksums.
//
// Chunk files, metadata persistence and on-wire sub-table encoding all go
// through ByteWriter / ByteReader so the format is identical on every
// platform regardless of host endianness.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace orv {

/// CRC-32 (IEEE 802.3 polynomial, reflected) of a byte span. Runs the
/// carry-less-multiply kernel where the CPU has it, else slicing-by-8; both
/// give the same value.
std::uint32_t crc32(std::span<const std::byte> data,
                    std::uint32_t seed = 0xffffffffu);

namespace detail {

/// The two CRC-32 kernels behind crc32(), exposed so tests can check each
/// against a reference. Same contract as crc32().
std::uint32_t crc32_slice8(std::span<const std::byte> data,
                           std::uint32_t seed = 0xffffffffu);

/// Folds the 16-byte multiple prefix of inputs of 64 bytes or more with
/// PCLMULQDQ, then finishes with slicing-by-8. Call only when
/// crc32_clmul_supported().
std::uint32_t crc32_clmul(std::span<const std::byte> data,
                          std::uint32_t seed = 0xffffffffu);

/// True when this CPU has PCLMULQDQ and SSE4.1 (always false off x86).
bool crc32_clmul_supported();

}  // namespace detail

/// Appends little-endian encoded primitives to a growable byte buffer.
class ByteWriter {
 public:
  ByteWriter() = default;

  template <typename T>
    requires std::is_arithmetic_v<T>
  void put(T value) {
    static_assert(std::endian::native == std::endian::little,
                  "big-endian hosts need byte swapping here");
    const auto* p = reinterpret_cast<const std::byte*>(&value);
    buf_.insert(buf_.end(), p, p + sizeof(T));
  }

  void put_u8(std::uint8_t v) { put(v); }
  void put_u16(std::uint16_t v) { put(v); }
  void put_u32(std::uint32_t v) { put(v); }
  void put_u64(std::uint64_t v) { put(v); }
  void put_i32(std::int32_t v) { put(v); }
  void put_i64(std::int64_t v) { put(v); }
  void put_f32(float v) { put(v); }
  void put_f64(double v) { put(v); }

  /// Length-prefixed (u32) UTF-8 string.
  void put_string(std::string_view s);

  /// Raw bytes, no length prefix.
  void put_bytes(std::span<const std::byte> bytes);

  std::span<const std::byte> bytes() const { return buf_; }
  std::size_t size() const { return buf_.size(); }
  std::vector<std::byte> take() { return std::move(buf_); }

 private:
  std::vector<std::byte> buf_;
};

/// Reads little-endian primitives from a byte span; throws FormatError on
/// truncation.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> data) : data_(data) {}

  template <typename T>
    requires std::is_arithmetic_v<T>
  T get() {
    require(sizeof(T));
    T value;
    std::memcpy(&value, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  std::uint8_t get_u8() { return get<std::uint8_t>(); }
  std::uint16_t get_u16() { return get<std::uint16_t>(); }
  std::uint32_t get_u32() { return get<std::uint32_t>(); }
  std::uint64_t get_u64() { return get<std::uint64_t>(); }
  std::int32_t get_i32() { return get<std::int32_t>(); }
  std::int64_t get_i64() { return get<std::int64_t>(); }
  float get_f32() { return get<float>(); }
  double get_f64() { return get<double>(); }

  std::string get_string();

  /// Returns a view of the next n bytes and advances.
  std::span<const std::byte> get_bytes(std::size_t n);

  /// Validates an element count read from the stream before any container
  /// is sized from it: `count` elements of at least `min_bytes_each` bytes
  /// must still fit in the remaining input, else FormatError. Guards
  /// deserializers against corruption-driven huge allocations.
  void check_count(std::uint64_t count, std::size_t min_bytes_each) const;

  std::size_t remaining() const { return data_.size() - pos_; }
  std::size_t position() const { return pos_; }
  bool exhausted() const { return pos_ == data_.size(); }

 private:
  void require(std::size_t n) const;

  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

}  // namespace orv
