// ByteWriter/ByteReader round-trips, truncation errors, CRC-32 vectors.

#include "common/bytes.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/error.hpp"

namespace orv {
namespace {

TEST(Bytes, PrimitiveRoundTrip) {
  ByteWriter w;
  w.put_u8(0xab);
  w.put_u16(0xbeef);
  w.put_u32(0xdeadbeefu);
  w.put_u64(0x0123456789abcdefull);
  w.put_i32(-42);
  w.put_i64(-1234567890123ll);
  w.put_f32(3.5f);
  w.put_f64(-2.25);

  ByteReader r(w.bytes());
  EXPECT_EQ(r.get_u8(), 0xab);
  EXPECT_EQ(r.get_u16(), 0xbeef);
  EXPECT_EQ(r.get_u32(), 0xdeadbeefu);
  EXPECT_EQ(r.get_u64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.get_i32(), -42);
  EXPECT_EQ(r.get_i64(), -1234567890123ll);
  EXPECT_FLOAT_EQ(r.get_f32(), 3.5f);
  EXPECT_DOUBLE_EQ(r.get_f64(), -2.25);
  EXPECT_TRUE(r.exhausted());
}

TEST(Bytes, StringRoundTrip) {
  ByteWriter w;
  w.put_string("hello");
  w.put_string("");
  w.put_string(std::string(1000, 'x'));
  ByteReader r(w.bytes());
  EXPECT_EQ(r.get_string(), "hello");
  EXPECT_EQ(r.get_string(), "");
  EXPECT_EQ(r.get_string(), std::string(1000, 'x'));
}

TEST(Bytes, LittleEndianLayout) {
  ByteWriter w;
  w.put_u32(0x01020304u);
  auto b = w.bytes();
  ASSERT_EQ(b.size(), 4u);
  EXPECT_EQ(static_cast<unsigned>(b[0]), 0x04u);
  EXPECT_EQ(static_cast<unsigned>(b[3]), 0x01u);
}

TEST(Bytes, TruncationThrowsFormatError) {
  ByteWriter w;
  w.put_u16(7);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.get_u16(), 7);
  EXPECT_THROW(r.get_u32(), FormatError);
}

TEST(Bytes, TruncatedStringThrows) {
  ByteWriter w;
  w.put_u32(100);  // claims 100 bytes, provides none
  ByteReader r(w.bytes());
  EXPECT_THROW(r.get_string(), FormatError);
}

TEST(Bytes, GetBytesAdvances) {
  ByteWriter w;
  w.put_u32(0xaabbccddu);
  w.put_u8(0x11);
  ByteReader r(w.bytes());
  auto view = r.get_bytes(4);
  EXPECT_EQ(view.size(), 4u);
  EXPECT_EQ(r.get_u8(), 0x11);
}

TEST(Bytes, CheckCountGuardsHugeAllocations) {
  ByteWriter w;
  w.put_u32(0xffffffffu);  // a corrupted element count
  w.put_u64(0);
  ByteReader r(w.bytes());
  const std::uint32_t n = r.get_u32();
  EXPECT_THROW(r.check_count(n, 16), FormatError);
  EXPECT_NO_THROW(r.check_count(1, 8));           // 8 bytes remain
  EXPECT_THROW(r.check_count(2, 8), FormatError);  // 16 would not fit
  EXPECT_THROW(r.check_count(1, 0), InvalidArgument);
}

TEST(Crc32, KnownVectors) {
  // "123456789" -> 0xCBF43926 (standard CRC-32 check value).
  const char* s = "123456789";
  auto span = std::span<const std::byte>(
      reinterpret_cast<const std::byte*>(s), 9);
  EXPECT_EQ(crc32(span), 0xcbf43926u);
}

TEST(Crc32, EmptyInput) {
  EXPECT_EQ(crc32({}), 0x00000000u);
}

/// Bit-at-a-time CRC-32 (IEEE, reflected), independent of the library's
/// table-driven and carry-less-multiply kernels.
std::uint32_t reference_crc32(std::span<const std::byte> data,
                              std::uint32_t seed = 0xffffffffu) {
  std::uint32_t c = seed;
  for (std::byte b : data) {
    c ^= static_cast<std::uint8_t>(b);
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xffffffffu;
}

using CrcKernel = std::uint32_t (*)(std::span<const std::byte>,
                                    std::uint32_t);

/// Checks a kernel against the bit-at-a-time reference at lengths 0..300
/// (across the 16-byte fold step and the 64-byte fold minimum), 4099 and
/// 1 MiB, at start offsets 0..15, with the default seed and another one.
void expect_kernel_matches_reference(CrcKernel kernel) {
  constexpr std::size_t kMiB = std::size_t{1} << 20;
  std::vector<std::byte> buf(kMiB + 16);
  std::uint32_t x = 0x2545f491u;
  for (auto& b : buf) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<std::byte>(x >> 24);
  }
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 300; ++n) lengths.push_back(n);
  lengths.push_back(4099);
  lengths.push_back(kMiB);
  for (const std::uint32_t seed : {0xffffffffu, 0x1d0c4b5au}) {
    for (std::size_t offset = 0; offset < 16; ++offset) {
      for (std::size_t n : lengths) {
        const std::span<const std::byte> data(buf.data() + offset, n);
        ASSERT_EQ(kernel(data, seed), reference_crc32(data, seed))
            << "length " << n << " offset " << offset << " seed " << seed;
      }
    }
  }
}

TEST(Crc32, MatchesBytewiseReferenceAtEveryLengthAndAlignment) {
  expect_kernel_matches_reference(crc32);
}

TEST(Crc32, SlicingBy8KernelMatchesReference) {
  expect_kernel_matches_reference(detail::crc32_slice8);
}

TEST(Crc32, ClmulKernelMatchesReference) {
  if (!detail::crc32_clmul_supported()) {
    GTEST_SKIP() << "CPU lacks PCLMULQDQ or SSE4.1";
  }
  expect_kernel_matches_reference(detail::crc32_clmul);
}

TEST(Crc32, DispatchesToTheSupportedKernel) {
  const CrcKernel expected = detail::crc32_clmul_supported()
                                 ? detail::crc32_clmul
                                 : detail::crc32_slice8;
  std::vector<std::byte> data(1000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::byte>(i * 131 + 7);
  }
  for (const std::size_t n : {0, 63, 64, 100, 1000}) {
    const std::span<const std::byte> head(data.data(), n);
    EXPECT_EQ(crc32(head), expected(head, 0xffffffffu)) << "length " << n;
    EXPECT_EQ(crc32(head, 42u), expected(head, 42u)) << "length " << n;
  }
}

TEST(Crc32, DetectsSingleBitFlip) {
  std::vector<std::byte> data(64, std::byte{0x5a});
  const auto before = crc32(data);
  data[17] ^= std::byte{0x01};
  EXPECT_NE(crc32(data), before);
}

}  // namespace
}  // namespace orv
