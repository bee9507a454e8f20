// Chunk format: header/payload round-trips, CRC corruption detection,
// truncation; chunk stores: memory and file-backed addressing.

#include <gtest/gtest.h>

#include "chunkio/chunk_format.hpp"
#include "chunkio/chunk_store.hpp"
#include "common/error.hpp"
#include "common/tempdir.hpp"
#include "extract/extractor.hpp"

namespace orv {
namespace {

SubTable sample_table(int rows = 16) {
  auto schema = Schema::make({{"x", AttrType::Float32},
                              {"y", AttrType::Float32},
                              {"oilp", AttrType::Float32}});
  SubTable st(schema, SubTableId{3, 9});
  for (int i = 0; i < rows; ++i) {
    const Value vals[] = {Value(float(i % 4)), Value(float(i / 4)),
                          Value(0.1f * float(i))};
    st.append_values(vals);
  }
  st.compute_bounds();
  return st;
}

TEST(ChunkFormat, HeaderRoundTrip) {
  const SubTable st = sample_table();
  const auto bytes = make_chunk(st, LayoutId::RowMajor);
  std::size_t payload_offset = 0;
  const ChunkHeader h = decode_chunk_header(bytes, &payload_offset);
  EXPECT_EQ(h.layout, LayoutId::RowMajor);
  EXPECT_EQ(h.table, 3u);
  EXPECT_EQ(h.chunk, 9u);
  EXPECT_EQ(h.num_rows, 16u);
  EXPECT_EQ(h.schema, st.schema());
  EXPECT_EQ(h.bounds, st.bounds());
  EXPECT_EQ(h.payload_size, st.size_bytes());
  EXPECT_GT(payload_offset, 0u);
}

TEST(ChunkFormat, BadMagicRejected) {
  auto bytes = make_chunk(sample_table(), LayoutId::RowMajor);
  bytes[0] = std::byte{0x00};
  EXPECT_THROW(decode_chunk_header(bytes, nullptr), FormatError);
}

TEST(ChunkFormat, HeaderCorruptionDetectedByCrc) {
  auto bytes = make_chunk(sample_table(), LayoutId::RowMajor);
  bytes[9] ^= std::byte{0x01};  // flip a bit inside the header
  EXPECT_THROW(decode_chunk_header(bytes, nullptr), FormatError);
}

TEST(ChunkFormat, PayloadCorruptionDetectedByCrc) {
  auto bytes = make_chunk(sample_table(), LayoutId::RowMajor);
  std::size_t payload_offset = 0;
  const ChunkHeader h = decode_chunk_header(bytes, &payload_offset);
  bytes[payload_offset + 5] ^= std::byte{0x80};
  EXPECT_THROW(chunk_payload(bytes, h, payload_offset), FormatError);

  // 15 rows x 12 B = 180 B: 22 eight-byte words and a 4-byte tail, so a
  // flip in the first word, the last word and the tail each lands in a
  // different part of the CRC loop.
  const auto clean = make_chunk(sample_table(15), LayoutId::RowMajor);
  const ChunkHeader h15 = decode_chunk_header(clean, &payload_offset);
  ASSERT_EQ(h15.payload_size, 180u);
  EXPECT_NO_THROW(chunk_payload(clean, h15, payload_offset));
  for (std::size_t at : {std::size_t{3}, std::size_t{170}, std::size_t{178}}) {
    auto flipped = clean;
    flipped[payload_offset + at] ^= std::byte{0x10};
    EXPECT_THROW(chunk_payload(flipped, h15, payload_offset), FormatError)
        << "payload byte " << at;
  }
}

TEST(ChunkFormat, TruncationRejected) {
  const auto bytes = make_chunk(sample_table(), LayoutId::RowMajor);
  // Header-level truncation.
  std::span<const std::byte> cut(bytes.data(), 10);
  EXPECT_THROW(decode_chunk_header(cut, nullptr), FormatError);
  // Payload-level truncation.
  std::size_t payload_offset = 0;
  const ChunkHeader h = decode_chunk_header(bytes, &payload_offset);
  std::span<const std::byte> cut2(bytes.data(), bytes.size() - 2);
  EXPECT_THROW(chunk_payload(cut2, h, payload_offset), FormatError);
}

TEST(ChunkFormat, UnknownLayoutRejected) {
  // Hand-craft a header with layout id 7.
  const SubTable st = sample_table();
  ByteWriter w;
  w.put_u32(kChunkMagic);
  w.put_u16(kChunkVersion);
  w.put_u16(7);
  EXPECT_THROW(decode_chunk_header(w.bytes(), nullptr), FormatError);
}

TEST(ChunkFormat, WrongVersionRejected) {
  ByteWriter w;
  w.put_u32(kChunkMagic);
  w.put_u16(kChunkVersion + 1);
  w.put_u16(0);
  EXPECT_THROW(decode_chunk_header(w.bytes(), nullptr), FormatError);
}

TEST(MemoryChunkStore, AppendAndRead) {
  MemoryChunkStore store;
  const auto bytes = make_chunk(sample_table(), LayoutId::RowMajor);
  ChunkLocation a = store.append(0, bytes);
  ChunkLocation b = store.append(0, bytes);
  EXPECT_EQ(a.offset, 0u);
  EXPECT_EQ(b.offset, bytes.size());
  EXPECT_EQ(store.total_bytes(), 2 * bytes.size());
  const auto back = store.read(b);
  EXPECT_TRUE(std::equal(bytes.begin(), bytes.end(), back.begin()));
}

TEST(MemoryChunkStore, SeparateFiles) {
  MemoryChunkStore store;
  std::vector<std::byte> one(10, std::byte{1});
  std::vector<std::byte> two(20, std::byte{2});
  const auto la = store.append(1, one);
  const auto lb = store.append(2, two);
  EXPECT_EQ(store.read(la).size(), 10u);
  EXPECT_EQ(store.read(lb).size(), 20u);
}

TEST(MemoryChunkStore, OutOfBoundsReadThrows) {
  MemoryChunkStore store;
  store.append(0, std::vector<std::byte>(8));
  ChunkLocation loc;
  loc.file_no = 0;
  loc.offset = 4;
  loc.size = 8;
  EXPECT_THROW(store.read(loc), IoError);
  loc.file_no = 9;
  EXPECT_THROW(store.read(loc), NotFound);
}

TEST(FileChunkStore, AppendAndReadAcrossReopen) {
  TempDir dir("orvstore");
  const auto bytes = make_chunk(sample_table(), LayoutId::ColMajor);
  ChunkLocation loc;
  {
    FileChunkStore store(dir.path());
    loc = store.append(3, bytes);
  }
  FileChunkStore reopened(dir.path());
  const auto back = reopened.read(loc);
  EXPECT_TRUE(std::equal(bytes.begin(), bytes.end(), back.begin()));
  // And it still parses as a chunk.
  const SubTable st = extract_chunk(back);
  EXPECT_EQ(st.num_rows(), 16u);
}

TEST(FileChunkStore, MissingFileThrows) {
  TempDir dir("orvstore");
  FileChunkStore store(dir.path());
  ChunkLocation loc;
  loc.file_no = 42;
  loc.size = 4;
  EXPECT_THROW(store.read(loc), IoError);
}

TEST(FileChunkStore, ShortReadThrows) {
  TempDir dir("orvstore");
  FileChunkStore store(dir.path());
  auto loc = store.append(0, std::vector<std::byte>(16));
  loc.size = 32;  // beyond EOF
  EXPECT_THROW(store.read(loc), IoError);
}

TEST(ChunkLocation, ToString) {
  ChunkLocation loc{2, 1, 64, 128};
  EXPECT_EQ(loc.to_string(), "node2:file1@64+128");
}

}  // namespace
}  // namespace orv
