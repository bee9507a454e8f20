#pragma once

// Chunk stores: where a storage node's chunk bytes physically live.
//
// The MetaData Service records a ChunkLocation per chunk (storage node,
// file, offset, size — the paper's "location of the chunk in the storage
// system"). A ChunkStore resolves locations to bytes. Two implementations:
// FileChunkStore for real flat files on disk (examples, ingestion-free
// operation) and MemoryChunkStore for the deterministic cluster simulation
// (benches, tests).

#include <cstdint>
#include <filesystem>
#include <map>
#include <span>
#include <string>
#include <vector>

namespace orv {

/// Physical address of a chunk: the smallest unit of retrieval.
struct ChunkLocation {
  std::uint32_t storage_node = 0;
  std::uint32_t file_no = 0;
  std::uint64_t offset = 0;
  std::uint64_t size = 0;

  bool operator==(const ChunkLocation&) const = default;
  std::string to_string() const;

  /// True when `next` starts on disk right where this chunk ends (same
  /// node, same file): reading both costs one seek, not two.
  bool followed_by(const ChunkLocation& next) const {
    return storage_node == next.storage_node && file_no == next.file_no &&
           offset + size == next.offset;
  }
};

/// Read/append access to one storage node's chunk files.
class ChunkStore {
 public:
  virtual ~ChunkStore() = default;

  /// Reads the chunk bytes at `loc` (node field ignored — the store *is*
  /// the node). Throws IoError / FormatError on failure.
  virtual std::vector<std::byte> read(const ChunkLocation& loc) const = 0;

  /// Appends a chunk to the given file and returns its location (with
  /// storage_node left 0 for the caller to fill in).
  virtual ChunkLocation append(std::uint32_t file_no,
                               std::span<const std::byte> bytes) = 0;

  /// Total bytes stored across all files.
  virtual std::uint64_t total_bytes() const = 0;
};

/// In-memory store: one growable buffer per file number.
class MemoryChunkStore final : public ChunkStore {
 public:
  std::vector<std::byte> read(const ChunkLocation& loc) const override;
  ChunkLocation append(std::uint32_t file_no,
                       std::span<const std::byte> bytes) override;
  std::uint64_t total_bytes() const override;

 private:
  std::map<std::uint32_t, std::vector<std::byte>> files_;
};

/// Flat files under a directory: file_no N maps to "chunks_N.orv".
class FileChunkStore final : public ChunkStore {
 public:
  explicit FileChunkStore(std::filesystem::path root);

  std::vector<std::byte> read(const ChunkLocation& loc) const override;
  ChunkLocation append(std::uint32_t file_no,
                       std::span<const std::byte> bytes) override;
  std::uint64_t total_bytes() const override;

  std::filesystem::path file_path(std::uint32_t file_no) const;

 private:
  std::filesystem::path root_;
};

}  // namespace orv
