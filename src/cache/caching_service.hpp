#pragma once

// Caching Service (paper Section 4): per-compute-node cache of recently
// accessed sub-tables, used by QES instances to avoid re-fetching from BDS
// instances. Policy is LRU by default (the paper's choice); FIFO is
// provided for the scheduling/caching ablation benches.
//
// Entries may carry the hash table built on a left sub-table, so the
// Indexed Join builds each hash table only once (paper Section 5.1).
//
// Pinning: the pipelined Indexed Join prefetches sub-tables ahead of the
// join loop and pins them so eviction cannot undo a prefetch before the
// consumer reaches it. Pins are counted (one per prefetched pair
// occurrence); pinned entries are skipped by eviction, and invalidate() on
// a pinned entry is deferred — the entry stops being served immediately
// (doomed) but is only removed when the last pin is released.

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "join/hash_join.hpp"
#include "subtable/subtable.hpp"

namespace orv {

enum class CachePolicy { LRU, FIFO };

class CachingService {
 public:
  /// Point-in-time snapshot of the counters. The live counters are
  /// relaxed atomics (a session cache's stats may be read while worker
  /// threads drive queries through it), so readers always see torn-free
  /// values; stats() materializes this plain copy.
  ///
  /// Counting invariant: every get() increments exactly one of hits or
  /// misses *inside the structural lock*, so hits + misses equals the
  /// number of lookups even when other threads evict concurrently.
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t bytes_evicted = 0;
    std::uint64_t puts = 0;
    std::uint64_t invalidations = 0;

    double hit_rate() const {
      const auto total = hits + misses;
      return total ? static_cast<double>(hits) / total : 0.0;
    }

    Stats& operator+=(const Stats& o) {
      hits += o.hits;
      misses += o.misses;
      evictions += o.evictions;
      bytes_evicted += o.bytes_evicted;
      puts += o.puts;
      invalidations += o.invalidations;
      return *this;
    }
    Stats& operator-=(const Stats& o) {
      hits -= o.hits;
      misses -= o.misses;
      evictions -= o.evictions;
      bytes_evicted -= o.bytes_evicted;
      puts -= o.puts;
      invalidations -= o.invalidations;
      return *this;
    }
  };

  explicit CachingService(std::uint64_t capacity_bytes,
                          CachePolicy policy = CachePolicy::LRU);

  /// Looks up a sub-table; on a hit, refreshes recency (LRU).
  std::shared_ptr<const SubTable> get(SubTableId id);

  /// Hash table built for a cached left sub-table, if present.
  std::shared_ptr<const BuiltHashTable> get_hash_table(SubTableId id);

  /// Inserts a sub-table, evicting per policy if over capacity. An entry
  /// larger than the whole capacity is admitted alone (and evicts
  /// everything else): the QES must be able to process it regardless.
  /// Re-inserting a doomed id replaces the suspect bytes with fresh ones
  /// and clears the doom mark (existing pins carry over).
  void put(SubTableId id, std::shared_ptr<const SubTable> table);

  /// put() followed by pin() under one lock: the prefetcher's insert
  /// cannot race an eviction between the two.
  void put_pinned(SubTableId id, std::shared_ptr<const SubTable> table);

  /// Takes one pin on an existing entry (refreshing LRU recency). Returns
  /// false when the id is absent or doomed — the caller must fetch.
  /// Not a lookup: hit/miss counters are untouched.
  bool pin(SubTableId id);

  /// Releases one pin. The id must hold a pin; when the last pin of a
  /// doomed entry is released the entry is removed.
  void unpin(SubTableId id);

  /// Pins currently outstanding across all entries (test/debug aid).
  std::uint64_t pinned_count() const;

  /// Attaches a built hash table to an existing entry (no-op if the entry
  /// was evicted in between); its bytes count against capacity.
  void attach_hash_table(SubTableId id,
                         std::shared_ptr<const BuiltHashTable> ht);

  /// Drops an entry outright (e.g. its source failed a re-fetch, so the
  /// cached copy is suspect). A pinned entry is doomed instead: no longer
  /// served by get()/contains(), removed when its last pin is released.
  /// Returns true if an entry was removed or doomed.
  bool invalidate(SubTableId id);

  bool contains(SubTableId id) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(id);
    return it != map_.end() && !it->second->doomed;
  }
  std::size_t num_entries() const {
    std::lock_guard<std::mutex> lock(mu_);
    return map_.size();
  }
  std::uint64_t used_bytes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return used_bytes_;
  }
  std::uint64_t capacity_bytes() const { return capacity_bytes_; }
  Stats stats() const {
    Stats s;
    s.hits = stats_.hits.load(std::memory_order_relaxed);
    s.misses = stats_.misses.load(std::memory_order_relaxed);
    s.evictions = stats_.evictions.load(std::memory_order_relaxed);
    s.bytes_evicted = stats_.bytes_evicted.load(std::memory_order_relaxed);
    s.puts = stats_.puts.load(std::memory_order_relaxed);
    s.invalidations = stats_.invalidations.load(std::memory_order_relaxed);
    return s;
  }

  void clear();

 private:
  struct Entry {
    SubTableId id;
    std::shared_ptr<const SubTable> table;
    std::shared_ptr<const BuiltHashTable> hash_table;
    std::uint32_t pins = 0;
    bool doomed = false;  // invalidated while pinned; removed at unpin

    std::uint64_t bytes() const {
      return table->size_bytes() + (hash_table ? hash_table->table_bytes() : 0);
    }
  };

  struct AtomicStats {
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
    std::atomic<std::uint64_t> evictions{0};
    std::atomic<std::uint64_t> bytes_evicted{0};
    std::atomic<std::uint64_t> puts{0};
    std::atomic<std::uint64_t> invalidations{0};
  };

  void put_locked(SubTableId id, std::shared_ptr<const SubTable> table);
  void evict_until_fits(std::uint64_t incoming_bytes);
  void remove_entry(std::list<Entry>::iterator it);

  std::uint64_t capacity_bytes_;
  CachePolicy policy_;
  // Guards the structures AND the hit/miss classification: a lookup and
  // its counter bump happen atomically with respect to concurrent
  // eviction, keeping hits + misses == lookups exact under contention.
  mutable std::mutex mu_;
  std::uint64_t used_bytes_ = 0;
  // Recency list: front = next eviction victim.
  std::list<Entry> order_;
  std::unordered_map<SubTableId, std::list<Entry>::iterator, SubTableIdHash>
      map_;
  AtomicStats stats_;
};

}  // namespace orv
