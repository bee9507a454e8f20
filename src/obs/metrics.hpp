#pragma once

// Thread-safe metrics registry of counters and gauges, plus the
// fixed-bucket Histogram (the Prometheus exposition's accumulator for
// stage durations), the time-windowed instruments, and the two quantile
// rules: interpolation inside a bucket and the exact nearest rank.
//
// Instruments are created on first use and owned by the registry; the
// returned references stay valid for the registry's lifetime, so hot
// paths should resolve an instrument once per scope and reuse it. All
// mutation is lock-free (relaxed atomics); only name resolution and
// snapshotting take the registry mutex. Stage time is not a registry
// instrument: spans record it (obs/span.hpp), and every sink reads it
// from them.

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace orv::obs {

class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  void add(double d) {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + d,
                                     std::memory_order_relaxed)) {
    }
  }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed upper-bound buckets (ascending), with an implicit +inf bucket at
/// the end. A value lands in the first bucket whose bound is >= value.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double v);

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }

  const std::vector<double>& bounds() const { return bounds_; }
  std::vector<std::uint64_t> bucket_counts() const;

 private:
  std::vector<double> bounds_;  // ascending upper bounds, +inf excluded
  std::vector<std::atomic<std::uint64_t>> buckets_;  // bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Exponential bucket bounds: start, start*factor, ... (n bounds).
std::vector<double> exponential_bounds(double start, double factor,
                                       std::size_t n);

/// Default bounds for durations in seconds: 1us .. ~1000s, x2 steps.
const std::vector<double>& duration_bounds();

/// Quantile estimator over fixed-bound bucket counts (the windowed
/// merge's): rank = max(1, ceil(q*n)), linear interpolation between the
/// owning bucket's lower and upper bound; the first bucket's lower edge is
/// the observed minimum, ranks landing in the +inf bucket return the
/// observed maximum.
double quantile_from_buckets(const std::vector<double>& bounds,
                             const std::vector<std::uint64_t>& buckets,
                             std::uint64_t count, double min_v, double max_v,
                             double q);

/// Exact nearest-rank quantile of `sorted` (ascending): the element of
/// 1-based rank ceil(q*n), the first element when that rank is 0, and 0
/// for an empty input.
double exact_quantile(const std::vector<double>& sorted, double q);

/// Time-windowed counter: a ring of `slots` buckets, each covering
/// `slot_seconds` of (virtual or wall) time. Mutations carry an explicit
/// timestamp — under the simulation clock that keeps windowed rates
/// deterministic and replayable. Slots older than the window are lazily
/// zeroed as time advances; totals and rates are evaluated "as of" the
/// most recent event time, so a snapshot never depends on when it is
/// taken, only on what was observed.
class WindowedCounter {
 public:
  WindowedCounter(double slot_seconds, std::size_t slots);

  void add(double t, std::uint64_t n = 1);

  /// Sum over the window ending at the last observed event time.
  std::uint64_t windowed_total() const;
  /// windowed_total / window_seconds, events per second.
  double rate() const;

  double window_seconds() const {
    return slot_seconds_ * static_cast<double>(counts_.size());
  }
  double last_time() const;

 private:
  std::int64_t epoch_of(double t) const;

  mutable std::mutex mu_;
  double slot_seconds_;
  double last_time_ = 0;
  std::vector<std::uint64_t> counts_;
  std::vector<std::int64_t> epochs_;  // slot epoch owning each ring entry
};

/// Time-windowed histogram: same ring-of-slots scheme, each slot holding a
/// full bucket-count vector plus count/sum/min/max, from which the merge
/// estimates windowed p50/p95/p99.
class WindowedHistogram {
 public:
  WindowedHistogram(std::vector<double> upper_bounds, double slot_seconds,
                    std::size_t slots);

  void observe(double t, double v);

  struct Merged {
    std::uint64_t count = 0;
    double sum = 0, min = 0, max = 0;
    double p50 = 0, p95 = 0, p99 = 0;
  };
  /// Merges the slots of the window ending at the last event time.
  Merged merged() const;

  double window_seconds() const {
    return slot_seconds_ * static_cast<double>(slots_.size());
  }
  const std::vector<double>& bounds() const { return bounds_; }

 private:
  struct Slot {
    std::int64_t epoch = std::numeric_limits<std::int64_t>::min();
    std::vector<std::uint64_t> buckets;
    std::uint64_t count = 0;
    double sum = 0;
    double min = std::numeric_limits<double>::infinity();
    double max = -std::numeric_limits<double>::infinity();
  };

  std::int64_t epoch_of(double t) const;

  mutable std::mutex mu_;
  std::vector<double> bounds_;
  double slot_seconds_;
  double last_time_ = 0;
  std::vector<Slot> slots_;
};

/// The registry's instruments by name, in name order.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
};

class Registry {
 public:
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);

  MetricsSnapshot snapshot() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
};

}  // namespace orv::obs
