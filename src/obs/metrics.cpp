#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace orv::obs {

namespace {

void atomic_add_double(std::atomic<double>& a, double d) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + d, std::memory_order_relaxed)) {
  }
}

}  // namespace

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)), buckets_(bounds_.size() + 1) {
  ORV_REQUIRE(std::is_sorted(bounds_.begin(), bounds_.end()),
              "histogram bounds must be ascending");
}

void Histogram::observe(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  buckets_[static_cast<std::size_t>(it - bounds_.begin())].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  atomic_add_double(sum_, v);
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(buckets_.size());
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

double quantile_from_buckets(const std::vector<double>& bounds,
                             const std::vector<std::uint64_t>& buckets,
                             std::uint64_t count, double min_v, double max_v,
                             double q) {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the target observation, 1-based: ceil(q * n), at least 1.
  const std::uint64_t rank = std::max<std::uint64_t>(
      1,
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count))));
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    const std::uint64_t in_bucket = buckets[b];
    if (cum + in_bucket < rank) {
      cum += in_bucket;
      continue;
    }
    if (b == bounds.size()) return max_v;  // +inf bucket
    // Interpolate within [lower, upper]; the first bucket's lower edge is
    // the observed minimum (clamped so it never exceeds the bound).
    const double upper = bounds[b];
    const double lower = b == 0 ? std::min(min_v, upper) : bounds[b - 1];
    const double frac = in_bucket == 0
                            ? 1.0
                            : static_cast<double>(rank - cum) /
                                  static_cast<double>(in_bucket);
    return lower + (upper - lower) * frac;
  }
  return max_v;
}

double exact_quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const auto n = static_cast<double>(sorted.size());
  const auto rank = static_cast<std::size_t>(std::ceil(q * n));
  return sorted[rank > 0 ? rank - 1 : 0];
}

WindowedCounter::WindowedCounter(double slot_seconds, std::size_t slots)
    : slot_seconds_(slot_seconds),
      counts_(slots, 0),
      epochs_(slots, std::numeric_limits<std::int64_t>::min()) {
  ORV_REQUIRE(slot_seconds > 0 && slots > 0,
              "windowed counter needs positive slot width and count");
}

std::int64_t WindowedCounter::epoch_of(double t) const {
  return static_cast<std::int64_t>(std::floor(t / slot_seconds_));
}

void WindowedCounter::add(double t, std::uint64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::int64_t e = epoch_of(t);
  const std::size_t idx =
      static_cast<std::size_t>(((e % static_cast<std::int64_t>(counts_.size())) +
                                static_cast<std::int64_t>(counts_.size())) %
                               static_cast<std::int64_t>(counts_.size()));
  if (epochs_[idx] != e) {
    epochs_[idx] = e;
    counts_[idx] = 0;
  }
  counts_[idx] += n;
  if (t > last_time_) last_time_ = t;
}

std::uint64_t WindowedCounter::windowed_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::int64_t newest = epoch_of(last_time_);
  const std::int64_t oldest =
      newest - static_cast<std::int64_t>(counts_.size()) + 1;
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (epochs_[i] >= oldest && epochs_[i] <= newest) total += counts_[i];
  }
  return total;
}

double WindowedCounter::rate() const {
  const double w = window_seconds();
  return w > 0 ? static_cast<double>(windowed_total()) / w : 0.0;
}

double WindowedCounter::last_time() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_time_;
}

WindowedHistogram::WindowedHistogram(std::vector<double> upper_bounds,
                                     double slot_seconds, std::size_t slots)
    : bounds_(std::move(upper_bounds)),
      slot_seconds_(slot_seconds),
      slots_(slots) {
  ORV_REQUIRE(slot_seconds > 0 && slots > 0,
              "windowed histogram needs positive slot width and count");
  ORV_REQUIRE(std::is_sorted(bounds_.begin(), bounds_.end()),
              "histogram bounds must be ascending");
  for (auto& s : slots_) s.buckets.assign(bounds_.size() + 1, 0);
}

std::int64_t WindowedHistogram::epoch_of(double t) const {
  return static_cast<std::int64_t>(std::floor(t / slot_seconds_));
}

void WindowedHistogram::observe(double t, double v) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::int64_t e = epoch_of(t);
  const std::size_t idx =
      static_cast<std::size_t>(((e % static_cast<std::int64_t>(slots_.size())) +
                                static_cast<std::int64_t>(slots_.size())) %
                               static_cast<std::int64_t>(slots_.size()));
  Slot& slot = slots_[idx];
  if (slot.epoch != e) {
    slot.epoch = e;
    std::fill(slot.buckets.begin(), slot.buckets.end(), 0);
    slot.count = 0;
    slot.sum = 0;
    slot.min = std::numeric_limits<double>::infinity();
    slot.max = -std::numeric_limits<double>::infinity();
  }
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  ++slot.buckets[static_cast<std::size_t>(it - bounds_.begin())];
  ++slot.count;
  slot.sum += v;
  slot.min = std::min(slot.min, v);
  slot.max = std::max(slot.max, v);
  if (t > last_time_) last_time_ = t;
}

WindowedHistogram::Merged WindowedHistogram::merged() const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::int64_t newest = epoch_of(last_time_);
  const std::int64_t oldest =
      newest - static_cast<std::int64_t>(slots_.size()) + 1;
  std::vector<std::uint64_t> buckets(bounds_.size() + 1, 0);
  Merged m;
  double min_v = std::numeric_limits<double>::infinity();
  double max_v = -std::numeric_limits<double>::infinity();
  for (const Slot& s : slots_) {
    if (s.epoch < oldest || s.epoch > newest || s.count == 0) continue;
    for (std::size_t b = 0; b < buckets.size(); ++b) buckets[b] += s.buckets[b];
    m.count += s.count;
    m.sum += s.sum;
    min_v = std::min(min_v, s.min);
    max_v = std::max(max_v, s.max);
  }
  if (m.count == 0) return m;
  m.min = min_v;
  m.max = max_v;
  m.p50 = quantile_from_buckets(bounds_, buckets, m.count, min_v, max_v, 0.50);
  m.p95 = quantile_from_buckets(bounds_, buckets, m.count, min_v, max_v, 0.95);
  m.p99 = quantile_from_buckets(bounds_, buckets, m.count, min_v, max_v, 0.99);
  return m;
}

std::vector<double> exponential_bounds(double start, double factor,
                                       std::size_t n) {
  ORV_REQUIRE(start > 0 && factor > 1, "need start > 0 and factor > 1");
  std::vector<double> out;
  out.reserve(n);
  double v = start;
  for (std::size_t i = 0; i < n; ++i, v *= factor) out.push_back(v);
  return out;
}

const std::vector<double>& duration_bounds() {
  static const std::vector<double> bounds =
      exponential_bounds(1e-6, 2.0, 30);  // 1us .. ~536s
  return bounds;
}

Counter& Registry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

MetricsSnapshot Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  for (const auto& [name, c] : counters_) {
    snap.counters.emplace_back(name, c->value());
  }
  for (const auto& [name, g] : gauges_) {
    snap.gauges.emplace_back(name, g->value());
  }
  return snap;
}

}  // namespace orv::obs
