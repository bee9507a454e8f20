#pragma once

// Shared pieces of the host-time benchmark: command-line options, the
// result report (metrics, attempted/failed counts), timing statistics,
// the fixed reference kernel, the span tracer of the traced run, and the
// timing decorators the traced run installs around chunk stores and
// extractors. Everything here sits outside the library and drives only
// its public API.

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "chunkio/chunk_store.hpp"
#include "extract/extractor.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where the traced run writes its spans (JSON lines); empty = nowhere.
  std::string trace_out;
  /// Scratch directory for files a workload writes (views_local's chunk
  /// files); created and removed by the workload.
  std::string work_dir = ".bench_build/work";
  /// Self-test hook: corrupt the reference fingerprint of this check
  /// (0-based, in check order) so the report must show one failure.
  long flip_check = -1;
};

/// Results of timed work are stored here so the work cannot be elided.
inline volatile std::uint64_t sink = 0;

/// Host clock used for every timed interval.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double ms_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e6;
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one run prints: metrics in insertion order, operation counts and
/// free-form note lines (printed before the JSON result line).
class Report {
 public:
  /// `flip_check` is Options::flip_check.
  explicit Report(long flip_check) : flip_check_(flip_check) {}

  void metric(const std::string& name, double value, const std::string& unit);
  /// Reports a per-layer metric of a layer this workload does not exercise
  /// (or whose count its public API does not expose) as 0, and lists it in
  /// a note. Every workload prints every metric of its mode.
  void unmeasured(const std::string& name, const std::string& unit);
  void note(const std::string& line) { notes_.push_back(line); }

  /// Records one checked operation: counts it as attempted and as failed
  /// unless `ok`.
  void operation(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }

  /// Records one checked query: its result fingerprint and row count
  /// against the reference's. Honours the self-test's flip_check hook.
  /// Returns whether they matched.
  bool check(std::uint64_t got_fp, std::uint64_t got_rows,
             std::uint64_t want_fp, std::uint64_t want_rows);

  /// Notes, then the single JSON result line, on stdout.
  void print() const;

 private:
  long flip_check_;
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
  std::vector<std::string> unmeasured_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  long checks_ = 0;
};

double median(std::vector<double> v);

/// The highest percentile with at least ten samples beyond it: with n
/// samples sorted ascending, the value at rank n - 10 (1-based).
struct Tail {
  double value = 0;
  double percentile = 0;
  std::size_t samples = 0;
};
Tail tail(std::vector<double> v);

/// Peak resident set size of this process since the last
/// reset_peak_rss(), in MB (VmHWM).
double peak_rss_mb();
/// Restarts the peak RSS count at the current RSS, so memory the untimed
/// reference computations used and freed is not reported.
void reset_peak_rss();

/// A fixed single-thread reference kernel (a sort, then random probes of a
/// 16 MB table), timed as the fastest of three repetitions. It exercises no
/// library code, so it moves only with the machine's speed.
double reference_kernel_ms();

/// One timed host interval.
struct HostInterval {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Tracks the machine's speed through the run by timing the reference
/// kernel every second between queries, and scales host intervals to a
/// nominal machine on which the kernel takes kNominalMs. A shared VM's
/// speed can drift by a third within minutes; one run's scaled times do not
/// drift with it, while a change to the library still moves them 1:1 (the
/// kernel shares no code with it). One kernel time is noisier than the
/// machine, so every interval of a run is scaled by the run's median
/// kernel time. Raw times are kept in the notes.
class SpeedGauge {
 public:
  static constexpr double kNominalMs = 30.0;
  static constexpr double kEverySeconds = 1.0;
  /// Library host time drifts more than the kernel: over 50 runs of the
  /// three workloads, the log-log slope of run time against kernel time
  /// was 1.0-1.8. Scaling by (kNominalMs / kernel ms)^kDriftExponent
  /// cancels most of that; at equal machine speed it changes nothing.
  static constexpr double kDriftExponent = 1.5;

  /// Times the kernel now.
  void sample();
  /// Times the kernel if the last sample is older than kEverySeconds.
  void maybe_sample();

  /// The interval's host ms on the nominal machine: raw ms times
  /// (kNominalMs / the run's median kernel time)^kDriftExponent. Valid
  /// once the run's last sample is taken.
  double scaled_ms(const HostInterval& iv) const;

  std::size_t samples() const { return samples_.size(); }
  double first_ms() const { return samples_.front(); }
  double last_ms() const { return samples_.back(); }
  double min_ms() const;
  double max_ms() const;
  double median_ms() const { return median(samples_); }

 private:
  std::vector<double> samples_;  // kernel ms, in sampling order
  std::int64_t last_ns_ = 0;
};

SpeedGauge& gauge();

/// Sum of the scaled host seconds of the intervals.
double scaled_seconds(const std::vector<HostInterval>& intervals);
/// Sum of the raw host seconds of the intervals.
double raw_seconds(const std::vector<HostInterval>& intervals);
/// Median length of the intervals in seconds, scaled or raw.
double median_seconds(const std::vector<HostInterval>& intervals,
                      bool scaled);

/// Notes the gauge's range for the run ("bench.ref_ms ...").
void note_gauge(Report& report);

// ---------------------------------------------------------------------------
// Tracing

/// One recorded span: a timed call at a layer boundary.
struct SpanRecord {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  // index into the span list, -1 = root
  std::uint32_t query = 0;   // shared by the spans of one query; 0 = none
};

/// In-memory span recorder. Off by default; the traced phase of a traced
/// run turns it on. Single-threaded, like every workload.
class Tracer {
 public:
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Starts a new query id for the spans opened until the next call.
  void begin_query() { query_ = ++last_query_; }
  void end_query() { query_ = 0; }

  std::int32_t open(const char* name);
  void close(std::int32_t index);

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Self time of every span name: the span's duration minus the parts of
  /// it its child spans cover, summed per name, in ms.
  struct SelfTime {
    std::string name;
    std::size_t count = 0;
    double total_ms = 0;
    double self_ms = 0;
  };
  std::vector<SelfTime> self_times() const;

  /// Per-query self time of `root` spans: the span minus every descendant
  /// whose name starts with one of `exclude_prefixes`, in ms.
  std::vector<double> self_ms_excluding(
      const char* root, const std::vector<std::string>& exclude_prefixes) const;

  /// Writes every span as one JSON object per line.
  bool write(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::vector<SpanRecord> spans_;
  std::int32_t current_ = -1;
  std::uint32_t query_ = 0;
  std::uint32_t last_query_ = 0;
};

Tracer& tracer();

/// RAII span; records nothing while the tracer is off.
class Span {
 public:
  explicit Span(const char* name)
      : index_(tracer().enabled() ? tracer().open(name) : -1) {}
  ~Span() {
    if (index_ >= 0) tracer().close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::int32_t index_;
};

// ---------------------------------------------------------------------------
// Timing decorators (traced run only)

/// Byte and time totals of one decorated operation kind.
struct IoCounter {
  std::uint64_t calls = 0;
  std::uint64_t bytes = 0;
  std::int64_t ns = 0;
};

/// Forwards to an inner store; opens a span and counts calls, bytes and
/// host time of every read and append. Every chunk location read is kept
/// so the CRC check can be replayed afterwards.
class TimedStore final : public orv::ChunkStore {
 public:
  explicit TimedStore(std::shared_ptr<orv::ChunkStore> inner)
      : inner_(std::move(inner)) {}

  std::vector<std::byte> read(const orv::ChunkLocation& loc) const override;
  orv::ChunkLocation append(std::uint32_t file_no,
                            std::span<const std::byte> bytes) override;
  std::uint64_t total_bytes() const override { return inner_->total_bytes(); }

  const orv::ChunkStore& inner() const { return *inner_; }
  const IoCounter& reads() const { return reads_; }
  const IoCounter& appends() const { return appends_; }
  const std::vector<orv::ChunkLocation>& read_log() const { return log_; }

 private:
  std::shared_ptr<orv::ChunkStore> inner_;
  mutable IoCounter reads_;
  IoCounter appends_;
  mutable std::vector<orv::ChunkLocation> log_;
};

/// Wraps every store of a dataset in a TimedStore (same node order).
std::vector<std::shared_ptr<orv::ChunkStore>> timed_stores(
    const std::vector<std::shared_ptr<orv::ChunkStore>>& stores);

/// Extractor wrapper: forwards to a built-in layout extractor, opening a
/// span and counting rows and host time per call.
class TimedExtractor final : public orv::Extractor {
 public:
  explicit TimedExtractor(std::unique_ptr<orv::Extractor> inner);

  orv::LayoutId layout() const override { return inner_->layout(); }
  std::string name() const override { return inner_->name(); }
  orv::SubTable extract(const orv::ChunkHeader& header,
                        std::span<const std::byte> payload) const override;
  std::vector<std::byte> encode(const orv::SubTable& table) const override {
    return inner_->encode(table);
  }

 private:
  std::unique_ptr<orv::Extractor> inner_;
  std::string span_name_;
};

/// Row and time totals per layout, filled by the TimedExtractors.
struct ExtractCounter {
  std::uint64_t rows = 0;
  std::uint64_t bytes = 0;
  std::int64_t ns = 0;
};
ExtractCounter& extract_counter(orv::LayoutId layout);

/// Registers TimedExtractors over the three built-in layouts in
/// ExtractorRegistry::global() (later registrations win). Idempotent.
void install_timed_extractors();

/// What a traced run measured around its two phases: the untraced one
/// and the traced one over timed stores and extractors.
struct TracedRun {
  /// Queries whose fingerprint or virtual times differ between phases.
  std::uint64_t mismatches = 0;
  double untraced_qps = 0;
  double traced_qps = 0;
  /// Dataset bytes generated by the traced set-up, and its datagen time.
  double datagen_bytes = 0;
  double datagen_seconds = 0;
};

/// Reports what every traced run reports (the gauge, mismatches, tracing
/// overhead, datagen, and the chunkio and extract layers of the traced
/// phase's stores); each mismatch also counts as a failed operation.
void report_traced_run(Report& report, const TracedRun& run,
                       const std::vector<std::shared_ptr<orv::ChunkStore>>&
                           stores);

/// query.parse_us: median host us of one parse_query call over the given
/// SQL texts, each parsed `repeats` times.
double median_parse_us(const std::vector<std::string>& sql, int repeats);

/// Writes the tracer's spans (when asked) and reports per-name self times
/// as notes.
void finish_trace(Report& report, const Options& options);

}  // namespace perfbench
