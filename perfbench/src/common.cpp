#include "common.hpp"

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>

#include "chunkio/chunk_format.hpp"
#include "query/parser.hpp"

namespace perfbench {

// ---------------------------------------------------------------------------
// Report

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::unmeasured(const std::string& name, const std::string& unit) {
  metric(name, 0, unit);
  unmeasured_.push_back(name);
}

bool Report::check(std::uint64_t got_fp, std::uint64_t got_rows,
                   std::uint64_t want_fp, std::uint64_t want_rows) {
  if (checks_++ == flip_check_) want_fp ^= 1;
  const bool ok = got_fp == want_fp && got_rows == want_rows;
  operation(ok);
  return ok;
}

void Report::print() const {
  for (const auto& line : notes_) std::printf("%s\n", line.c_str());
  if (!unmeasured_.empty()) {
    std::string line = "not measured on this workload (reported as 0):";
    for (const auto& name : unmeasured_) line += " " + name;
    std::printf("%s\n", line.c_str());
  }
  std::string out = "{\"correct\": ";
  out += failed_ == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics_[i].value);
    if (i) out += ", ";
    out += "\"" + metrics_[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics_[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// Statistics

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail tail(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  const std::size_t rank = n > 10 ? n - 10 : 1;  // 1-based
  t.value = v[rank - 1];
  t.percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  return t;
}

double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return 0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof line, f)) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

void reset_peak_rss() {
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

double reference_kernel_ms() {
  constexpr std::size_t kSort = 1 << 17;
  constexpr std::size_t kTable = 1 << 22;  // 16 MB of uint32
  constexpr std::size_t kProbes = 1 << 17;
  static std::vector<std::uint32_t> table(kTable, 1);
  std::vector<double> reps;
  for (int rep = 0; rep < 3; ++rep) {
    const std::int64_t start = now_ns();
    std::vector<std::uint64_t> v(kSort);
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (auto& e : v) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      e = x;
    }
    std::sort(v.begin(), v.end());
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < kProbes; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      auto& slot = table[(x ^ acc) & (kTable - 1)];
      slot += static_cast<std::uint32_t>(v[i & (kSort - 1)]);
      acc += slot;
    }
    sink = acc;
    reps.push_back(ms_since(start));
  }
  return *std::min_element(reps.begin(), reps.end());
}

SpeedGauge& gauge() {
  static SpeedGauge g;
  return g;
}

void SpeedGauge::sample() {
  samples_.push_back(reference_kernel_ms());
  last_ns_ = now_ns();
}

void SpeedGauge::maybe_sample() {
  if (samples_.empty() || now_ns() - last_ns_ > kEverySeconds * 1e9) {
    sample();
  }
}

double SpeedGauge::scaled_ms(const HostInterval& iv) const {
  const double raw = static_cast<double>(iv.end_ns - iv.start_ns) / 1e6;
  return samples_.empty()
             ? raw
             : raw * std::pow(kNominalMs / median_ms(), kDriftExponent);
}

double SpeedGauge::min_ms() const {
  return *std::min_element(samples_.begin(), samples_.end());
}

double SpeedGauge::max_ms() const {
  return *std::max_element(samples_.begin(), samples_.end());
}

double scaled_seconds(const std::vector<HostInterval>& intervals) {
  double s = 0;
  for (const auto& iv : intervals) s += gauge().scaled_ms(iv) / 1e3;
  return s;
}

double raw_seconds(const std::vector<HostInterval>& intervals) {
  double s = 0;
  for (const auto& iv : intervals) {
    s += static_cast<double>(iv.end_ns - iv.start_ns) / 1e9;
  }
  return s;
}

double median_seconds(const std::vector<HostInterval>& intervals,
                      bool scaled) {
  std::vector<double> v;
  for (const auto& iv : intervals) {
    v.push_back(scaled ? scaled_seconds({iv}) : raw_seconds({iv}));
  }
  return median(v);
}

void note_gauge(Report& report) {
  const SpeedGauge& g = gauge();
  char line[200];
  std::snprintf(line, sizeof line,
                "bench.ref_ms: %zu samples, median %.3f first %.3f last %.3f "
                "min %.3f max %.3f (nominal %.1f)",
                g.samples(), g.median_ms(), g.first_ms(), g.last_ms(),
                g.min_ms(), g.max_ms(), SpeedGauge::kNominalMs);
  report.note(line);
}

// ---------------------------------------------------------------------------
// Tracer

Tracer& tracer() {
  static Tracer t;
  return t;
}

std::int32_t Tracer::open(const char* name) {
  SpanRecord s;
  s.name = name;
  s.start_ns = now_ns();
  s.parent = current_;
  s.query = query_;
  spans_.push_back(s);
  current_ = static_cast<std::int32_t>(spans_.size() - 1);
  return current_;
}

void Tracer::close(std::int32_t index) {
  SpanRecord& s = spans_[static_cast<std::size_t>(index)];
  s.end_ns = now_ns();
  current_ = s.parent;
}

std::vector<Tracer::SelfTime> Tracer::self_times() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const auto& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, SelfTime> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    SelfTime& t = by_name[s.name];
    t.name = s.name;
    ++t.count;
    t.total_ms += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    t.self_ms += static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) / 1e6;
  }
  std::vector<SelfTime> out;
  for (auto& [name, t] : by_name) out.push_back(t);
  std::sort(out.begin(), out.end(), [](const SelfTime& a, const SelfTime& b) {
    return a.self_ms > b.self_ms;
  });
  return out;
}

std::vector<double> Tracer::self_ms_excluding(
    const char* root, const std::vector<std::string>& exclude_prefixes) const {
  const std::string root_name = root;
  auto excluded = [&](const char* name) {
    for (const auto& p : exclude_prefixes) {
      if (std::string_view(name).starts_with(p)) return true;
    }
    return false;
  };
  // Spans are stored in open order, so a span's root ancestor precedes it.
  std::vector<std::int32_t> root_of(spans_.size(), -1);
  std::vector<std::int64_t> excluded_ns(spans_.size(), 0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    if (root_name == s.name) {
      root_of[i] = static_cast<std::int32_t>(i);
      continue;
    }
    if (s.parent < 0) continue;
    const std::int32_t r = root_of[static_cast<std::size_t>(s.parent)];
    root_of[i] = r;
    // Count only the outermost excluded span of a nest.
    const bool parent_excluded =
        excluded(spans_[static_cast<std::size_t>(s.parent)].name);
    if (r >= 0 && excluded(s.name) && !parent_excluded) {
      excluded_ns[static_cast<std::size_t>(r)] += s.end_ns - s.start_ns;
    }
  }
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (root_name != spans_[i].name) continue;
    out.push_back(static_cast<double>(spans_[i].end_ns - spans_[i].start_ns -
                                      excluded_ns[i]) /
                  1e6);
  }
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%" PRId64
                 ",\"end_ns\":%" PRId64 ",\"parent\":%d,\"query\":%u}\n",
                 i, s.name, s.start_ns, s.end_ns, s.parent, s.query);
  }
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------------
// Decorators

std::vector<std::byte> TimedStore::read(const orv::ChunkLocation& loc) const {
  Span span("chunkio.read");
  const std::int64_t start = now_ns();
  auto bytes = inner_->read(loc);
  reads_.ns += now_ns() - start;
  ++reads_.calls;
  reads_.bytes += bytes.size();
  log_.push_back(loc);
  return bytes;
}

orv::ChunkLocation TimedStore::append(std::uint32_t file_no,
                                      std::span<const std::byte> bytes) {
  Span span("chunkio.append");
  const std::int64_t start = now_ns();
  const auto loc = inner_->append(file_no, bytes);
  appends_.ns += now_ns() - start;
  ++appends_.calls;
  appends_.bytes += bytes.size();
  return loc;
}

std::vector<std::shared_ptr<orv::ChunkStore>> timed_stores(
    const std::vector<std::shared_ptr<orv::ChunkStore>>& stores) {
  std::vector<std::shared_ptr<orv::ChunkStore>> out;
  for (const auto& s : stores) out.push_back(std::make_shared<TimedStore>(s));
  return out;
}

namespace {

const TimedStore& as_timed(const std::shared_ptr<orv::ChunkStore>& s) {
  return dynamic_cast<const TimedStore&>(*s);
}

IoCounter total_reads(const std::vector<std::shared_ptr<orv::ChunkStore>>& s) {
  IoCounter c;
  for (const auto& store : s) {
    const IoCounter& r = as_timed(store).reads();
    c.calls += r.calls;
    c.bytes += r.bytes;
    c.ns += r.ns;
  }
  return c;
}

IoCounter total_appends(
    const std::vector<std::shared_ptr<orv::ChunkStore>>& s) {
  IoCounter c;
  for (const auto& store : s) {
    const IoCounter& a = as_timed(store).appends();
    c.calls += a.calls;
    c.bytes += a.bytes;
    c.ns += a.ns;
  }
  return c;
}

double replay_verify_ns_per_byte(
    const std::vector<std::shared_ptr<orv::ChunkStore>>& s) {
  std::int64_t ns = 0;
  std::uint64_t bytes = 0;
  for (const auto& store : s) {
    const TimedStore& timed = as_timed(store);
    for (const auto& loc : timed.read_log()) {
      const auto chunk = timed.inner().read(loc);
      const std::int64_t start = now_ns();
      std::size_t payload_offset = 0;
      const auto header = orv::decode_chunk_header(chunk, &payload_offset);
      const auto payload = orv::chunk_payload(chunk, header, payload_offset);
      ns += now_ns() - start;
      bytes += chunk.size();
      sink = payload.size();
    }
  }
  return bytes ? static_cast<double>(ns) / static_cast<double>(bytes) : 0.0;
}

std::array<ExtractCounter, 3>& extract_counters() {
  static std::array<ExtractCounter, 3> counters;
  return counters;
}

const char* layout_label(orv::LayoutId layout) {
  switch (layout) {
    case orv::LayoutId::RowMajor: return "row-major";
    case orv::LayoutId::ColMajor: return "col-major";
    case orv::LayoutId::BlockedRows: return "blocked-rows";
  }
  return "unknown";
}

}  // namespace

ExtractCounter& extract_counter(orv::LayoutId layout) {
  return extract_counters().at(static_cast<std::size_t>(layout));
}

TimedExtractor::TimedExtractor(std::unique_ptr<orv::Extractor> inner)
    : inner_(std::move(inner)),
      span_name_(std::string("extract.") + layout_label(inner_->layout())) {}

orv::SubTable TimedExtractor::extract(
    const orv::ChunkHeader& header, std::span<const std::byte> payload) const {
  Span span(span_name_.c_str());
  const std::int64_t start = now_ns();
  orv::SubTable table = inner_->extract(header, payload);
  ExtractCounter& c = extract_counter(inner_->layout());
  c.ns += now_ns() - start;
  c.rows += table.num_rows();
  c.bytes += table.size_bytes();
  return table;
}

void install_timed_extractors() {
  static bool installed = false;
  if (installed) return;
  installed = true;
  auto& registry = orv::ExtractorRegistry::global();
  registry.register_extractor(std::make_unique<TimedExtractor>(
      std::make_unique<orv::RowMajorExtractor>()));
  registry.register_extractor(std::make_unique<TimedExtractor>(
      std::make_unique<orv::ColMajorExtractor>()));
  registry.register_extractor(std::make_unique<TimedExtractor>(
      std::make_unique<orv::BlockedRowsExtractor>()));
}

void report_traced_run(
    Report& report, const TracedRun& run,
    const std::vector<std::shared_ptr<orv::ChunkStore>>& s) {
  for (std::uint64_t i = 0; i < run.mismatches; ++i) report.operation(false);
  report.metric("bench.ref_ms", gauge().median_ms(), "ms");
  note_gauge(report);
  report.metric("bench.trace_mismatches", static_cast<double>(run.mismatches),
                "count");
  report.metric("obs.trace_overhead_frac",
                run.untraced_qps / run.traced_qps - 1.0, "ratio");
  report.metric("datagen.mb_per_s",
                run.datagen_bytes / 1e6 / run.datagen_seconds, "MB/s");
  const IoCounter appends = total_appends(s);
  report.metric("chunkio.append_ns_per_byte",
                static_cast<double>(appends.ns) /
                    static_cast<double>(appends.bytes),
                "ns/B");
  const IoCounter reads = total_reads(s);
  report.metric("chunkio.reads", static_cast<double>(reads.calls), "count");
  report.metric("chunkio.read_ns_per_byte",
                reads.bytes ? static_cast<double>(reads.ns) /
                                  static_cast<double>(reads.bytes)
                            : 0.0,
                "ns/B");
  report.metric("chunkio.verify_ns_per_byte", replay_verify_ns_per_byte(s),
                "ns/B");
  std::uint64_t user_bytes = 0;
  for (const auto layout : {orv::LayoutId::RowMajor, orv::LayoutId::ColMajor,
                            orv::LayoutId::BlockedRows}) {
    const ExtractCounter& c = extract_counter(layout);
    user_bytes += c.bytes;
    // No workload stores blocked rows; the other two layouts are always
    // reported, as 0 where the workload has no table in that layout.
    if (layout == orv::LayoutId::BlockedRows) continue;
    const std::string label = layout_label(layout);
    if (c.rows == 0) {
      report.unmeasured("extract.rows." + label, "count");
      report.unmeasured("extract.ns_per_row." + label, "ns/row");
      continue;
    }
    report.metric("extract.rows." + label, static_cast<double>(c.rows),
                  "count");
    report.metric("extract.ns_per_row." + label,
                  static_cast<double>(c.ns) / static_cast<double>(c.rows),
                  "ns/row");
  }
  report.metric("chunkio.bytes_per_user_byte",
                user_bytes ? static_cast<double>(reads.bytes) /
                                 static_cast<double>(user_bytes)
                           : 0.0,
                "ratio");
}

double median_parse_us(const std::vector<std::string>& sql, int repeats) {
  std::vector<double> us;
  for (int r = 0; r < repeats; ++r) {
    for (const auto& text : sql) {
      const std::int64_t t0 = now_ns();
      const orv::ParsedQuery parsed = orv::parse_query(text);
      us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
      sink = parsed.where.size();
    }
  }
  return median(us);
}

void finish_trace(Report& report, const Options& options) {
  const Tracer& t = tracer();
  report.note("self time per span name (traced phase, host ms):");
  report.note(
      "  name                          count     total_ms      self_ms");
  for (const auto& st : t.self_times()) {
    char line[160];
    std::snprintf(line, sizeof line, "  %-28s %6zu %12.3f %12.3f",
                  st.name.c_str(), st.count, st.total_ms, st.self_ms);
    report.note(line);
  }
  if (!options.trace_out.empty()) {
    if (t.write(options.trace_out)) {
      report.note("spans written to " + options.trace_out + " (" +
                  std::to_string(t.spans().size()) + " spans)");
    } else {
      report.note("cannot write spans to " + options.trace_out);
    }
  }
}

}  // namespace perfbench
