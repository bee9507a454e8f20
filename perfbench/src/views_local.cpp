// views_local: the ingestion-free workstation path. Two tables of a
// 128 x 128 x 256 grid, T1 row-major and T2 col-major, in FileChunkStore
// files under the work directory; SQL through ViewFramework::query,
// sequential, no thread pool. A round is two R-tree-pruned range scans of
// T1, two queries over range-selected join views of T1 and T2 on (x, y, z)
// and one aggregation over such a view, in a seeded order at seeded,
// partition-aligned positions, so every query of a class does the same
// amount of work.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <optional>
#include <stdexcept>

#include "cluster/cluster.hpp"
#include "common/prng.hpp"
#include "common/strings.hpp"
#include "core/view_framework.hpp"
#include "datagen/generator.hpp"
#include "join/key.hpp"
#include "qps/planner.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::uint64_t kGx = 128, kGy = 128, kGz = 256;
constexpr std::uint64_t kSlab = 16;    // T1 partition edge; query alignment
constexpr std::uint64_t kWindow = 128;  // z extent of every query
constexpr std::size_t kNodes = 2;

/// Host seconds budgeted per round; the round count is derived from
/// --seconds with it, so a given --seconds always runs the same work.
constexpr double kRoundBudgetSeconds = 0.7;

/// Set-up repetitions whose median is setup_s.
constexpr int kSetupRepeats = 3;

enum class Kind { Scan, View, Aggregate };

/// Every query selects z in [c, c + kWindow). A scan also selects x in
/// [a, a + 2 kSlab) and y in [b, b + 2 kSlab); a view query reads the
/// join view over x in [a, a + kSlab); an aggregation aggregates the join
/// view over y in [b, b + kSlab).
struct Query {
  Kind kind = Kind::Scan;
  std::string sql;
  std::uint64_t a = 0, b = 0, c = 0;
};

/// The binder does not push a WHERE clause through a join (a selection
/// over V joins both whole tables first: 2.5 s per query on a 128^3
/// grid), so the range-selected join views are defined with their ranges
/// on the base tables, one view per slab and z window.
std::string view_name(Kind kind, std::uint64_t lo, std::uint64_t c) {
  return orv::strformat("%s%llu_%llu", kind == Kind::View ? "VX" : "VY",
                        (unsigned long long)(lo / kSlab),
                        (unsigned long long)(c / kWindow));
}

orv::DatasetSpec dataset_spec(std::uint64_t seed) {
  orv::DatasetSpec spec;
  spec.grid = {kGx, kGy, kGz};
  spec.part1 = {kSlab, kSlab, kSlab};
  spec.part2 = {32, 32, 8};
  spec.layout1 = orv::LayoutId::RowMajor;
  spec.layout2 = orv::LayoutId::ColMajor;
  spec.num_storage_nodes = kNodes;
  spec.seed = seed;
  return spec;
}

/// The seeded query sequence: `rounds` rounds of 2 scans, 2 view queries
/// and 1 aggregation, shuffled within each round.
std::vector<Query> make_queries(std::uint64_t seed, std::size_t rounds) {
  orv::Xoshiro256StarStar rng(seed * 0x9e3779b97f4a7c15ull + 7);
  auto pick = [&](std::uint64_t extent, std::uint64_t width,
                  std::uint64_t step) {
    return rng.below((extent - width) / step + 1) * step;
  };
  std::vector<Query> out;
  for (std::size_t r = 0; r < rounds; ++r) {
    std::vector<Query> round;
    for (int i = 0; i < 2; ++i) {
      Query q{Kind::Scan, "", pick(kGx, 2 * kSlab, kSlab),
              pick(kGy, 2 * kSlab, kSlab), pick(kGz, kWindow, kSlab)};
      q.sql = orv::strformat(
          "SELECT * FROM T1 WHERE x IN [%llu, %llu] AND y IN [%llu, %llu] "
          "AND z IN [%llu, %llu]",
          (unsigned long long)q.a, (unsigned long long)(q.a + 2 * kSlab - 1),
          (unsigned long long)q.b, (unsigned long long)(q.b + 2 * kSlab - 1),
          (unsigned long long)q.c, (unsigned long long)(q.c + kWindow - 1));
      round.push_back(q);
    }
    for (int i = 0; i < 2; ++i) {
      Query q{Kind::View, "", pick(kGx, kSlab, kSlab), 0,
              pick(kGz, kWindow, kWindow)};
      q.sql = "SELECT * FROM " + view_name(q.kind, q.a, q.c);
      round.push_back(q);
    }
    Query agg{Kind::Aggregate, "", 0, pick(kGy, kSlab, kSlab),
              pick(kGz, kWindow, kWindow)};
    agg.sql = "SELECT COUNT(*) AS n, MIN(wp) AS lo, MAX(oilp) AS hi FROM " +
              view_name(agg.kind, agg.b, agg.c);
    round.push_back(agg);
    for (std::size_t i = round.size(); i > 1; --i) {
      std::swap(round[i - 1], round[rng.below(i)]);
    }
    out.insert(out.end(), round.begin(), round.end());
  }
  return out;
}

/// Removes the directory tree on destruction.
struct ScratchDir {
  std::filesystem::path path;
  explicit ScratchDir(std::filesystem::path p) : path(std::move(p)) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
};

struct Setup {
  std::unique_ptr<orv::ViewFramework> fw;
  double datagen_seconds = 0;
  double datagen_bytes = 0;
};

/// Writes both tables' chunk files, builds the R-tree indexes and defines
/// the range-selected join views: everything a user pays before the first
/// query.
Setup build(const orv::DatasetSpec& spec, const std::filesystem::path& dir,
            bool timed) {
  Setup s;
  std::vector<std::shared_ptr<orv::ChunkStore>> stores;
  for (std::size_t n = 0; n < kNodes; ++n) {
    stores.push_back(std::make_shared<orv::FileChunkStore>(
        dir / orv::strformat("node%zu", n)));
  }
  if (timed) stores = timed_stores(stores);
  orv::MetaDataService meta;
  {
    Span span("datagen.generate");
    const std::int64_t t0 = now_ns();
    orv::generate_dataset_into(spec, meta, stores);
    s.datagen_seconds = static_cast<double>(now_ns() - t0) / 1e9;
  }
  s.datagen_bytes = static_cast<double>(meta.table_bytes(spec.table1_id) +
                                        meta.table_bytes(spec.table2_id));
  {
    Span span("meta.build_indexes");
    meta.build_indexes();
  }
  s.fw = std::make_unique<orv::ViewFramework>(std::move(meta), stores);
  auto selected = [&](orv::TableId t, std::vector<orv::AttrRange> ranges) {
    return orv::ViewDef::select(orv::ViewDef::base(t), std::move(ranges));
  };
  for (const Kind kind : {Kind::View, Kind::Aggregate}) {
    const std::string attr = kind == Kind::View ? "x" : "y";
    for (std::uint64_t lo = 0; lo < kGx; lo += kSlab) {
      for (std::uint64_t c = 0; c < kGz; c += kWindow) {
        const std::vector<orv::AttrRange> ranges{
            {attr, {double(lo), double(lo + kSlab - 1)}},
            {"z", {double(c), double(c + kWindow - 1)}}};
        s.fw->define_view(view_name(kind, lo, c),
                          orv::ViewDef::join(selected(spec.table1_id, ranges),
                                             selected(spec.table2_id, ranges),
                                             {"x", "y", "z"}));
      }
    }
  }
  return s;
}

// ---------------------------------------------------------------------------
// Brute-force references: both tables loaded whole, every row placed by
// its coordinates into a dense grid, predicates checked row by row. No
// chunk pruning, no R-tree, no hash join.

struct Expected {
  std::uint64_t fingerprint = 0;
  std::uint64_t rows = 0;
};

std::uint64_t aggregate_fingerprint(double n, double lo, double hi) {
  std::uint64_t h = 0x9e3779b97f4a7c15ull;
  for (const double v : {n, lo, hi}) {
    h ^= std::bit_cast<std::uint64_t>(v) + 0x9e3779b97f4a7c15ull + (h << 6) +
         (h >> 2);
  }
  return h;
}

class BruteForce {
 public:
  BruteForce(const orv::ViewFramework& fw, const orv::DatasetSpec& spec)
      : t1_(load(fw, spec.table1_id)), t2_(load(fw, spec.table2_id)),
        at1_(place(t1_)), at2_(place(t2_)) {
    const auto& l = t1_.schema();
    const auto& r = t2_.schema();
    const auto key = orv::JoinKey::resolve(r, {"x", "y", "z"});
    joined_ = std::make_shared<const orv::Schema>(
        orv::Schema::join_result(l, r, key.attr_indices()));
    // Byte copies that assemble a joined row, by attribute name.
    for (std::size_t i = 0; i < joined_->num_attrs(); ++i) {
      const auto& name = joined_->attr(i).name;
      const bool from_left = l.has(name);
      const auto& src = from_left ? l : r;
      const std::size_t k = src.require_index(name);
      copies_.push_back({from_left, src.offset(k), joined_->offset(i),
                         orv::attr_size(joined_->attr(i).type)});
    }
    wp_ = r.require_index("wp");
    oilp_ = l.require_index("oilp");
  }

  Expected expect(const Query& q) const {
    const auto z_in = [&](std::uint64_t z) {
      return z >= q.c && z < q.c + kWindow;
    };
    switch (q.kind) {
      case Kind::Scan: {
        orv::SubTable out(t1_.schema_ptr(), orv::SubTableId{});
        for (std::size_t r = 0; r < t1_.num_rows(); ++r) {
          if (in(t1_.get<float>(r, 0), q.a, 2 * kSlab) &&
              in(t1_.get<float>(r, 1), q.b, 2 * kSlab) &&
              in(t1_.get<float>(r, 2), q.c, kWindow)) {
            out.append_row({t1_.row(r), t1_.record_size()});
          }
        }
        return {out.unordered_fingerprint(), out.num_rows()};
      }
      case Kind::View: {
        orv::SubTable out(joined_, orv::SubTableId{});
        std::vector<std::byte> row(joined_->record_size());
        for (std::size_t cell = 0; cell < at1_.size(); ++cell) {
          const std::uint64_t x = cell / (kGy * kGz);
          if (x < q.a || x >= q.a + kSlab || !z_in(cell % kGz)) continue;
          for (const auto& c : copies_) {
            const auto* src =
                c.left ? t1_.row(at1_[cell]) : t2_.row(at2_[cell]);
            std::memcpy(row.data() + c.dst, src + c.src, c.size);
          }
          out.append_row(row);
        }
        return {out.unordered_fingerprint(), out.num_rows()};
      }
      case Kind::Aggregate: {
        double n = 0;
        double lo = INFINITY, hi = -INFINITY;
        for (std::size_t cell = 0; cell < at1_.size(); ++cell) {
          const std::uint64_t y = (cell / kGz) % kGy;
          if (y < q.b || y >= q.b + kSlab || !z_in(cell % kGz)) continue;
          n += 1;
          lo = std::min(lo, t2_.as_double(at2_[cell], wp_));
          hi = std::max(hi, t1_.as_double(at1_[cell], oilp_));
        }
        return {aggregate_fingerprint(n, lo, hi), 1};
      }
    }
    return {};
  }

 private:
  struct Copy {
    bool left;
    std::size_t src, dst, size;
  };

  static bool in(float v, std::uint64_t lo, std::uint64_t width) {
    return v >= static_cast<float>(lo) &&
           v <= static_cast<float>(lo + width - 1);
  }

  static orv::SubTable load(const orv::ViewFramework& fw, orv::TableId t) {
    const orv::ExtractorRegistry plain;
    orv::SubTable all(fw.meta().table_schema(t), orv::SubTableId{t, 0});
    for (const auto& cm : fw.meta().chunks(t)) {
      const auto bytes =
          fw.stores().at(cm.location.storage_node)->read(cm.location);
      const orv::SubTable st = orv::extract_chunk(bytes, plain);
      for (std::size_t r = 0; r < st.num_rows(); ++r) {
        all.append_row({st.row(r), st.record_size()});
      }
    }
    return all;
  }

  /// Row index of every grid point, which must occur exactly once.
  static std::vector<std::uint32_t> place(const orv::SubTable& t) {
    constexpr std::uint32_t kNone = ~0u;
    std::vector<std::uint32_t> at(kGx * kGy * kGz, kNone);
    for (std::size_t r = 0; r < t.num_rows(); ++r) {
      const auto x = static_cast<std::uint64_t>(t.get<float>(r, 0));
      const auto y = static_cast<std::uint64_t>(t.get<float>(r, 1));
      const auto z = static_cast<std::uint64_t>(t.get<float>(r, 2));
      const std::size_t cell = (x * kGy + y) * kGz + z;
      if (at.at(cell) != kNone) throw std::runtime_error("duplicate point");
      at[cell] = static_cast<std::uint32_t>(r);
    }
    if (std::find(at.begin(), at.end(), kNone) != at.end()) {
      throw std::runtime_error("grid point missing");
    }
    return at;
  }

  orv::SubTable t1_, t2_;
  std::vector<std::uint32_t> at1_, at2_;
  orv::SchemaPtr joined_;
  std::vector<Copy> copies_;
  std::size_t wp_ = 0, oilp_ = 0;
};

/// Result of one executed query as the check sees it.
Expected observed(const Query& q, const orv::SubTable& result) {
  if (q.kind != Kind::Aggregate) {
    return {result.unordered_fingerprint(), result.num_rows()};
  }
  if (result.num_rows() != 1) return {0, result.num_rows()};
  const auto& s = result.schema();
  return {aggregate_fingerprint(result.as_double(0, s.require_index("n")),
                                result.as_double(0, s.require_index("lo")),
                                result.as_double(0, s.require_index("hi"))),
          1};
}

struct Sample {
  Kind kind = Kind::Scan;
  HostInterval host;
  std::uint64_t rows = 0;
  Expected result;
};

struct Timed {
  std::vector<Sample> samples;

  std::vector<HostInterval> intervals() const {
    std::vector<HostInterval> v;
    for (const auto& s : samples) v.push_back(s.host);
    return v;
  }
  /// Queries per scaled host second.
  double host_qps() const {
    return static_cast<double>(samples.size()) / scaled_seconds(intervals());
  }
  /// Scaled host ms of the queries of the given kinds.
  std::vector<double> host_ms(std::initializer_list<Kind> kinds) const {
    std::vector<double> v;
    for (const auto& s : samples) {
      if (std::find(kinds.begin(), kinds.end(), s.kind) != kinds.end()) {
        v.push_back(gauge().scaled_ms(s.host));
      }
    }
    return v;
  }
};

/// Runs the queries in order, timing each and checking it against its
/// reference (unless `report` is null: the warm-up).
Timed run_queries(const orv::ViewFramework& fw,
                  const std::vector<Query>& queries,
                  const std::map<std::string, Expected>& refs,
                  Report* report) {
  Timed t;
  for (const Query& q : queries) {
    gauge().maybe_sample();
    Sample s;
    s.kind = q.kind;
    tracer().begin_query();
    {
      Span span(q.kind == Kind::Scan ? "dds.scan" : "dds.view");
      const std::int64_t t0 = now_ns();
      try {
        const orv::SubTable result = fw.query(q.sql);
        s.host = {t0, now_ns()};
        s.rows = result.num_rows();
        s.result = observed(q, result);
      } catch (const std::exception& ex) {
        // The empty result fails its check, which counts the failure.
        s.host = {t0, now_ns()};
        std::fprintf(stderr, "perfbench: %s: %s\n", q.sql.c_str(), ex.what());
      }
    }
    tracer().end_query();
    if (report) {
      const Expected& want = refs.at(q.sql);
      report->check(s.result.fingerprint, s.result.rows, want.fingerprint,
                    want.rows);
    }
    t.samples.push_back(s);
  }
  gauge().sample();
  return t;
}

std::size_t rounds_for(double seconds) {
  return static_cast<std::size_t>(
      std::max(2.0, std::round(seconds / kRoundBudgetSeconds)));
}

std::map<std::string, Expected> references(const orv::ViewFramework& fw,
                                           const orv::DatasetSpec& spec,
                                           const std::vector<Query>& qs) {
  const BruteForce brute(fw, spec);
  std::map<std::string, Expected> refs;
  for (const Query& q : qs) {
    if (!refs.count(q.sql)) refs[q.sql] = brute.expect(q);
  }
  return refs;
}

void report_end_to_end(const Options& options, Report& report) {
  gauge().sample();
  const auto spec = dataset_spec(options.seed);
  std::vector<HostInterval> setups;
  std::optional<ScratchDir> dir;
  Setup s;  // declared after `dir`, so it closes its files first
  for (int i = 0; i < kSetupRepeats; ++i) {
    s = Setup{};
    dir.reset();
    dir.emplace(std::filesystem::path(options.work_dir) / "views_local");
    gauge().maybe_sample();
    const std::int64_t start = now_ns();
    s = build(spec, dir->path, false);
    setups.push_back({start, now_ns()});
  }
  const auto queries = make_queries(options.seed, rounds_for(options.seconds));
  const auto refs = references(*s.fw, spec, queries);
  reset_peak_rss();
  run_queries(*s.fw, make_queries(options.seed + 1, 1), {}, nullptr);
  const Timed t = run_queries(*s.fw, queries, refs, &report);

  // Pooled over all three kinds: 2 of 5 queries are the cheap scans, so
  // the p50 lies well inside the view and aggregation queries and the
  // tail among the costliest of them, never on a boundary between kinds.
  const auto all = t.host_ms({Kind::Scan, Kind::View, Kind::Aggregate});
  const Tail host_tail = tail(all);
  report.note(orv::strformat(
      "query_host_ms_tail is p%.2f over %zu queries in %zu rounds; "
      "p50 by kind: scan %.3f ms, view %.3f ms, aggregation %.3f ms",
      host_tail.percentile, host_tail.samples, t.samples.size() / 5,
      median(t.host_ms({Kind::Scan})), median(t.host_ms({Kind::View})),
      median(t.host_ms({Kind::Aggregate}))));
  report.note(orv::strformat(
      "unscaled: setup_s %.4f, host_qps %.4f", median_seconds(setups, false),
      static_cast<double>(t.samples.size()) / raw_seconds(t.intervals())));
  note_gauge(report);

  report.metric("setup_s", median_seconds(setups, true), "s");
  report.metric("host_qps", t.host_qps(), "q/s");
  report.metric("query_host_ms_p50", median(all), "ms");
  report.metric("query_host_ms_tail", host_tail.value, "ms");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

void report_per_layer(const Options& options, Report& report) {
  gauge().sample();
  const auto spec = dataset_spec(options.seed);
  const std::filesystem::path root =
      std::filesystem::path(options.work_dir) / "views_local";
  const auto queries =
      make_queries(options.seed, std::max<std::size_t>(
                                     1, rounds_for(options.seconds) / 2));
  std::map<std::string, Expected> refs;
  Timed untraced;
  {
    ScratchDir dir(root / "untraced");
    Setup s = build(spec, dir.path, false);
    refs = references(*s.fw, spec, queries);
    run_queries(*s.fw, make_queries(options.seed + 1, 1), {}, nullptr);
    untraced = run_queries(*s.fw, queries, refs, &report);
  }

  install_timed_extractors();
  tracer().set_enabled(true);
  ScratchDir dir(root / "traced");
  Setup s = build(spec, dir.path, true);
  const Timed traced = run_queries(*s.fw, queries, refs, &report);
  tracer().set_enabled(false);

  std::uint64_t mismatches = 0;
  std::uint64_t rows_returned = 0;
  for (std::size_t i = 0; i < traced.samples.size(); ++i) {
    const auto& a = untraced.samples[i].result;
    const auto& b = traced.samples[i].result;
    if (a.fingerprint != b.fingerprint || a.rows != b.rows) ++mismatches;
    rows_returned += traced.samples[i].rows;
  }
  const auto& stores = s.fw->stores();
  report_traced_run(report,
                    {mismatches, untraced.host_qps(), traced.host_qps(),
                     s.datagen_bytes, s.datagen_seconds},
                    stores);

  std::uint64_t rows_read = 0;
  for (const auto layout : {orv::LayoutId::RowMajor, orv::LayoutId::ColMajor}) {
    rows_read += extract_counter(layout).rows;
  }
  report.metric("dds.rows_read_per_row_returned",
                static_cast<double>(rows_read) /
                    static_cast<double>(std::max<std::uint64_t>(1,
                                                                rows_returned)),
                "ratio");
  std::vector<std::string> sql;
  for (const Query& q : queries) sql.push_back(q.sql);
  report.metric("query.parse_us", median_parse_us(sql, 1), "us");
  std::vector<double> self_ms;
  for (const char* root : {"dds.scan", "dds.view"}) {
    const auto v = tracer().self_ms_excluding(root, {"chunkio.", "extract."});
    self_ms.insert(self_ms.end(), v.begin(), v.end());
  }
  report.metric("exec.self_ms_p50", median(self_ms), "ms");

  // The full view's connectivity graph, which the join replay walks, and
  // the planner's pick for that view on a cluster of the dataset's storage
  // nodes and as many compute nodes. Neither is on the queries' path.
  const std::vector<std::string> attrs{"x", "y", "z"};
  const std::int64_t g0 = now_ns();
  const auto graph = orv::ConnectivityGraph::build(
      s.fw->meta(), spec.table1_id, spec.table2_id, attrs);
  report.metric("graph.build_ms", ms_since(g0), "ms");
  report.metric("graph.edges", static_cast<double>(graph.num_edges()),
                "count");
  orv::ClusterSpec cluster;
  cluster.num_storage = kNodes;
  cluster.num_compute = kNodes;
  const orv::QueryPlanner planner(cluster);
  const orv::JoinQuery full{spec.table1_id, spec.table2_id, attrs, {}};
  std::vector<double> plan_us;
  for (int i = 0; i < 5; ++i) {
    const std::int64_t t0 = now_ns();
    const orv::PlanDecision d = planner.plan(s.fw->meta(), graph, full);
    plan_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    sink = static_cast<std::uint64_t>(d.chosen);
  }
  report.metric("qps.plan_us", median(plan_us), "us");
  report_join_replay(report, {{s.fw->meta(), stores, graph, attrs}});

  // The local path bypasses the simulator, QES, BDS, network, caches and
  // the scheduler; the monitor is off.
  report.unmeasured("obs.monitor_overhead_frac", "ratio");
  report.unmeasured("join.tuples_probed", "count");
  report.unmeasured("join.hash_tables_built", "count");
  report.unmeasured("sim.events", "count");
  report.unmeasured("sim.latency_ms_p50", "virtual_ms");
  report.unmeasured("sim.latency_ms_tail", "virtual_ms");
  report.unmeasured("sim.qps", "q/virtual_s");
  report.unmeasured("sim.qps_at_slo", "q/virtual_s");
  report.unmeasured("bds.subtables_served", "count");
  report.unmeasured("bds.chunk_bytes_read", "B");
  report.unmeasured("net.bytes", "B");
  report.unmeasured("net.frames", "count");
  report.unmeasured("cache.hits", "count");
  report.unmeasured("cache.lookups", "count");
  report.unmeasured("cache.hit_ratio", "ratio");
  report.unmeasured("cache.evictions", "count");
  report.unmeasured("cost.ij_error_ratio", "ratio");
  report.unmeasured("cost.gh_error_ratio", "ratio");
  report.unmeasured("qps.choice_agrees", "count");
  report.unmeasured("sched.queue_wait_ms_tail", "virtual_ms");
  report.unmeasured("sched.rejected", "count");
  report.unmeasured("workload.makespan_s", "virtual_s");
  finish_trace(report, options);
}

}  // namespace

void run_views_local(const Options& options, Report& report) {
  if (options.trace) {
    report_per_layer(options, report);
  } else {
    report_end_to_end(options, report);
  }
}

}  // namespace perfbench
