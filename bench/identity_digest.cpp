// Identity digest: one line per deterministic output family, so a change
// that claims byte-identical behaviour can be checked by diffing this
// program's output against the committed golden file
// (bench/identity_digest.golden). Only virtual-time and fingerprint output
// goes in; host timings never do.
//
// Entries:
//   chaos.<mode>.<clean|faulted>  chaos scenarios 1000..1019, each run once
//       fault-free and once under FaultPlan::chaos(seed), for IJ serial,
//       IJ pipelined, IJ through a session cache (cold then warm run), GH,
//       GH double-buffered and the distributed scan-aggregate: every
//       QesResult counter, the virtual times as exact hex floats, or the
//       error a run threw.
//   workload.<seed>.<clean|faulted>  a three-client monitored workload with
//       admission and the shared cache, and workload.poisson.<missed|met>
//       the monitor tests' two-client Poisson workload with deadlines all
//       missed or met: every outcome, every alert field (evidence
//       included), the dashboard file's bytes and each flight dump's JSON
//       bytes. workload.7000.resolve adds one late arrival to seed 7000's
//       faulted run, so its reject-rate alert resolves before the run ends.
//
// Each line is "<entry> <16 hex digits>" (FNV-1a over the entry's
// canonical text); --verbose prints the canonical text instead.
// bench/identity_digest.sh adds the md5 of fig4's four sink outputs.

#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>

#include "../tests/chaos_util.hpp"
#include "common/strings.hpp"
#include "common/tempdir.hpp"
#include "qes/scan_aggregate.hpp"
#include "qes/session.hpp"

namespace {

using namespace orv;

bool g_verbose = false;

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

void emit(const std::string& entry, const std::string& text) {
  if (g_verbose) {
    std::printf("== %s\n%s", entry.c_str(), text.c_str());
  } else {
    std::printf("%s %016llx\n", entry.c_str(),
                static_cast<unsigned long long>(fnv1a(text)));
  }
}

std::string describe(const QesResult& r) {
  return strformat(
      "tuples=%llu fp=%016llx elapsed=%a part=%a join=%a net=%a "
      "disk=%a sw=%a sr=%a xs=%a local=%a fetches=%llu builds=%llu "
      "hits=%llu misses=%llu evict=%llu pf=%llu/%llu overlap=%a h1=%llu "
      "frames=%llu retries=%llu reassigned=%llu repart=%llu lost=%llu "
      "degraded=%d build=%llu probe=%llu\n",
      (unsigned long long)r.result_tuples,
      (unsigned long long)r.result_fingerprint, r.elapsed, r.partition_phase,
      r.join_phase, r.network_bytes, r.storage_disk_read_bytes,
      r.scratch_write_bytes, r.scratch_read_bytes, r.cross_switch_bytes,
      r.local_transfer_bytes, (unsigned long long)r.subtable_fetches,
      (unsigned long long)r.hash_tables_built,
      (unsigned long long)r.cache_stats.hits,
      (unsigned long long)r.cache_stats.misses,
      (unsigned long long)r.cache_stats.evictions,
      (unsigned long long)r.prefetch_issued,
      (unsigned long long)r.prefetch_wasted, r.overlap_ratio,
      (unsigned long long)r.h1_messages_sent,
      (unsigned long long)r.net_frames_sent,
      (unsigned long long)r.fetch_retries,
      (unsigned long long)r.pairs_reassigned,
      (unsigned long long)r.rows_repartitioned,
      (unsigned long long)r.compute_nodes_lost, r.degraded ? 1 : 0,
      (unsigned long long)r.join_stats.build_tuples,
      (unsigned long long)r.join_stats.probe_tuples);
}

enum class Mode { IjSerial, IjPipelined, IjSession, Gh, GhDouble, ScanAgg };

constexpr std::pair<Mode, const char*> kModes[] = {
    {Mode::IjSerial, "ij_serial"},   {Mode::IjPipelined, "ij_pipelined"},
    {Mode::IjSession, "ij_session"}, {Mode::Gh, "gh"},
    {Mode::GhDouble, "gh_double"},   {Mode::ScanAgg, "scan_aggregate"}};

/// One run of `mode` over the rig's scenario, optionally under `plan`, as
/// canonical text.
std::string run_mode(chaos::ChaosRig& rig, Mode mode,
                     const fault::FaultPlan* plan) {
  QesOptions options;
  switch (mode) {
    case Mode::IjSerial:
      return describe(rig.run(true, plan, options));
    case Mode::IjPipelined:
      options.prefetch_lookahead = 4;
      return describe(rig.run(true, plan, options));
    case Mode::Gh:
      return describe(rig.run(false, plan, options));
    case Mode::GhDouble:
      options.gh_double_buffer = true;
      return describe(rig.run(false, plan, options));
    case Mode::IjSession:
    case Mode::ScanAgg:
      break;
  }
  sim::Engine engine;
  Cluster cluster(engine, rig.sc.cspec);
  BdsService bds(cluster, rig.ds.meta, rig.ds.stores);
  std::optional<fault::FaultInjector> inj;
  std::optional<fault::ScopedInjector> scoped;
  if (plan != nullptr) {
    inj.emplace(engine, *plan);
    scoped.emplace(*inj);
  }
  if (mode == Mode::ScanAgg) {
    AggregateQuery q;
    q.table = rig.query.left_table;
    q.ranges = rig.query.ranges;
    q.group_by = {"z"};
    q.aggs = {AggSpec{AggSpec::Fn::Sum, "oilp", "s"},
              AggSpec{AggSpec::Fn::Count, "", "n"}};
    SubTable out(rig.ds.meta.table_schema(q.table), SubTableId{});
    const QesResult r =
        run_distributed_aggregate(cluster, bds, rig.ds.meta, q, {}, &out);
    return describe(r) + strformat("rows=%zu fp=%016llx\n", out.num_rows(),
                                   (unsigned long long)
                                       out.unordered_fingerprint());
  }
  QesSession session(cluster, bds, rig.ds.meta);
  std::string text;
  for (const char* pass : {"cold", "warm"}) {
    const QesSession::Outcome o =
        session.run(rig.query, options, Algorithm::IndexedJoin);
    text += pass;
    text += o.failed ? " failed: " + o.error + "\n" : " " + describe(o.result);
  }
  return text;
}

void chaos_entries() {
  constexpr std::uint64_t kFirstSeed = 1000;
  constexpr std::uint64_t kSeeds = 20;
  for (const auto& [mode, name] : kModes) {
    std::string clean, faulted;
    for (std::uint64_t seed = kFirstSeed; seed < kFirstSeed + kSeeds;
         ++seed) {
      chaos::ChaosRig rig(seed);
      const fault::FaultPlan plan = fault::FaultPlan::chaos(
          seed, rig.sc.cspec.num_storage, rig.sc.cspec.num_compute);
      for (const bool with_faults : {false, true}) {
        std::string& text = with_faults ? faulted : clean;
        text += strformat("seed %llu: ", (unsigned long long)seed);
        try {
          text += run_mode(rig, mode, with_faults ? &plan : nullptr);
        } catch (const std::exception& e) {
          text += std::string("threw: ") + e.what() + "\n";
        }
      }
    }
    emit(std::string("chaos.") + name + ".clean", clean);
    emit(std::string("chaos.") + name + ".faulted", faulted);
  }
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), {}};
}

/// Three clients with admission and the shared cache: client 0 has an
/// impossible deadline (slo-burn), the bounded queue rejects (reject-rate,
/// queue-growth), and a faulted run pages on node health.
WorkloadSpec admission_spec(const chaos::ChaosRig& rig, std::uint64_t seed) {
  WorkloadSpec spec;
  spec.seed = seed;
  const std::optional<Algorithm> forces[3] = {
      Algorithm::IndexedJoin, Algorithm::GraceHash, std::nullopt};
  const double deadlines[3] = {1e-6, 30.0, 30.0};
  for (std::size_t c = 0; c < 3; ++c) {
    WorkloadClientSpec client;
    client.name = "c" + std::to_string(c);
    client.mix.push_back({rig.query, forces[c], 1.0, deadlines[c]});
    client.trace_arrivals = {0.0, 0.01, 0.02, 0.5, 0.51, 2.0};
    spec.clients.push_back(std::move(client));
  }
  spec.admission.max_running = 2;
  spec.admission.max_queued = 3;
  return spec;
}

/// The monitor tests' workload: an 8x8x8 grid on 2 storage and 3 compute
/// nodes, two clients each submitting 8 Poisson arrivals of a full IJ and
/// a narrow GH query with one deadline.
WorkloadSpec poisson_spec(const chaos::ChaosRig& rig, double deadline) {
  JoinQuery narrow = rig.query;
  narrow.ranges = {{"x", {0, 3}}};
  WorkloadSpec spec;
  spec.seed = 7;
  WorkloadClientSpec client;
  client.mix.push_back({rig.query, Algorithm::IndexedJoin, 1.0, deadline});
  client.mix.push_back({narrow, Algorithm::GraceHash, 2.0, deadline});
  client.poisson_rate = 4.0;
  client.num_queries = 8;
  for (const char* name : {"c0", "c1"}) {
    client.name = name;
    spec.clients.push_back(client);
  }
  return spec;
}

chaos::Scenario poisson_scenario() {
  chaos::Scenario sc;
  sc.spec.grid = {8, 8, 8};
  sc.spec.part1 = {4, 4, 4};
  sc.spec.part2 = {2, 2, 2};
  sc.spec.num_storage_nodes = 2;
  sc.cspec.num_storage = 2;
  sc.cspec.num_compute = 3;
  sc.join_attrs = {"x", "y", "z"};
  return sc;
}

/// One monitored run of `spec` over the rig's dataset, optionally under
/// `plan`: every outcome, alert field, health score, dashboard byte and
/// flight-dump byte, as canonical text.
std::string workload_text(const chaos::ChaosRig& rig, WorkloadSpec spec,
                          const fault::FaultPlan* plan) {
  obs::FlightRecorder::Config fc;
  fc.max_dumps = 256;
  obs::FlightRecorder rec(fc);
  spec.monitor.enabled = true;
  spec.monitor.flight = &rec;
  TempDir dir("identity");
  obs::Sinks sinks;
  sinks.dash = dir.file("dash.jsonl").string();

  WorkloadResult r;
  {
    sim::Engine engine;
    Cluster cluster(engine, rig.sc.cspec);
    BdsService bds(cluster, rig.ds.meta, rig.ds.stores);
    std::optional<fault::FaultInjector> inj;
    std::optional<fault::ScopedInjector> scoped;
    if (plan != nullptr) {
      inj.emplace(engine, *plan);
      scoped.emplace(*inj);
    }
    r = run_workload(cluster, bds, rig.ds.meta, spec, sinks);
  }

  std::string text = r.to_string() + "\n";
  for (const QueryOutcome& o : r.outcomes) {
    text += strformat(
        "q%zu c%zu arrive=%a admit=%a finish=%a rej=%d fail=%d deg=%d "
        "met=%d %s tuples=%llu fp=%016llx err=%s\n",
        o.index, o.client, o.arrival, o.admit_time, o.finish, o.rejected,
        o.failed, o.degraded, o.deadline_met, o.algorithm.c_str(),
        (unsigned long long)o.result_tuples,
        (unsigned long long)o.fingerprint, o.error.c_str());
  }
  for (const obs::Alert& a : r.alerts) {
    text += strformat("alert seq=%llu time=%a value=%a threshold=%a %s\n",
                      (unsigned long long)a.seq, a.time, a.value,
                      a.threshold, a.to_string().c_str());
  }
  for (const double h : r.storage_health) text += strformat("sh=%a\n", h);
  for (const double h : r.compute_health) text += strformat("ch=%a\n", h);
  text += strformat("dumps=%zu dash_lines=%zu\n", r.flight_dumps,
                    r.dash_lines);
  text += read_file(dir.file("dash.jsonl"));
  for (const obs::FlightDump& d : rec.dumps()) text += d.json + "\n";
  return text;
}

void workload_entries() {
  for (const std::uint64_t seed : {7000, 7001, 7002}) {
    const chaos::ChaosRig rig(seed);
    const fault::FaultPlan plan = fault::FaultPlan::chaos(
        seed, rig.sc.cspec.num_storage, rig.sc.cspec.num_compute);
    const WorkloadSpec spec = admission_spec(rig, seed);
    const std::string entry = strformat("workload.%llu", (unsigned long long)seed);
    emit(entry + ".clean", workload_text(rig, spec, nullptr));
    emit(entry + ".faulted", workload_text(rig, spec, &plan));
  }
  {
    // Seed 7000's faulted run plus one arrival 6 s after the last burst:
    // the run outlives its last rejection by more than the 5 s reject
    // window, so the reject-rate alert fires and then resolves in the run.
    const chaos::ChaosRig rig(7000);
    const fault::FaultPlan plan = fault::FaultPlan::chaos(
        7000, rig.sc.cspec.num_storage, rig.sc.cspec.num_compute);
    WorkloadSpec spec = admission_spec(rig, 7000);
    spec.clients[1].trace_arrivals.push_back(8.0);
    emit("workload.7000.resolve", workload_text(rig, spec, &plan));
  }
  const chaos::ChaosRig rig(poisson_scenario());
  emit("workload.poisson.missed", workload_text(rig, poisson_spec(rig, 1e-6),
                                                nullptr));
  emit("workload.poisson.met", workload_text(rig, poisson_spec(rig, 5.0),
                                             nullptr));
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--verbose") == 0) {
      g_verbose = true;
    } else {
      std::fprintf(stderr, "usage: %s [--verbose]\n", argv[0]);
      return 2;
    }
  }
  chaos_entries();
  workload_entries();
  return 0;
}
