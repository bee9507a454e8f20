// Ablation: per-destination message aggregation vs flush threshold.
//
// Two corners of the same 32^3 join, both shuffling ~272 h1 batches of
// 4 KiB through the switch:
//
//   message_bound    net_msg_overhead = 1 ms — the per-frame gamma
//                    dominates GH's partition phase, so combining
//                    batches into frames cuts elapsed nearly in
//                    proportion to the frame count.
//   bandwidth_bound  net_msg_overhead = 0 — frames are free, so any
//                    flush threshold must leave elapsed unchanged (the
//                    same bytes cross the same links).
//
// Flush threshold swept 1-64 logical batches; fingerprints never
// change, and the extended GH model (CostParams::agg_flush_batches)
// tracks the simulated times.
//
//   --check   CI aggregation gate (ASan job): asserts flush 16 cuts switch
//             frames >= 8x and elapsed >= 15% at the message-bound
//             corner, and that flush 16 + 1 ms timeout moves the
//             bandwidth-bound corner by < 5%, with byte-identical
//             fingerprints everywhere.

#include <cstring>

#include "bench_util.hpp"

namespace {

using namespace orv;

struct Corner {
  const char* name;
  double gamma;
};

constexpr Corner kMessageBound{"message_bound", 1e-3};
constexpr Corner kBandwidthBound{"bandwidth_bound", 0.0};

struct CornerRig {
  DatasetSpec data;
  ClusterSpec cluster;
  QesOptions options;
  GeneratedDataset ds;
  JoinQuery query;

  explicit CornerRig(const Corner& corner) {
    data.grid = {32, 32, 32};
    data.part1 = {8, 8, 8};
    data.part2 = {8, 8, 8};
    cluster.num_storage = 4;
    cluster.num_compute = 4;
    data.num_storage_nodes = cluster.num_storage;
    cluster.hw.net_msg_overhead = corner.gamma;
    options.batch_bytes = 4096;  // many small h1 messages
    ds = generate_dataset(data);
    query = {data.table1_id, data.table2_id, {"x", "y", "z"}, {}};
  }

  /// One GH run on a fresh engine.
  QesResult run(const net::AggregatorConfig* cfg) {
    ClusterSpec spec = cluster;
    if (cfg != nullptr) spec.aggregation = *cfg;
    sim::Engine engine;
    Cluster cluster_inst(engine, spec);
    BdsService bds(cluster_inst, ds.meta, ds.stores);
    return run_grace_hash(cluster_inst, bds, ds.meta, query, options);
  }

  /// Extended GH model prediction at a given flush threshold.
  double model(double flush) const {
    CostParams p =
        CostParams::from(cluster, ds.stats, table1_schema(data)->record_size(),
                         table2_schema(data)->record_size(), 1.0);
    p.batch_bytes = static_cast<double>(options.batch_bytes);
    p.agg_flush_batches = flush;
    return cost(Algorithm::GraceHash, p).total();
  }
};

net::AggregatorConfig fixed_config(std::size_t flush, double timeout = 0) {
  net::AggregatorConfig cfg;
  cfg.flush_batches = flush;
  // The sweep defaults to size/drain flushes only so frames fill to the
  // threshold (h1 batch inter-arrival here is above the default 1 ms
  // timeout); timeout rows show the latency-bounding trade-off instead.
  cfg.flush_timeout = timeout;
  return cfg;
}

int check_mode() {
  bool ok = true;

  CornerRig msg(kMessageBound);
  const QesResult base = msg.run(nullptr);
  net::AggregatorConfig cfg = fixed_config(16);
  const QesResult agg = msg.run(&cfg);
  if (agg.result_fingerprint != base.result_fingerprint ||
      agg.result_tuples != base.result_tuples) {
    std::printf("FAIL: aggregated GH fingerprint diverged\n");
    ok = false;
  }
  if (static_cast<double>(base.net_frames_sent) <
      8.0 * static_cast<double>(agg.net_frames_sent)) {
    std::printf("FAIL: frames %llu -> %llu, less than 8x reduction\n",
                (unsigned long long)base.net_frames_sent,
                (unsigned long long)agg.net_frames_sent);
    ok = false;
  }
  if (agg.elapsed > 0.85 * base.elapsed) {
    std::printf("FAIL: message-bound GH %.6fs not <= 0.85 x %.6fs\n",
                agg.elapsed, base.elapsed);
    ok = false;
  }

  // Bandwidth-bound corner runs the shipping config — timeout on. Holding
  // batches until a frame fills would trade away sender/receiver overlap
  // for frames that are free here; the timeout bounds that latency tax.
  CornerRig bw(kBandwidthBound);
  const QesResult bw_base = bw.run(nullptr);
  net::AggregatorConfig bw_cfg = fixed_config(16, 1e-3);
  const QesResult bw_agg = bw.run(&bw_cfg);
  if (bw_agg.result_fingerprint != bw_base.result_fingerprint) {
    std::printf("FAIL: bandwidth-bound fingerprint diverged\n");
    ok = false;
  }
  if (bw_agg.elapsed > 1.05 * bw_base.elapsed) {
    std::printf("FAIL: bandwidth-bound GH moved %.6fs -> %.6fs (> 5%%)\n",
                bw_base.elapsed, bw_agg.elapsed);
    ok = false;
  }

  std::printf(
      "%s: message-bound %.6f -> %.6f (%.1f%%, frames %llu -> %llu), "
      "bandwidth-bound %.6f -> %.6f\n",
      ok ? "PASS" : "FAIL", base.elapsed, agg.elapsed,
      100.0 * (1.0 - agg.elapsed / base.elapsed),
      (unsigned long long)base.net_frames_sent,
      (unsigned long long)agg.net_frames_sent, bw_base.elapsed,
      bw_agg.elapsed);
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace orv::bench;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) return check_mode();
  }

  print_banner("Ablation: message aggregation",
               "per-destination frame building vs flush threshold");
  const std::string out_path = parse_out_path(argc, argv);
  SeriesJson series("ablation_aggregation");

  for (const Corner& corner : {kMessageBound, kBandwidthBound}) {
    CornerRig rig(corner);
    const QesResult base = rig.run(nullptr);
    std::printf("\n%s (gamma = %g s/frame): unaggregated GH %.6fs, "
                "%llu frames\n",
                corner.name, corner.gamma, base.elapsed,
                (unsigned long long)base.net_frames_sent);
    std::printf("%9s | %8s %8s | %8s %8s | %9s %6s\n", "flush", "GH sim",
                "gain", "frames", "msg/frm", "GH model", "fp==");

    auto emit = [&](const char* label, std::size_t flush, double timeout,
                    const orv::QesResult& r) {
      const bool same =
          r.result_fingerprint == base.result_fingerprint &&
          r.result_tuples == base.result_tuples;
      const double model = rig.model(static_cast<double>(flush));
      const double mpf =
          r.net_frames_sent > 0
              ? static_cast<double>(r.h1_messages_sent) /
                    static_cast<double>(r.net_frames_sent)
              : 0.0;
      std::printf("%9s | %8.5f %7.1f%% | %8llu %8.2f | %9.5f %6s\n", label,
                  r.elapsed, 100.0 * (1.0 - r.elapsed / base.elapsed),
                  (unsigned long long)r.net_frames_sent, mpf, model,
                  same ? "yes" : "NO!");
      series.add_row(orv::strformat(
          "{\"corner\":\"%s\",\"flush\":%zu,\"timeout\":%g,"
          "\"gh\":%.6f,\"gh_model\":%.6f,\"frames\":%llu,\"messages\":%llu,"
          "\"fingerprint_match\":%s}",
          corner.name, flush, timeout, r.elapsed, model,
          (unsigned long long)r.net_frames_sent,
          (unsigned long long)r.h1_messages_sent, same ? "true" : "false"));
    };

    for (std::size_t flush : {1, 2, 4, 8, 16, 32, 64}) {
      net::AggregatorConfig cfg = fixed_config(flush);
      const orv::QesResult r = rig.run(&cfg);
      emit(std::to_string(flush).c_str(), flush, 0.0, r);
    }
    // The shipping default: size flush plus the 1 ms timeout bounding how
    // long a batch can sit in a half-full frame.
    net::AggregatorConfig cfg = fixed_config(16, 1e-3);
    emit("16+1ms", 16, 1e-3, rig.run(&cfg));
  }

  std::printf("\nExpected shape: message-bound elapsed falls with the flush "
              "threshold and\nplateaus once gamma is amortized; "
              "bandwidth-bound stays flat; fingerprints\nnever change.\n\n");
  if (!out_path.empty() && !series.write(out_path)) return 1;
  return 0;
}
