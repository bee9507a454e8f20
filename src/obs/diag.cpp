#include "obs/diag.hpp"

#include <algorithm>
#include <cmath>

#include "common/strings.hpp"
#include "obs/json.hpp"

namespace orv::obs {

namespace {

/// Knob suggestion for a dominant stage. The table is algorithm-aware:
/// the same bottleneck calls for different knobs in the two executors.
std::string stage_suggestion(Stage s, bool indexed_join,
                             bool placement_affinity) {
  switch (s) {
    case Stage::Network:
      if (indexed_join) {
        return placement_affinity
                   ? "raise prefetch_lookahead (transfer already rides "
                     "local buses)"
                   : "raise prefetch_lookahead or switch to "
                     "graph-partitioned placement (local-bus transfer)";
      }
      return "raise batch_bytes (fewer, larger h1 messages) or add "
             "storage nodes";
    case Stage::Disk:
      return indexed_join
                 ? "add storage nodes (aggregate read bandwidth bound)"
                 : "raise bucket_pair_bytes (fewer, larger bucket reads) "
                   "or enable gh_double_buffer";
    case Stage::Cpu:
      return indexed_join
                 ? "add compute nodes, or prefer GraceHash beyond the "
                   "n_e*c_S crossover"
                 : "add compute nodes (build/probe bound)";
    case Stage::CacheWait:
      return "raise prefetch_lookahead or cache_bytes (join loop starves "
             "on fetches)";
    case Stage::Spill:
      return "enable gh_double_buffer (overlap spill with ingress) or "
             "raise batch_bytes";
    case Stage::Other:
      return "coordination-bound: reduce rounds (larger batches, fewer "
             "components)";
  }
  return "";
}

}  // namespace

bool Diagnosis::has(std::string_view kind) const {
  for (const auto& f : findings) {
    if (f.kind == kind) return true;
  }
  return false;
}

Diagnosis diagnose(const DiagnosisInput& in) {
  Diagnosis d;
  d.query = in.query;
  d.algorithm = in.algorithm;
  const bool ij = in.algorithm != "GraceHash";

  // 1. Dominant stage of the critical path. Confidence is its share: a
  // 90%-network path is a clearer verdict than a 40% plurality.
  if (in.path.total > 0) {
    const Stage dom = in.path.dominant();
    d.dominant_stage = stage_name(dom);
    d.dominant_share = in.path.stage_seconds(dom) / in.path.total;
    DiagFinding f;
    f.kind = "dominant stage";
    f.detail = strformat("%s holds %.0f%% of the critical path (%.3fs of "
                         "%.3fs)",
                         d.dominant_stage.c_str(), d.dominant_share * 100.0,
                         in.path.stage_seconds(dom), in.path.total);
    f.confidence = d.dominant_share;
    f.suggestion = stage_suggestion(dom, ij, in.placement_affinity);
    d.findings.push_back(std::move(f));
  }

  // 2. Straggler node: one node's busy time far above its peers' mean.
  if (in.nodes.size() >= 3) {
    double total = 0;
    std::size_t worst = 0;
    for (std::size_t i = 0; i < in.nodes.size(); ++i) {
      total += in.nodes[i].busy_seconds;
      if (in.nodes[i].busy_seconds > in.nodes[worst].busy_seconds) worst = i;
    }
    const double peers_mean =
        (total - in.nodes[worst].busy_seconds) /
        static_cast<double>(in.nodes.size() - 1);
    const double max_busy = in.nodes[worst].busy_seconds;
    if (peers_mean > 0 && max_busy > 1.5 * peers_mean) {
      DiagFinding f;
      f.kind = "straggler node";
      f.detail = strformat("node %zu busy %.3fs vs peer mean %.3fs "
                           "(%.1fx)",
                           in.nodes[worst].node, max_busy, peers_mean,
                           max_busy / peers_mean);
      f.confidence = std::min(1.0, max_busy / peers_mean - 1.0);
      f.suggestion = ij ? "rebalance component assignment (placement-"
                          "affinity or round-robin by cost)"
                        : "rehash h2 (more buckets) so the hot receiver "
                          "splits its load";
      d.findings.push_back(std::move(f));
    }
  }

  // 3. Partition/component skew: coefficient of variation of per-node
  // work items. Catches imbalance even when no single node stands out.
  if (in.nodes.size() >= 2) {
    double mean = 0;
    for (const auto& n : in.nodes) mean += static_cast<double>(n.items);
    mean /= static_cast<double>(in.nodes.size());
    if (mean > 0) {
      double var = 0;
      for (const auto& n : in.nodes) {
        const double dd = static_cast<double>(n.items) - mean;
        var += dd * dd;
      }
      var /= static_cast<double>(in.nodes.size());
      const double cov = std::sqrt(var) / mean;
      if (cov > 0.5) {
        DiagFinding f;
        f.kind = "partition skew";
        f.detail = strformat("per-node work CoV %.2f over %zu nodes "
                             "(mean %.0f items)",
                             cov, in.nodes.size(), mean);
        f.confidence = std::min(1.0, cov);
        f.suggestion = ij ? "switch to graph-partitioned placement "
                            "(component-sized work units)"
                          : "lower bucket_pair_bytes (more h2 buckets "
                            "smooth the split)";
        d.findings.push_back(std::move(f));
      }
    }
  }

  // 4. Cache thrash: heavy eviction with a poor hit rate means the
  // working set does not fit — re-fetches inflate the transfer term.
  if (in.cache_puts > 0) {
    const std::uint64_t lookups = in.cache_hits + in.cache_misses;
    const double hit_rate =
        lookups > 0 ? static_cast<double>(in.cache_hits) /
                          static_cast<double>(lookups)
                    : 0.0;
    const double evict_rate = static_cast<double>(in.cache_evictions) /
                              static_cast<double>(in.cache_puts);
    if (evict_rate > 0.5 && hit_rate < 0.5 && lookups > 0) {
      DiagFinding f;
      f.kind = "cache thrash";
      f.detail = strformat("hit rate %.0f%%, %llu evictions over %llu "
                           "puts",
                           hit_rate * 100.0,
                           (unsigned long long)in.cache_evictions,
                           (unsigned long long)in.cache_puts);
      f.confidence = std::min(1.0, evict_rate * (1.0 - hit_rate));
      f.suggestion = "raise cache_bytes, or use graph-partitioned "
                     "placement to shrink each node's working set";
      d.findings.push_back(std::move(f));
    }
  }

  // 5. Switch saturation: the occupancy sampler's switch track pinned
  // near 1 for a large share of the run.
  for (const auto& ts : in.series) {
    if (ts.name != "occupancy.switch" || ts.points.empty()) continue;
    std::size_t saturated = 0;
    for (const auto& [t, v] : ts.points) {
      (void)t;
      if (v >= 0.9) ++saturated;
    }
    const double frac =
        static_cast<double>(saturated) / static_cast<double>(ts.points.size());
    if (frac >= 0.5) {
      DiagFinding f;
      f.kind = "switch saturation";
      f.detail = strformat("switch >= 90%% busy in %.0f%% of samples",
                           frac * 100.0);
      f.confidence = frac;
      f.suggestion = in.placement_affinity
                         ? "add switch backplane bandwidth (traffic is "
                           "already placement-local)"
                         : "colocate storage and compute with graph-"
                           "partitioned placement (local-bus transfer)";
      d.findings.push_back(std::move(f));
    }
    break;
  }

  // 6. Wasted prefetch: pins released unconsumed mean the lookahead runs
  // ahead of what the join loop ever needs.
  if (in.prefetch_issued > 0 &&
      in.prefetch_wasted * 4 > in.prefetch_issued) {
    DiagFinding f;
    f.kind = "wasted prefetch";
    f.detail = strformat("%llu of %llu prefetches unconsumed",
                         (unsigned long long)in.prefetch_wasted,
                         (unsigned long long)in.prefetch_issued);
    f.confidence = static_cast<double>(in.prefetch_wasted) /
                   static_cast<double>(in.prefetch_issued);
    f.suggestion = "lower prefetch_lookahead (wasted fetches burn "
                   "transfer bandwidth)";
    d.findings.push_back(std::move(f));
  }

  // 7. Retry amplification: every fetch retry re-pays transfer. Exact
  // counter evidence, so confidence is full.
  if (in.fetch_retries > 0) {
    DiagFinding f;
    f.kind = "retry amplification";
    f.detail = strformat("%llu fetch retries beyond the first attempt",
                         (unsigned long long)in.fetch_retries);
    f.confidence = 1.0;
    f.suggestion = "investigate the io-error rate; consider replica "
                   "reads or a longer retry backoff";
    d.findings.push_back(std::move(f));
  }

  // 8. Node loss: fail-stop crashes observed and recovered from.
  if (in.nodes_lost > 0 || in.pairs_reassigned > 0 ||
      in.rows_repartitioned > 0) {
    DiagFinding f;
    f.kind = "node loss";
    f.detail = strformat("%llu compute nodes lost, %llu pairs reassigned, "
                         "%llu rows repartitioned",
                         (unsigned long long)in.nodes_lost,
                         (unsigned long long)in.pairs_reassigned,
                         (unsigned long long)in.rows_repartitioned);
    f.confidence = 1.0;
    f.suggestion = "recovery worked but cost time: keep compute headroom "
                   "(n_j + 1) for fail-stop tolerance";
    d.findings.push_back(std::move(f));
  }

  return d;
}

std::string Diagnosis::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("query");
  w.value(query);
  w.key("algorithm");
  w.value(algorithm);
  w.key("dominant_stage");
  w.value(dominant_stage);
  w.key("dominant_share");
  w.value(dominant_share);
  w.key("findings");
  w.begin_array();
  for (const auto& f : findings) {
    w.begin_object();
    w.key("kind");
    w.value(f.kind);
    w.key("detail");
    w.value(f.detail);
    w.key("confidence");
    w.value(f.confidence);
    w.key("suggestion");
    w.value(f.suggestion);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

std::string Diagnosis::to_string() const {
  std::string s = dominant_stage.empty()
                      ? std::string("no-trace")
                      : strformat("%s %.0f%%", dominant_stage.c_str(),
                                  dominant_share * 100.0);
  for (const auto& f : findings) {
    if (f.kind == "dominant stage") continue;
    s += "; " + f.kind;
  }
  return s;
}

}  // namespace orv::obs
