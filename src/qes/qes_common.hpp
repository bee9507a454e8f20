#pragma once

// The executor skeleton the distributed QES share: the BDS retry loop, the
// query's selection step, the degraded rule and the per-query frame (root
// span, occupancy sampler, true completion time). Indexed Join, Grace Hash
// and scan-aggregate each define these decisions here, once. It also
// declares the executor tasks, whose only callers are QesSession and the
// run_indexed_join / run_grace_hash wrappers.

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "obs/obs.hpp"
#include "qes/qes.hpp"
#include "qes/sampler.hpp"
#include "sim/engine.hpp"

namespace orv::qes_detail {

/// The Caching Service each Indexed Join compute node fetches through:
/// shared[j] when `shared` is non-empty (the session's caches, which hold
/// raw sub-tables across queries), else a private cache of `bytes` (0 =
/// the cluster's memory size) and `policy` per node and supervisor round.
struct NodeCaches {
  std::span<const std::shared_ptr<CachingService>> shared;
  std::uint64_t bytes = 0;
  CachePolicy policy = CachePolicy::LRU;
};

/// The whole query (worker spawn, supervision, result assembly) as one
/// coroutine on the cluster's engine, so queries can run concurrently over
/// the shared simulated resources. Every argument must outlive the task.
sim::Task<QesResult> indexed_join_task(Cluster& cluster, BdsService& bds,
                                       const MetaDataService& meta,
                                       const ConnectivityGraph& graph,
                                       const JoinQuery& query,
                                       const QesOptions& options,
                                       NodeCaches caches);
sim::Task<QesResult> grace_hash_task(Cluster& cluster, BdsService& bds,
                                     const MetaDataService& meta,
                                     const JoinQuery& query,
                                     const QesOptions& options);

/// Spawns one query task and drives the engine until it drains; the
/// single-query path shared by both run_* wrappers.
QesResult run_query_task(sim::Engine& engine, sim::Task<QesResult> task,
                         const char* name);

/// One attempt at reading a sub-table from a BDS instance.
using SubTableRead =
    std::function<sim::Task<std::shared_ptr<const SubTable>>(int attempt)>;

/// Runs `read` under the cluster's fault plan's retry policy. An IoError
/// (an injected read error, or an RPC timeout against a down storage node)
/// runs `on_error`, then backs off exponentially and tries again, counting
/// the retry in `retries` and in the injector's retry.attempts. Without an
/// injector the error is a genuine device error and propagates; once the
/// budget is spent it surfaces as a clean FaultError ("<verb> of <id>
/// failed after N attempts").
sim::Task<std::shared_ptr<const SubTable>> read_with_retry(
    Cluster& cluster, const char* verb, SubTableId id,
    std::uint64_t& retries, SubTableRead read,
    std::function<void()> on_error = {});

/// `st` under the query's record-level selection: `st` itself when there
/// are no ranges, else its surviving rows.
std::shared_ptr<const SubTable> select_rows(
    std::shared_ptr<const SubTable> st, const std::vector<AttrRange>& ranges);

/// Sets result.degraded when the run leaned on recovery (retries,
/// re-assigned pairs, re-partitioned rows, lost compute nodes) and mirrors
/// it to the query.degraded counter.
void mark_degraded(QesResult& result);

/// The lifecycle every distributed join query shares. The executor's exit
/// guard records `done` and `finished_at`, which stop the sampler and pin
/// down the true completion time: a sampler tick after that advances
/// engine.now() past it.
struct QueryFrame {
  std::uint64_t trace_id = 0;
  obs::SpanId query_span;
  bool sampling = false;
  bool done = false;
  double finished_at = -1;
  ProbeSet probes;
  double start = 0;

  /// Starts the clock and, with an ObsContext installed, opens the root
  /// span `span` tagged with a fresh trace id and `algorithm`.
  void open(sim::Engine& engine, const char* span, const char* algorithm);

  /// Called by the executor's exit guard on every exit path.
  void finish(double now) {
    done = true;
    finished_at = now;
  }

  /// Spawns the occupancy sampler (when sampling), then joins `procs` in
  /// spawn order. The first failure, in spawn order, closes the root span
  /// as orphaned and is rethrown once every process is joined. Returns the
  /// query's elapsed virtual seconds.
  sim::Task<double> join(Cluster& cluster, std::vector<sim::JoinHandle> procs,
                         const char* sampler_name);

  /// Closes the root span at the completion instant and applies
  /// mark_degraded.
  void close(QesResult& result);

 private:
  obs::ObsContext* octx_ = nullptr;
};

}  // namespace orv::qes_detail
