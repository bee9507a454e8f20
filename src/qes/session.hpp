#pragma once

// QES session, the one path from a JoinQuery to a plan and an execution
// and the one owner of cache configuration: runs many queries
// *concurrently* over one shared simulated cluster within a single
// Engine::run. Each query is one spawned coroutine (the private executor
// tasks of qes/qes_common.hpp); they contend for the same storage disks,
// NICs, switch and compute CPUs, and — when sharing is on — reuse one
// persistent Caching Service per compute node, so overlapping queries
// finally produce real cross-query hit rates.
//
// Per-query state stays isolated: every query gets its own QesResult,
// its own trace id (obs::ObsContext::next_trace_id), and its own Outcome
// record. A query that faults is caught here — the exception is observed,
// the failure lands in its Outcome, and every other in-flight query keeps
// running.

#include <exception>
#include <memory>
#include <optional>
#include <string>

#include "graph/page_index.hpp"
#include "qes/qes.hpp"
#include "qps/planner.hpp"

namespace orv {

struct SessionConfig {
  /// One persistent CachingService per compute node, shared by every
  /// query (sub-tables cached raw, selection applied to join outputs).
  /// Off = private caches per query, node and supervisor round.
  bool share_cache = true;
  std::uint64_t cache_bytes = 0;  // per node, both modes; 0 = memory size
  CachePolicy cache_policy = CachePolicy::LRU;
};

class QesSession {
 public:
  using Config = SessionConfig;

  /// What happened to one submitted query. `done` flips exactly once, when
  /// the query's coroutine finishes (successfully or not).
  struct Outcome {
    bool done = false;
    bool failed = false;
    std::string error;
    std::exception_ptr exception;  // what the failed query threw
    Algorithm algorithm = Algorithm::IndexedJoin;
    PlanDecision plan;
    QesResult result;
    const ConnectivityGraph* graph = nullptr;  // owned by the page index
  };

  QesSession(Cluster& cluster, BdsService& bds, const MetaDataService& meta,
             Config config = {});

  /// One query, start to finish, as a spawnable coroutine: plan (QPS cost
  /// models), execute the chosen
  /// algorithm on the shared cluster, deposit into `*out`. `force` pins
  /// the algorithm (the plan is still recorded for its cost estimate).
  /// Under an obs context, success records the run's PlanValidation.
  /// Exceptions are captured into the outcome, never propagated — so a
  /// faulted query cannot take down the engine run or its neighbours.
  /// `out` must outlive the task.
  sim::Task<> run_query(JoinQuery query, QesOptions options, Outcome* out,
                        std::optional<Algorithm> force = {});

  /// One query to completion: spawns run_query and drives the engine
  /// until it drains. A failed query rethrows what it threw.
  Outcome run(JoinQuery query, QesOptions options,
              std::optional<Algorithm> force = {});

  Cluster& cluster() { return cluster_; }
  PageIndexService& page_index() { return page_index_; }

  /// The session's shared per-node caches (empty when share_cache is off).
  const std::vector<std::shared_ptr<CachingService>>& node_caches() const {
    return caches_;
  }
  /// Aggregated stats over the shared caches (all zero when sharing is
  /// off). hits + misses always equals the number of lookups.
  CachingService::Stats cache_totals() const;

 private:
  /// Connectivity graph for the query, from the page-level join index
  /// (built once per attribute set, pruned once per range set).
  const ConnectivityGraph& graph_for(const JoinQuery& query);

  Cluster& cluster_;
  BdsService& bds_;
  const MetaDataService& meta_;
  Config config_;
  QueryPlanner planner_;
  PageIndexService page_index_;
  std::vector<std::shared_ptr<CachingService>> caches_;
};

}  // namespace orv
