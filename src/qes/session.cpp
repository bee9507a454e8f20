#include "qes/session.hpp"

#include "common/error.hpp"
#include "common/strings.hpp"
#include "obs/obs.hpp"
#include "qes/analysis.hpp"
#include "qes/qes_common.hpp"

namespace orv {

QesSession::QesSession(Cluster& cluster, BdsService& bds,
                       const MetaDataService& meta, Config config)
    : cluster_(cluster),
      bds_(bds),
      meta_(meta),
      config_(config),
      planner_(cluster.spec()),
      page_index_(meta) {
  if (config_.share_cache) {
    const std::uint64_t cap = config_.cache_bytes > 0
                                  ? config_.cache_bytes
                                  : cluster_.memory_bytes();
    caches_.reserve(cluster_.num_compute());
    for (std::size_t j = 0; j < cluster_.num_compute(); ++j) {
      caches_.push_back(
          std::make_shared<CachingService>(cap, config_.cache_policy));
    }
  }
}

const ConnectivityGraph& QesSession::graph_for(const JoinQuery& query) {
  return page_index_.pruned_graph(query.left_table, query.right_table,
                                  query.join_attrs, query.ranges);
}

CachingService::Stats QesSession::cache_totals() const {
  CachingService::Stats total;
  for (const auto& c : caches_) total += c->stats();
  return total;
}

sim::Task<> QesSession::run_query(JoinQuery query, QesOptions options,
                                  Outcome* out,
                                  std::optional<Algorithm> force) {
  try {
    const ConnectivityGraph& graph = graph_for(query);
    out->graph = &graph;
    out->plan = planner_.plan(meta_, graph, query, &options);
    out->algorithm = force.value_or(out->plan.chosen);
    if (out->algorithm == Algorithm::IndexedJoin) {
      out->result = co_await qes_detail::indexed_join_task(
          cluster_, bds_, meta_, graph, query, options,
          {caches_, config_.cache_bytes, config_.cache_policy});
    } else {
      out->result = co_await qes_detail::grace_hash_task(cluster_, bds_, meta_,
                                                         query, options);
    }
    if (auto* ctx = obs::context()) {
      // Cost-model feedback: what the Section 5 models predicted for the
      // algorithm run vs. what the execution measured.
      ctx->add_plan_validation(plan_validation(
          out->plan, out->algorithm, out->result,
          strformat("join(t%u,t%u)", query.left_table, query.right_table)));
    }
  } catch (const std::exception& e) {
    out->failed = true;
    out->error = e.what();
    out->exception = std::current_exception();
  }
  out->done = true;
}

QesSession::Outcome QesSession::run(JoinQuery query, QesOptions options,
                                    std::optional<Algorithm> force) {
  Outcome out;
  sim::Engine& engine = cluster_.engine();
  engine.spawn(run_query(std::move(query), std::move(options), &out, force),
               "session-query");
  try {
    engine.run();
  } catch (...) {
    if (!out.exception) throw;  // the query's own failure outranks the rest
  }
  ORV_CHECK(out.done, "query task did not complete");
  if (out.exception) std::rethrow_exception(out.exception);
  return out;
}

}  // namespace orv
