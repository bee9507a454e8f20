#include "qes/scan_aggregate.hpp"

#include "common/error.hpp"
#include "common/strings.hpp"
#include "qes/qes_common.hpp"
#include "sim/channel.hpp"
#include "sim/event.hpp"
#include "sim/engine.hpp"

namespace orv {

namespace {

struct SaShared {
  SaShared(Cluster& c, BdsService& b, const MetaDataService& m,
           const AggregateQuery& q, const QesOptions& o)
      : cluster(c), bds(b), meta(m), query(q), options(o) {}

  Cluster& cluster;
  BdsService& bds;
  const MetaDataService& meta;
  const AggregateQuery& query;
  const QesOptions& options;

  /// One partial aggregator per storage node, merged by the coordinator.
  std::vector<std::unique_ptr<GroupByAggregator>> partials;
  std::uint64_t fetch_retries = 0;
};

/// Storage-node QES: stream local chunks, filter, fold.
sim::Task<> sa_storage(SaShared& sh, std::size_t node, sim::Latch& done) {
  const auto& hw = sh.cluster.spec().hw;
  auto& cpu = sh.cluster.storage_cpu(node);
  GroupByAggregator& agg = *sh.partials[node];

  for (const auto& cm : sh.meta.chunks(sh.query.table)) {
    if (cm.location.storage_node != node) continue;
    if (!satisfies_ranges(cm, sh.query.ranges)) continue;  // chunk pruning

    auto st = co_await qes_detail::read_with_retry(
        sh.cluster, "produce", cm.id, sh.fetch_retries,
        [&](int) { return sh.bds.instance(node).produce(cm.id); });
    const auto rows = qes_detail::select_rows(std::move(st), sh.query.ranges);
    co_await cpu.use(hw.gamma_aggregate * sh.options.cpu_work_factor *
                     static_cast<double>(rows->num_rows()));
    agg.consume(*rows);
  }

  // Ship the partial state to the coordinator (compute node 0).
  co_await sh.cluster.transfer_storage_to_compute(
      node, 0, static_cast<double>(agg.estimated_state_bytes()));
  done.count_down();
}

/// Coordinator: wait for every partial, merge, finish.
sim::Task<> sa_coordinator(SaShared& sh, sim::Latch& done,
                           GroupByAggregator& merged) {
  co_await done.wait();
  const auto& hw = sh.cluster.spec().hw;
  std::size_t total_groups = 0;
  for (const auto& partial : sh.partials) {
    total_groups += partial->num_groups();
    merged.merge(*partial);
  }
  co_await sh.cluster.compute_cpu(0).use(
      hw.gamma_aggregate * static_cast<double>(total_groups));
}

}  // namespace

QesResult run_distributed_aggregate(Cluster& cluster, BdsService& bds,
                                    const MetaDataService& meta,
                                    const AggregateQuery& query,
                                    const QesOptions& options,
                                    SubTable* out) {
  ORV_REQUIRE(!query.aggs.empty(), "aggregate query needs aggregates");
  auto& engine = cluster.engine();
  const auto schema = meta.table_schema(query.table);

  SaShared sh{cluster, bds, meta, query, options};
  for (std::size_t i = 0; i < cluster.num_storage(); ++i) {
    sh.partials.push_back(std::make_unique<GroupByAggregator>(
        schema, query.group_by, query.aggs));
  }
  GroupByAggregator merged(schema, query.group_by, query.aggs);

  const double net0 = cluster.network_bytes();
  const double start = engine.now();
  sim::Latch done(engine, cluster.num_storage());
  std::vector<sim::JoinHandle> handles;
  for (std::size_t i = 0; i < cluster.num_storage(); ++i) {
    handles.push_back(
        engine.spawn(sa_storage(sh, i, done), strformat("agg-node-%zu", i)));
  }
  handles.push_back(engine.spawn(sa_coordinator(sh, done, merged),
                                 "agg-coordinator"));
  engine.run();
  for (const auto& h : handles) {
    ORV_CHECK(h.done(), "aggregate process did not finish");
  }

  QesResult result;
  result.elapsed = engine.now() - start;
  result.result_tuples = merged.num_groups();
  result.network_bytes = cluster.network_bytes() - net0;
  result.fetch_retries = sh.fetch_retries;
  qes_detail::mark_degraded(result);
  SubTable table = merged.finish();
  result.result_fingerprint = table.unordered_fingerprint();
  if (out != nullptr) *out = std::move(table);
  return result;
}

}  // namespace orv
