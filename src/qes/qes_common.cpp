#include "qes/qes_common.hpp"

#include "common/error.hpp"
#include "common/strings.hpp"
#include "fault/fault.hpp"

namespace orv {

namespace qes_detail {

namespace {
struct ResultBox {
  QesResult result;
  bool have = false;
};

sim::Task<> capture_result(sim::Task<QesResult> inner,
                           std::shared_ptr<ResultBox> box) {
  box->result = co_await std::move(inner);
  box->have = true;
}
}  // namespace

QesResult run_query_task(sim::Engine& engine, sim::Task<QesResult> task,
                         const char* name) {
  // The box is shared with the coroutine frame: on a failed query the
  // frame outlives this scope (it is destroyed with the engine), so a
  // plain stack reference would dangle.
  auto box = std::make_shared<ResultBox>();
  engine.spawn(capture_result(std::move(task), box), name);
  engine.run();
  ORV_CHECK(box->have, "query task did not complete");
  return std::move(box->result);
}

sim::Task<std::shared_ptr<const SubTable>> read_with_retry(
    Cluster& cluster, const char* verb, SubTableId id,
    std::uint64_t& retries, SubTableRead read,
    std::function<void()> on_error) {
  auto* inj = cluster.faults();
  const fault::RetryPolicy policy =
      inj ? inj->plan().retry : fault::RetryPolicy{};
  for (int attempt = 0;; ++attempt) {
    if (attempt > 0) {
      co_await cluster.engine().sleep(policy.backoff(attempt));
    }
    try {
      co_return co_await read(attempt);
    } catch (const IoError& e) {
      if (on_error) on_error();
      if (!inj) throw;  // genuine device error: not ours to mask
      if (attempt + 1 >= policy.max_attempts) {
        throw fault::FaultError(std::string(verb) + " of " + id.to_string() +
                                " failed after " +
                                std::to_string(attempt + 1) +
                                " attempts: " + e.what());
      }
      inj->note_retry();
      ++retries;
    }
  }
}

std::shared_ptr<const SubTable> select_rows(
    std::shared_ptr<const SubTable> st, const std::vector<AttrRange>& ranges) {
  if (ranges.empty()) return st;
  return std::make_shared<const SubTable>(filter_rows(*st, ranges));
}

void mark_degraded(QesResult& result) {
  result.degraded = result.fetch_retries > 0 || result.pairs_reassigned > 0 ||
                    result.rows_repartitioned > 0 ||
                    result.compute_nodes_lost > 0;
  if (result.degraded) {
    if (auto* ctx = obs::context()) {
      ctx->registry.counter("query.degraded").add(1);
    }
  }
}

void QueryFrame::open(sim::Engine& engine, const char* span,
                      const char* algorithm) {
  start = engine.now();
  octx_ = obs::context();
  if (octx_) {
    trace_id = octx_->next_trace_id();
    query_span = octx_->tracer.begin(span);
    octx_->tracer.tag(query_span, "trace_id", trace_id);
    octx_->tracer.tag(query_span, "algorithm", std::string(algorithm));
    sampling = octx_->sample_interval > 0;
  }
}

sim::Task<double> QueryFrame::join(Cluster& cluster,
                                   std::vector<sim::JoinHandle> procs,
                                   const char* sampler_name) {
  auto& engine = cluster.engine();
  if (sampling) {
    engine.spawn(occupancy_sampler(cluster, octx_, probes, &done),
                 sampler_name);
  }
  std::exception_ptr first_error;
  for (const auto& h : procs) {
    try {
      co_await h.join();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) {
    // The query died (e.g. an unrecoverable fault): close the root span so
    // a failed query never leaves dangling spans behind.
    if (octx_) octx_->tracer.end_orphaned(query_span);
    std::rethrow_exception(first_error);
  }
  for (const auto& h : procs) {
    ORV_CHECK(h.done(), "query process did not finish: " + h.name());
  }
  co_return (sampling && finished_at >= 0 ? finished_at : engine.now()) -
      start;
}

void QueryFrame::close(QesResult& result) {
  if (octx_) octx_->tracer.end_at(query_span, start + result.elapsed);
  mark_degraded(result);
}

}  // namespace qes_detail

namespace {

/// Every chunk of `table`, extracted and filtered by the query's ranges, in
/// one sub-table: the oracles' input.
SubTable load_table(const MetaDataService& meta,
                    const std::vector<std::shared_ptr<ChunkStore>>& stores,
                    TableId table, const std::vector<AttrRange>& ranges) {
  SubTable all(meta.table_schema(table), SubTableId{table, 0});
  for (const auto& cm : meta.chunks(table)) {
    all.append_rows(
        load_chunk(*stores.at(cm.location.storage_node), cm, &ranges));
  }
  return all;
}

ReferenceResult digest(const SubTable& joined) {
  return ReferenceResult{joined.num_rows(), joined.unordered_fingerprint()};
}

}  // namespace

ReferenceResult reference_join(
    const MetaDataService& meta,
    const std::vector<std::shared_ptr<ChunkStore>>& stores,
    const JoinQuery& query) {
  const SubTable left =
      load_table(meta, stores, query.left_table, query.ranges);
  const SubTable right =
      load_table(meta, stores, query.right_table, query.ranges);
  return digest(hash_join(left, right, query.join_attrs, SubTableId{0, 0}));
}

ReferenceResult nested_loop_reference(
    const MetaDataService& meta,
    const std::vector<std::shared_ptr<ChunkStore>>& stores,
    const JoinQuery& query) {
  const SubTable left =
      load_table(meta, stores, query.left_table, query.ranges);
  const SubTable right =
      load_table(meta, stores, query.right_table, query.ranges);
  return digest(
      nested_loop_join(left, right, query.join_attrs, SubTableId{0, 0}));
}

std::string QesResult::to_string() const {
  std::string s = strformat(
      "elapsed=%.3fs tuples=%llu (partition=%.3fs join=%.3fs) "
      "net=%s scratch(w/r)=%s/%s fetches=%llu builds=%llu "
      "cache(h/m/e)=%llu/%llu/%llu",
      elapsed, (unsigned long long)result_tuples, partition_phase, join_phase,
      human_bytes(static_cast<std::uint64_t>(network_bytes)).c_str(),
      human_bytes(static_cast<std::uint64_t>(scratch_write_bytes)).c_str(),
      human_bytes(static_cast<std::uint64_t>(scratch_read_bytes)).c_str(),
      (unsigned long long)subtable_fetches,
      (unsigned long long)hash_tables_built,
      (unsigned long long)cache_stats.hits,
      (unsigned long long)cache_stats.misses,
      (unsigned long long)cache_stats.evictions);
  if (local_transfer_bytes > 0) {
    s += strformat(
        " switch=%s local=%s",
        human_bytes(static_cast<std::uint64_t>(cross_switch_bytes)).c_str(),
        human_bytes(static_cast<std::uint64_t>(local_transfer_bytes)).c_str());
  }
  if (degraded) {
    s += strformat(
        " DEGRADED retries=%llu pairs_reassigned=%llu "
        "rows_repartitioned=%llu compute_lost=%llu",
        (unsigned long long)fetch_retries,
        (unsigned long long)pairs_reassigned,
        (unsigned long long)rows_repartitioned,
        (unsigned long long)compute_nodes_lost);
  }
  return s;
}

}  // namespace orv
