// Page-level Indexed Join QES (paper Section 4.1).
//
// Each compute node runs one QES process over its scheduled pair list:
// check the local Caching Service for each sub-table, fetch misses from the
// owning BDS instance, build (and cache) a hash table per left sub-table,
// probe with the right sub-table. By default fetch and join serialize
// within a node, matching the cost model's additive Transfer + Cpu
// decomposition.
//
// With QesOptions::prefetch_lookahead > 0 each node instead runs a
// prefetcher coroutine that walks the pair list ahead of the join loop:
// it fetches missing sub-tables from the BDS (coalescing adjacent chunk
// reads when fault-free), *pins* them in the Caching Service so eviction
// cannot undo a prefetch, and hands ready pair indices to the join loop
// through a bounded channel (capacity = lookahead). The join loop then
// overlaps Build/Probe with the prefetcher's Transfer, so per-node time
// approaches max(Transfer, Cpu) — the pipelined cost model. Pins are
// released when the consumer finishes a pair, or during the drain protocol
// when a node dies / the prefetcher fails, so fault-reassignment never
// leaks a pin into a persistent session cache.

#include <algorithm>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "fault/fault.hpp"
#include "obs/obs.hpp"
#include "qes/qes_common.hpp"
#include "sim/channel.hpp"
#include "sim/engine.hpp"

namespace orv {

namespace {

struct IjShared {
  using Ranges = std::vector<AttrRange>;

  IjShared(Cluster& c, BdsService& b, const MetaDataService& m,
           const JoinQuery& q, const QesOptions& o,
           qes_detail::NodeCaches nc, SchemaPtr schema)
      : cluster(c), bds(b), meta(m), query(q), options(o), caches(nc),
        fetch_ranges(shared() ? Ranges{} : q.ranges),
        pairs(std::move(schema), q.join_attrs,
              shared() ? q.ranges : Ranges{}) {}

  bool shared() const { return !caches.shared.empty(); }

  Cluster& cluster;
  BdsService& bds;
  const MetaDataService& meta;
  const JoinQuery& query;
  const QesOptions& options;
  const qes_detail::NodeCaches caches;

  /// The query's selection, placed once: here or in pairs.output_ranges,
  /// the other one stays empty. With session caches, which hold raw
  /// sub-tables so later queries with other predicates can reuse them, it
  /// applies to each join output (equivalent for conjunctive per-attribute
  /// ranges: key attributes survive the join). Otherwise the join loop
  /// applies it to each fetched sub-table (the paper filters at the
  /// compute side).
  const Ranges fetch_ranges;
  /// The build and probe of every pair; its stats become the result's.
  PairJoin pairs;

  qes_detail::QueryFrame frame;
  /// Accumulated in place (single-threaded engine: plain writes are safe).
  /// node_work holds per-node busy seconds, pairs joined and bytes fetched,
  /// across supervisor rounds.
  QesResult result;

  // Fault recovery state (empty on a fault-free run).
  std::vector<char> dead;             // compute nodes observed fail-stop
  std::vector<SubTablePair> orphans;  // pairs abandoned by dead nodes

  // Pipelining accounting (zero on serial runs).
  double fetch_busy = 0;     // virtual seconds prefetchers spent fetching
  double consumer_wait = 0;  // virtual seconds join loops starved on recv

  // Per-node "ij.node" span ids; parents for fetch/build/probe spans.
  std::vector<obs::SpanId> node_spans;
};

/// One fetch from the owning BDS instance, with the query's selection
/// applied where IjShared places it. Retryable I/O failures go through
/// the shared retry loop; each failed attempt invalidates any cached copy
/// of the id, since a cached copy of a failing source is suspect.
sim::Task<std::shared_ptr<const SubTable>> fetch_subtable(
    IjShared& sh, SubTableId id, std::size_t node, CachingService& cache,
    obs::SpanId* fetch_span = nullptr) {
  ++sh.result.subtable_fetches;
  obs::StageScope stage(obs::context(), "ij.fetch", sh.node_spans[node]);
  if (fetch_span) *fetch_span = stage.id();
  auto st = co_await qes_detail::read_with_retry(
      sh.cluster, "fetch", id, sh.result.fetch_retries,
      [&](int attempt) {
        if (attempt > 0) {
          stage.tag("retry", static_cast<std::uint64_t>(attempt));
        }
        return sh.bds.instance_for(id).fetch_to_compute(
            id, node, obs::TraceContext{sh.frame.trace_id, stage.id()});
      },
      [&] { cache.invalidate(id); });
  st = qes_detail::select_rows(std::move(st), sh.fetch_ranges);
  sh.result.node_work[node].bytes += static_cast<double>(st->size_bytes());
  co_return st;
}

/// `id` from the node's cache, else fetched and cached. A pipelined pair's
/// side is missing only when it was doomed while pinned (a failing re-fetch
/// of the same chunk invalidated it): it is fetched fresh.
sim::Task<std::shared_ptr<const SubTable>> resident(IjShared& sh,
                                                    SubTableId id,
                                                    std::size_t node,
                                                    CachingService& cache) {
  if (auto st = cache.get(id)) co_return st;
  auto st = co_await fetch_subtable(sh, id, node, cache);
  cache.put(id, st);
  co_return st;
}

/// Shared state between one node's prefetcher and its join loop.
struct IjPrefetchState {
  IjPrefetchState(sim::Engine& engine, std::size_t lookahead)
      : ch(engine, lookahead) {}

  /// Ready pair indices, in pair-list order; the bound IS the lookahead:
  /// the prefetcher parks on send once it is `lookahead` pairs ahead.
  sim::Channel<std::size_t> ch;
  /// Set by the consumer (death, error): the prefetcher stops at the next
  /// pair boundary, releases what it still holds, and closes the channel.
  bool stop = false;
  /// Prefetcher failure, rethrown by the consumer after the drain (unless
  /// the node died first — then the pair is orphaned work, not an error).
  std::exception_ptr error;
  /// Pins taken by a coalesced batch on behalf of *future* pair
  /// occurrences: when the walk reaches such an id it spends a credit
  /// instead of pinning again. Unspent credits are released on shutdown.
  std::unordered_map<SubTableId, std::uint32_t, SubTableIdHash> credits;
  /// Span of the fetch that made pair i ready (0 = cache hit). The
  /// consumer links its ij.wait span to it, giving critical-path analysis
  /// the causal edge from a starved join loop into the prefetcher's
  /// transfer time.
  std::vector<obs::SpanId> pair_fetch_span;
  /// Batch fetch span backing each outstanding credit, so credit-spending
  /// pairs still point at the fetch that actually moved their bytes.
  std::unordered_map<SubTableId, obs::SpanId, SubTableIdHash> credit_span;
};

/// Ensures `id` (needed by pairs[pair_idx]) is resident and holds one pin
/// for this pair occurrence. On a miss, fault-free runs batch the fetch
/// with upcoming misses of the same storage node so adjacent chunk reads
/// coalesce into one disk reservation; under fault injection every id goes
/// through fetch_subtable's retry/backoff path individually.
sim::Task<> ij_prefetch_fetch(IjShared& sh, std::size_t node,
                              CachingService& cache, IjPrefetchState& ps,
                              const std::vector<SubTablePair>& pairs,
                              std::size_t pair_idx, SubTableId id) {
  if (auto it = ps.credits.find(id); it != ps.credits.end() && it->second > 0) {
    --it->second;  // an earlier batch already pinned this occurrence
    if (auto cs = ps.credit_span.find(id); cs != ps.credit_span.end()) {
      ps.pair_fetch_span[pair_idx] = cs->second;
    }
    co_return;
  }
  if (cache.pin(id)) co_return;  // resident: pin is all we need
  const double t0 = sh.cluster.engine().now();
  if (sh.cluster.faults() == nullptr && sh.options.coalesce_fetches) {
    // Gather upcoming misses within the lookahead window, then keep only
    // the maximal on-disk-adjacent run containing `id`: those chunks
    // coalesce into one disk reservation (one seek). Fetching non-adjacent
    // ids together would save nothing and delay the current pair behind
    // the whole batch's transfer.
    const ChunkLocation& loc = sh.meta.chunk(id).location;
    std::vector<const ChunkMeta*> cands;
    std::unordered_set<SubTableId, SubTableIdHash> taken{id};
    const std::size_t window_end =
        std::min(pairs.size(), pair_idx + 1 + sh.options.prefetch_lookahead);
    for (std::size_t k = pair_idx + 1; k < window_end; ++k) {
      const SubTableId sides[2] = {pairs[k].left, pairs[k].right};
      for (const SubTableId cand : sides) {
        if (taken.count(cand) != 0) continue;
        if (auto it = ps.credits.find(cand);
            it != ps.credits.end() && it->second > 0) {
          continue;
        }
        if (cache.contains(cand)) continue;
        taken.insert(cand);
        cands.push_back(&sh.meta.chunk(cand));
      }
    }
    std::sort(cands.begin(), cands.end(),
              [](const ChunkMeta* a, const ChunkMeta* b) {
                return a->location.offset < b->location.offset;
              });
    // Extend the run upward from `id`, then collect the chunks that chain
    // downward onto its start.
    std::vector<SubTableId> batch{id};
    const ChunkLocation* last = &loc;
    for (const ChunkMeta* cm : cands) {
      if (last->followed_by(cm->location)) {
        batch.push_back(cm->id);
        last = &cm->location;
      }
    }
    const ChunkLocation* first = &loc;
    for (auto it = cands.rbegin(); it != cands.rend(); ++it) {
      if ((*it)->location.followed_by(*first)) {
        batch.push_back((*it)->id);
        first = &(*it)->location;
      }
    }
    obs::StageScope stage(obs::context(), "ij.fetch", sh.node_spans[node]);
    stage.tag("batch", static_cast<std::uint64_t>(batch.size()));
    ps.pair_fetch_span[pair_idx] = stage.id();
    sh.result.subtable_fetches += batch.size();
    auto tables = co_await sh.bds.instance(loc.storage_node)
                      .fetch_batch_to_compute(
                          batch, node,
                          obs::TraceContext{sh.frame.trace_id, stage.id()});
    for (std::size_t i = 0; i < batch.size(); ++i) {
      cache.put_pinned(batch[i], qes_detail::select_rows(std::move(tables[i]),
                                                         sh.fetch_ranges));
      if (i > 0) {
        ++ps.credits[batch[i]];
        ps.credit_span[batch[i]] = stage.id();
      }
    }
    sh.result.prefetch_issued += batch.size();
  } else {
    obs::SpanId fetch_span;
    auto st = co_await fetch_subtable(sh, id, node, cache, &fetch_span);
    cache.put_pinned(id, std::move(st));
    ps.pair_fetch_span[pair_idx] = fetch_span;
    ++sh.result.prefetch_issued;
  }
  sh.fetch_busy += sh.cluster.engine().now() - t0;
}

/// The per-node prefetcher: walks the pair list ahead of the join loop,
/// pinning both sides of each pair before publishing its index. Always
/// closes the channel on the way out; failures are parked in ps.error for
/// the consumer to rethrow after the drain.
sim::Task<> ij_prefetcher(IjShared& sh, std::size_t node,
                          CachingService& cache,
                          const std::vector<SubTablePair>& pairs,
                          IjPrefetchState& ps) {
  auto* inj = sh.cluster.faults();
  try {
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      if (ps.stop || (inj && inj->compute_down(node))) break;
      bool left_pinned = false;
      try {
        co_await ij_prefetch_fetch(sh, node, cache, ps, pairs, i,
                                   pairs[i].left);
        left_pinned = true;
        if (ps.stop || (inj && inj->compute_down(node))) {
          cache.unpin(pairs[i].left);
          ++sh.result.prefetch_wasted;
          break;
        }
        co_await ij_prefetch_fetch(sh, node, cache, ps, pairs, i,
                                   pairs[i].right);
      } catch (...) {
        if (left_pinned) {
          cache.unpin(pairs[i].left);
          ++sh.result.prefetch_wasted;
        }
        throw;
      }
      co_await ps.ch.send(i);
    }
  } catch (...) {
    ps.error = std::current_exception();
  }
  // Unspent batch credits hold pins nobody will ever consume.
  for (auto& [id, n] : ps.credits) {
    for (; n > 0; --n) {
      cache.unpin(id);
      ++sh.result.prefetch_wasted;
    }
  }
  ps.ch.close();
}

sim::Task<> ij_node(IjShared& sh, std::size_t node,
                    std::vector<SubTablePair> pairs, obs::TraceContext rpc,
                    std::uint64_t round) {
  const auto& hw = sh.cluster.spec().hw;
  const double factor = sh.options.cpu_work_factor;
  // Shared session caches persist across queries; a private one lives for
  // this round only.
  CachingService local_cache(
      sh.caches.bytes ? sh.caches.bytes : sh.cluster.memory_bytes(),
      sh.caches.policy);
  CachingService& cache = sh.shared() ? *sh.caches.shared[node] : local_cache;
  const CachingService::Stats stats_before = cache.stats();
  auto& cpu = sh.cluster.compute_cpu(node);
  ChunkId out_seq = 0;

  const double node_start = sh.cluster.engine().now();
  obs::StageScope node_stage(obs::context(), "ij.node", rpc.parent);
  node_stage.tag("node", static_cast<std::uint64_t>(node));
  node_stage.tag("pairs", static_cast<std::uint64_t>(pairs.size()));
  if (round > 0) node_stage.tag("round", round);
  sh.node_spans[node] = node_stage.id();

  ProbeGuard node_probes(sh.frame.probes);
  if (sh.frame.sampling) {
    node_probes.add(strformat("cache.bytes[%zu]", node),
                    [&cache] { return static_cast<double>(cache.used_bytes()); });
    node_probes.add(strformat("cache.pins[%zu]", node), [&cache] {
      return static_cast<double>(cache.pinned_count());
    });
  }

  // Pipelined mode: the prefetcher fetches + pins ahead while the loop
  // below builds and probes, overlapping Transfer with Cpu. The loop is
  // the same in both modes but for where the next pair index comes from
  // (the prefetcher's channel, or `next`) and the pin release after it.
  const bool pipelined = sh.options.prefetch_lookahead > 0 && !pairs.empty();
  std::optional<IjPrefetchState> ps;
  sim::JoinHandle pf;
  ProbeGuard ch_probe(sh.frame.probes);
  if (pipelined) {
    ps.emplace(sh.cluster.engine(), sh.options.prefetch_lookahead);
    ps->pair_fetch_span.resize(pairs.size());
    if (sh.frame.sampling) {
      ch_probe.add(strformat("prefetch.depth[%zu]", node), [&ps] {
        return static_cast<double>(ps->ch.size());
      });
    }
    pf = sh.cluster.engine().spawn(ij_prefetcher(sh, node, cache, pairs, *ps),
                                   strformat("ij-prefetch-%zu", node));
  }

  auto* inj = sh.cluster.faults();
  bool died = false;
  const auto down = [&] { return died = inj && inj->compute_down(node); };
  std::size_t next = 0;  // first pair whose output has NOT been accumulated
  std::optional<std::size_t> inflight;  // recv'd pair whose pins we hold
  std::exception_ptr error;
  try {
    while (true) {
      if (pipelined) {
        const double wait_from = sh.cluster.engine().now();
        // Consumer starvation on the bounded lookahead window: the walk
        // classifies this as cache-wait time on the critical path.
        obs::StageScope wait_stage(obs::context(), "ij.wait",
                                   node_stage.id());
        const auto idx = co_await ps->ch.recv();
        if (idx && ps->pair_fetch_span[*idx]) {
          // Causal edge into the fetch this wait was actually blocked on:
          // lets the critical path hop from a starved consumer into the
          // prefetcher's transfer instead of booking it all as cache-wait.
          if (auto* octx = obs::context()) {
            octx->tracer.link(wait_stage.id(), ps->pair_fetch_span[*idx]);
          }
        }
        wait_stage.close();
        if (!idx) break;  // prefetcher done (or failed: checked below)
        sh.consumer_wait += sh.cluster.engine().now() - wait_from;
        ORV_CHECK(*idx == next, "prefetched pairs must arrive in order");
        inflight = *idx;
      } else if (next == pairs.size()) {
        break;
      }
      const auto& pair = pairs[next];
      // Fail-stop checks bracket each pair: once the node's crash time has
      // passed it abandons the current pair *before* accumulating its
      // output, so every pair's result is emitted exactly once (here or at
      // the surviving node the supervisor re-assigns it to). An abandoned
      // in-flight pair's pins are released by the shutdown protocol below.
      if (down()) break;

      // Left sub-table + its hash table (built once, cached).
      const auto left = co_await resident(sh, pair.left, node, cache);
      auto ht = cache.get_hash_table(pair.left);
      if (!ht) {
        obs::StageScope build_stage(obs::context(), "ij.build",
                                    node_stage.id());
        co_await cpu.use(hw.gamma_build * factor *
                         static_cast<double>(left->num_rows()));
        ht = sh.pairs.build(left);
        cache.attach_hash_table(pair.left, ht);
        ++sh.result.hash_tables_built;
        build_stage.tag("rows", left->num_rows());
      }
      if (down()) break;  // mid-pair: fetches take time
      const auto right = co_await resident(sh, pair.right, node, cache);

      // Probe: one lookup per right record (join selectivity 1 per Sec. 5).
      obs::StageScope probe_stage(obs::context(), "ij.probe",
                                  node_stage.id());
      co_await cpu.use(hw.gamma_lookup * factor *
                       static_cast<double>(right->num_rows()));
      if (down()) break;  // pre-accumulation check
      const SubTable out =
          sh.pairs.probe(*ht, *right, SubTableId{0, out_seq++});
      probe_stage.tag("rows", right->num_rows());
      probe_stage.close();
      sh.result.result_fingerprint += out.unordered_fingerprint();
      if (sh.options.result_sink) sh.options.result_sink(node, out);
      if (inflight) {
        cache.unpin(pair.left);
        cache.unpin(pair.right);
        inflight.reset();
      }
      ++next;
    }
  } catch (...) {
    error = std::current_exception();
  }
  if (pipelined) {
    // Shutdown protocol (every exit takes it): release the in-flight
    // pair's pins, tell the prefetcher to stop, drain what it already
    // published (one pin per side per drained pair), and join it before
    // this frame — which the prefetcher references — goes away.
    if (inflight) {
      cache.unpin(pairs[*inflight].left);
      cache.unpin(pairs[*inflight].right);
      sh.result.prefetch_wasted += 2;
      inflight.reset();
    }
    ps->stop = true;
    for (;;) {
      const auto idx = co_await ps->ch.recv();
      if (!idx) break;
      cache.unpin(pairs[*idx].left);
      cache.unpin(pairs[*idx].right);
      sh.result.prefetch_wasted += 2;
    }
    co_await pf.join();
    // A prefetch failure on a pair a dead node never reached is not an
    // error — the pair is orphaned work for the supervisor.
    if (!error && !died) error = ps->error;
  }
  if (error) std::rethrow_exception(error);
  if (died) {
    inj->note_crash_observed(fault::NodeKind::Compute, node);
    sh.dead[node] = 1;
    // Everything from the abandoned pair on is orphaned work for the
    // supervisor to re-assign.
    sh.orphans.insert(sh.orphans.end(), pairs.begin() + next, pairs.end());
    // The node span is about to close normally (RAII), but a trace
    // consumer must be able to tell an abandoned stage from a completed
    // one — mark it before the scope closes it.
    if (auto* octx = obs::context()) {
      octx->tracer.end_orphaned(node_stage.id());
    }
  }
  auto& nw = sh.result.node_work[node];
  nw.node = node;
  nw.busy_seconds += sh.cluster.engine().now() - node_start;
  nw.items += next;  // pairs whose output this node accumulated

  // Report only this run's cache activity (session caches accumulate).
  CachingService::Stats delta = cache.stats();
  delta -= stats_before;
  sh.result.cache_stats += delta;
}

/// Spawns one worker per compute node, then supervises: when workers die
/// fail-stop, their orphaned pairs are re-distributed round-robin over the
/// survivors and a new round of workers runs. The dead set only grows and
/// chaos plans always leave a survivor, so the loop terminates; if every
/// node is lost the query fails with a clean FaultError instead of
/// hanging or dropping rows.
sim::Task<> ij_supervisor(IjShared& sh,
                          std::vector<std::vector<SubTablePair>> work) {
  auto& engine = sh.cluster.engine();
  // Every exit path (clean finish, all-nodes-lost FaultError) must stop
  // the occupancy sampler and pin down the query's true completion time:
  // a sampler tick after this frame unwinds advances engine.now() past it.
  struct Finished {
    IjShared& sh;
    sim::Engine& engine;
    ~Finished() { sh.frame.finish(engine.now()); }
  } finished{sh, engine};
  obs::StageScope sup_stage(obs::context(), "ij.supervisor",
                            sh.frame.query_span);
  std::vector<char> alive(work.size(), 1);
  bool first_round = true;
  std::uint64_t round = 0;
  while (true) {
    std::vector<sim::JoinHandle> handles;
    for (std::size_t j = 0; j < work.size(); ++j) {
      if (!alive[j]) continue;
      // Round 0 spawns every node (even idle ones) so the fault-free run
      // is event-for-event identical to the pre-fault engine behaviour.
      if (!first_round && work[j].empty()) continue;
      handles.push_back(engine.spawn(
          ij_node(sh, j, std::move(work[j]),
                  obs::TraceContext{sh.frame.trace_id, sup_stage.id()},
                  round),
          strformat("ij-node-%zu", j)));
    }
    first_round = false;
    for (auto& h : handles) co_await h.join();
    for (std::size_t j = 0; j < work.size(); ++j) {
      if (sh.dead[j] && alive[j]) {
        alive[j] = 0;
        ++sh.result.compute_nodes_lost;
      }
      work[j].clear();
    }
    if (sh.orphans.empty()) {
      if (round > 0) sup_stage.tag("rounds", round + 1);
      co_return;
    }
    std::vector<SubTablePair> orphans = std::move(sh.orphans);
    sh.orphans.clear();
    sh.result.pairs_reassigned += orphans.size();
    bool any_alive = false;
    for (char a : alive) any_alive = any_alive || a != 0;
    if (!any_alive) {
      throw fault::FaultError(
          "indexed join: every compute node crashed; query cannot complete");
    }
    work = redistribute_pairs(orphans, alive);
    ++round;
  }
}

}  // namespace

sim::Task<QesResult> qes_detail::indexed_join_task(
    Cluster& cluster, BdsService& bds, const MetaDataService& meta,
    const ConnectivityGraph& graph, const JoinQuery& query,
    const QesOptions& options, NodeCaches caches) {
  ORV_REQUIRE(!query.join_attrs.empty(), "join needs key attributes");
  auto& engine = cluster.engine();

  const auto left_schema = meta.table_schema(query.left_table);
  const auto right_schema = meta.table_schema(query.right_table);
  const JoinKey right_key =
      JoinKey::resolve(*right_schema, query.join_attrs);
  IjShared sh{cluster,
              bds,
              meta,
              query,
              options,
              caches,
              std::make_shared<const Schema>(Schema::join_result(
                  *left_schema, *right_schema, right_key.attr_indices()))};

  Schedule schedule;
  if (options.assign == ComponentAssign::CacheAffinity && sh.shared()) {
    // Follow warm session caches: send each component to the node already
    // holding most of its sub-table bytes.
    const auto& components = graph.components();
    std::vector<std::vector<double>> affinity(
        components.size(), std::vector<double>(cluster.num_compute(), 0.0));
    auto bytes_of = [&](SubTableId id) {
      const auto& cm = meta.chunk(id);
      return static_cast<double>(cm.num_rows * cm.schema->record_size());
    };
    for (std::size_t c = 0; c < components.size(); ++c) {
      for (std::size_t n = 0; n < cluster.num_compute(); ++n) {
        const auto& cache = caches.shared[n];
        for (const auto& id : components[c].left_subtables) {
          if (cache->contains(id)) affinity[c][n] += bytes_of(id);
        }
        for (const auto& id : components[c].right_subtables) {
          if (cache->contains(id)) affinity[c][n] += bytes_of(id);
        }
      }
    }
    schedule = make_schedule_with_affinity(graph, cluster.num_compute(),
                                           affinity, options.pair_order,
                                           options.seed);
  } else if (options.assign == ComponentAssign::PlacementAffinity) {
    // Follow the data: send each component to the compute node paired with
    // the storage node holding most of its bytes. On a colocated cluster
    // those fetches ride the local bus instead of the switch.
    schedule = make_schedule_placement_affinity(
        graph, cluster.num_compute(), meta, cluster.num_storage(),
        options.pair_order, options.seed);
  } else {
    schedule = make_schedule(graph, cluster.num_compute(), options.assign,
                             options.pair_order, options.seed);
  }

  // Resource byte counters before the run (clusters may be reused).
  const double net0 = cluster.network_bytes();
  const double switch0 = cluster.switch_bytes();
  const double local0 = cluster.local_bytes();
  const double sread0 = cluster.disk_totals().storage_read;

  sh.node_spans.resize(cluster.num_compute());
  sh.result.node_work.resize(cluster.num_compute());
  sh.dead.assign(cluster.num_compute(), 0);
  sh.frame.open(engine, "ij.query", "indexed_join");
  std::vector<sim::JoinHandle> procs{engine.spawn(
      ij_supervisor(sh, std::move(schedule.pairs_per_node)), "ij-supervisor")};
  QesResult& result = sh.result;
  result.elapsed =
      co_await sh.frame.join(cluster, std::move(procs), "ij-sampler");
  result.join_phase = result.elapsed;
  result.join_stats = sh.pairs.stats();
  result.result_tuples = result.join_stats.result_tuples;
  result.network_bytes = cluster.network_bytes() - net0;
  result.cross_switch_bytes = cluster.switch_bytes() - switch0;
  result.local_transfer_bytes = cluster.local_bytes() - local0;
  result.storage_disk_read_bytes =
      cluster.disk_totals().storage_read - sread0;
  if (sh.fetch_busy > 0) {
    // 1 when the join loop never starved on the channel (all Transfer
    // hidden behind Cpu); 0 when every fetch second was waited out.
    result.overlap_ratio =
        std::max(0.0, 1.0 - sh.consumer_wait / sh.fetch_busy);
  }
  sh.frame.close(result);
  if (auto* ctx = obs::context()) {
    ctx->registry.counter("ij.subtable_fetches").add(result.subtable_fetches);
    ctx->registry.counter("ij.hash_tables_built")
        .add(result.hash_tables_built);
    ctx->registry.counter("ij.result_tuples").add(result.result_tuples);
    ctx->registry.gauge("ij.elapsed_seconds").set(result.elapsed);
    if (options.prefetch_lookahead > 0) {
      ctx->registry.counter("prefetch.issued").add(result.prefetch_issued);
      ctx->registry.counter("prefetch.wasted").add(result.prefetch_wasted);
      ctx->registry.gauge("ij.overlap_ratio").set(result.overlap_ratio);
    }
  }
  co_return std::move(result);
}

QesResult run_indexed_join(Cluster& cluster, BdsService& bds,
                           const MetaDataService& meta,
                           const ConnectivityGraph& graph,
                           const JoinQuery& query, const QesOptions& options) {
  return qes_detail::run_query_task(
      cluster.engine(),
      qes_detail::indexed_join_task(cluster, bds, meta, graph, query, options,
                                    {}),
      "ij-query");
}

}  // namespace orv
