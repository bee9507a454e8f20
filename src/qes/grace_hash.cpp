// Grace Hash join QES (paper Section 4.2, network-free bucket-join
// variant).
//
// Phase 1 (partition): each storage node's QES reads its local chunks of
// both tables, applies h1 to route record batches to compute nodes; each
// compute node applies h2 to split received records into scratch-disk
// buckets. By default the receiver charges network + bucket write per
// batch sequentially, which is what makes the cost model's Transfer +
// Write terms additive (Section 5.2). With QesOptions::gh_double_buffer
// the spill of batch k overlaps the receive of batch k+1 (one outstanding
// reservation), and phase 2 reserves the next bucket's read-back while the
// CPU joins the current one — the pipelined cost model's max-of-stages.
//
// Phase 2 (bucket join): after a barrier, each compute node reads its
// bucket pairs back and joins them in memory, independently of the network.

#include <deque>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "cost/cost_model.hpp"
#include "fault/fault.hpp"
#include "net/aggregator.hpp"
#include "obs/obs.hpp"
#include "qes/qes_common.hpp"
#include "sim/channel.hpp"
#include "sim/engine.hpp"
#include "sim/event.hpp"

namespace orv {

namespace {

/// Depth of each compute node's h1 ingress channel (batches in flight
/// per receiver before senders block).
constexpr std::size_t kChannelCapacity = 4;

/// A batch of packed records of one table, routed to one compute node.
/// `trace` carries the sender's span across the node boundary: the
/// receiver's per-batch ingest span records it as its causal link, which
/// is what stitches the h1 transfer into one cross-node DAG.
struct Batch {
  bool left = true;
  std::uint32_t src_node = 0;
  std::uint32_t rows = 0;
  std::vector<std::byte> bytes;
  obs::TraceContext trace;
};

struct GhShared {
  GhShared(Cluster& c, BdsService& b, const MetaDataService& m,
           const JoinQuery& q, const QesOptions& o, SchemaPtr ls,
           SchemaPtr rs, SchemaPtr result)
      : cluster(c), bds(b), meta(m), query(q), options(o),
        left_schema(std::move(ls)), right_schema(std::move(rs)),
        result_schema(std::move(result)),
        pairs(result_schema, q.join_attrs) {}

  Cluster& cluster;
  BdsService& bds;
  const MetaDataService& meta;
  const JoinQuery& query;
  const QesOptions& options;

  SchemaPtr left_schema;
  SchemaPtr right_schema;
  SchemaPtr result_schema;
  std::size_t n_buckets = 1;
  /// The bucket-pair join step; its stats are the query's join stats.
  PairJoin pairs;

  std::vector<std::unique_ptr<sim::Channel<Batch>>> to_compute;

  qes_detail::QueryFrame frame;
  /// Compute nodes still running; the last one to finish (or unwind)
  /// completes the query.
  std::size_t computes_left = 0;

  /// Accumulated in place. h1_messages_sent counts logical h1 batch
  /// messages (the cost model's count; the physical frame count is read off
  /// the switch and is smaller when the cluster aggregates). node_work
  /// holds per-receiver busy seconds over both phases, h1 rows received
  /// and batch bytes ingested.
  QesResult result;
  double partition_phase_end = 0;

  // Round-based recovery protocol state; only touched when the cluster
  // has a fault plan (fault-free runs take the single-round fast path
  // with no extra synchronization).
  std::unique_ptr<sim::Latch> drain_latch;  // one count per compute node
  std::unique_ptr<sim::Event> round_gate;   // set once the round's verdict is in
  std::vector<std::unique_ptr<sim::Event>> retired_gates;
  bool partition_complete = false;
  std::vector<char> final_dead;  // valid once partition_complete is set

};

/// Routing chain for one row: candidate k is h1 re-salted k times; the
/// destination is the first alive candidate. k = 0 reproduces the plain h1
/// routing, so with no dead nodes this is byte-identical to the fault-free
/// partitioner. Rows with equal join keys hash identically at every k and
/// therefore share the whole chain — matching left/right rows stay
/// co-located no matter which prefix of the chain has died.
std::size_t chain_dest(const JoinKey& key, const std::byte* row,
                       std::size_t n_dest, const std::vector<char>& dead) {
  for (std::uint64_t k = 0; k < 64; ++k) {
    const std::size_t cand =
        key.hash_row(row, kSaltGraceH1 + k * 0x9e3779b97f4a7c15ull) % n_dest;
    if (dead.empty() || !dead[cand]) return cand;
  }
  // Pathological chain: fall back to the first survivor (key-independent,
  // hence the same for every row — co-location still holds).
  for (std::size_t j = 0; j < n_dest; ++j) {
    if (!dead[j]) return j;
  }
  throw fault::FaultError("grace hash: no surviving compute node to route to");
}

/// Per-destination batch buffers for one storage process and one table.
/// `dead` is the routing dead-set for this partition round (empty on the
/// fault-free path and in round 0). A recovery round also passes the
/// previous round's `prev_dead`: it re-sends exactly the rows whose copy
/// was lost, i.e. rows whose destination under `prev_dead` has since died.
/// Rows whose previous destination survives are skipped — their copy is
/// still bucketed there, and re-sending would duplicate them.
class Partitioner {
 public:
  /// `parent` is the sending task's partition/repartition span: every
  /// per-batch send span nests under it and rides the Batch to the
  /// receiver.
  Partitioner(GhShared& sh, bool left, std::uint32_t src,
              const Schema& schema, obs::SpanId parent,
              std::vector<char> dead = {}, std::vector<char> prev_dead = {})
      : sh_(sh),
        left_(left),
        src_(src),
        record_size_(schema.record_size()),
        key_(JoinKey::resolve(schema, sh.query.join_attrs)),
        parent_(parent),
        dead_(std::move(dead)),
        prev_dead_(std::move(prev_dead)),
        buffers_(sh.to_compute.size()) {}

  sim::Task<> add(const SubTable& st) {
    const std::size_t n_dest = buffers_.size();
    // Every row's destination in one pass, then the append/flush walk (on
    // the fault-free path chain_dest is h1 itself). A recovery round
    // re-sends only the rows whose previous destination has since died.
    dests_.resize(st.num_rows());
    for (std::size_t r = 0; r < st.num_rows(); ++r) {
      const std::byte* row = st.row(r);
      const bool send = prev_dead_.empty() ||
                        dead_[chain_dest(key_, row, n_dest, prev_dead_)];
      dests_[r] = send ? static_cast<std::uint32_t>(
                             chain_dest(key_, row, n_dest, dead_))
                       : kSkip;
    }
    for (std::size_t r = 0; r < st.num_rows(); ++r) {
      if (dests_[r] == kSkip) continue;
      if (!prev_dead_.empty()) ++sh_.result.rows_repartitioned;
      auto& buf = buffers_[dests_[r]];
      buf.insert(buf.end(), st.row(r), st.row(r) + record_size_);
      if (buf.size() >= sh_.options.batch_bytes) {
        co_await flush(dests_[r]);
      }
    }
  }

  sim::Task<> flush_all() {
    for (std::size_t dest = 0; dest < buffers_.size(); ++dest) {
      if (!buffers_[dest].empty()) co_await flush(dest);
    }
  }

 private:
  sim::Task<> flush(std::size_t dest) {
    Batch batch;
    batch.left = left_;
    batch.src_node = src_;
    batch.rows = static_cast<std::uint32_t>(buffers_[dest].size() /
                                            record_size_);
    batch.bytes = std::move(buffers_[dest]);
    buffers_[dest].clear();
    const double batch_bytes = static_cast<double>(batch.bytes.size());
    auto* ctx = obs::context();
    obs::StageScope send_stage(ctx, "gh.send", parent_);
    batch.trace = obs::TraceContext{sh_.frame.trace_id, send_stage.id()};
    ++sh_.result.h1_messages_sent;
    if (auto* agg = sh_.cluster.aggregator()) {
      // Aggregated path: hand the batch to the per-(src,dst) flow and
      // return immediately. The aggregator charges one egress per combined
      // frame (and rolls the fault dice per frame); the deliver closure
      // runs after the frame crosses the switch. It reads the channel slot
      // through sh_ at delivery time, so recovery-round channel swaps are
      // safe — gh_send drains the node before the coordinator ever
      // closes or swaps a round's channels.
      auto payload = std::make_shared<Batch>(std::move(batch));
      GhShared* sh = &sh_;
      agg->post(src_, dest, batch_bytes, send_stage.id(),
                [sh, dest, payload]() -> sim::Task<> {
                  co_await sh->to_compute[dest]->send(std::move(*payload));
                });
      co_return;
    }
    auto* inj = sh_.cluster.faults();
    std::uint64_t retransmits = 0;
    while (true) {
      // Egress (source NIC + switch) is charged here, pacing the sender;
      // the receiver charges its own NIC + bucket write when it processes
      // the batch. Splitting the two sides keeps per-flow accounting
      // additive without convoy coupling across source NICs.
      co_await sh_.cluster.storage_egress(src_, batch_bytes);
      if (inj) {
        const auto act = inj->on_message(src_, dest);
        if (act.drop) {
          // Lost on the wire: the sender notices via timeout and resends,
          // so drops cost virtual time but never data. The retransmit
          // edge gets its own span so trace assembly can see retries.
          obs::StageScope retrans(ctx, "gh.retransmit", send_stage.id());
          co_await sh_.cluster.engine().sleep(
              inj->plan().retransmit_timeout);
          retrans.close();
          ++retransmits;
          continue;
        }
        if (act.delay > 0) {
          co_await sh_.cluster.engine().sleep(act.delay);
        }
      }
      co_await sh_.to_compute[dest]->send(std::move(batch));
      break;
    }
    if (retransmits > 0) send_stage.tag("retransmits", retransmits);
  }

  GhShared& sh_;
  bool left_;
  std::uint32_t src_;
  std::size_t record_size_;
  JoinKey key_;
  obs::SpanId parent_;
  std::vector<char> dead_;
  std::vector<char> prev_dead_;
  std::vector<std::vector<std::byte>> buffers_;
  static constexpr std::uint32_t kSkip = 0xffffffffu;
  std::vector<std::uint32_t> dests_;  // per row of add's sub-table, or kSkip
};

/// BDS produce through the shared retry loop, with the query's selection
/// applied: transient injected read errors retry; a permanently lost
/// storage node surfaces as a clean FaultError.
sim::Task<std::shared_ptr<const SubTable>> produce_with_retry(
    GhShared& sh, std::size_t node, SubTableId id, obs::TraceContext rpc) {
  auto st = co_await qes_detail::read_with_retry(
      sh.cluster, "produce", id, sh.result.fetch_retries,
      [&](int) { return sh.bds.instance(node).produce(id, rpc); });
  co_return qes_detail::select_rows(std::move(st), sh.query.ranges);
}

/// Reads a node's local chunks of one table into a small bounded queue, so
/// disk reads pipeline behind partitioning/sending (read-ahead; this is
/// what hides the chunk reads inside the model's Transfer term).
sim::Task<> gh_reader(GhShared& sh, std::size_t node, TableId table,
                      sim::Channel<std::shared_ptr<const SubTable>>& out,
                      obs::TraceContext rpc) {
  for (const auto& cm : sh.meta.chunks(table)) {
    if (cm.location.storage_node != node) continue;
    auto st = co_await produce_with_retry(sh, node, cm.id, rpc);
    co_await out.send(std::move(st));
  }
  out.close();
}

/// Storage-node QES: streams this node's local chunks of both tables
/// through h1, then counts down `done` (if given). Round 0 reads ahead
/// through gh_reader. A recovery round (`prev_dead` set) re-reads
/// synchronously and re-sends only the rows whose previous chain
/// destination has died. Every copy that could have landed on a dead node
/// is lost with the node (dead receivers discard their whole partition
/// state), so re-sent rows appear exactly once in the surviving buckets.
sim::Task<> gh_send(GhShared& sh, std::size_t node, sim::Latch* done,
                    std::vector<char> dead = {},
                    std::vector<char> prev_dead = {}) {
  const bool resend = !prev_dead.empty();
  obs::StageScope stage(obs::context(),
                        resend ? "gh.repartition" : "gh.partition",
                        sh.frame.query_span);
  stage.tag("storage_node", static_cast<std::uint64_t>(node));
  const obs::TraceContext rpc{sh.frame.trace_id, stage.id()};
  auto& engine = sh.cluster.engine();
  for (int side = 0; side < 2; ++side) {
    const bool left = side == 0;
    const TableId table = left ? sh.query.left_table : sh.query.right_table;
    Partitioner part(sh, left, static_cast<std::uint32_t>(node),
                     left ? *sh.left_schema : *sh.right_schema, stage.id(),
                     dead, prev_dead);
    if (resend) {
      for (const auto& cm : sh.meta.chunks(table)) {
        if (cm.location.storage_node != node) continue;
        auto st = co_await produce_with_retry(sh, node, cm.id, rpc);
        co_await part.add(*st);
      }
    } else {
      sim::Channel<std::shared_ptr<const SubTable>> queue(engine, 2);
      auto reader =
          engine.spawn(gh_reader(sh, node, table, queue, rpc),
                       strformat("gh-reader-%zu-t%u", node, table));
      while (true) {
        auto st = co_await queue.recv();
        if (!st) break;
        co_await part.add(**st);
      }
      co_await reader.join();
    }
    co_await part.flush_all();
  }
  if (auto* agg = sh.cluster.aggregator()) {
    // Every posted batch must be in its destination channel before the
    // coordinator learns this sender is done (or joins it) — otherwise it
    // would close the round's channels under buffered messages.
    co_await agg->drain(node);
  }
  if (done) done->count_down();
}

/// Closes compute channels once every storage sender finishes; when the
/// cluster has a fault plan it then runs the quiesce protocol: wait for
/// every receiver to drain the round, take the compute dead-set at quiesce
/// time, and either declare the partition stable or open another round of
/// channels and launch the re-partition senders. The dead set only grows,
/// so the loop terminates; losing every compute node fails the query with
/// a clean FaultError instead of hanging.
sim::Task<> gh_coordinator(GhShared& sh, sim::Latch& storage_done) {
  auto& engine = sh.cluster.engine();
  auto* inj = sh.cluster.faults();
  co_await storage_done.wait();
  for (auto& ch : sh.to_compute) ch->close();
  if (!inj) co_return;  // fault-free: exactly the old channel closer

  const std::size_t n_compute = sh.cluster.num_compute();
  std::vector<char> prev_dead(n_compute, 0);
  while (true) {
    co_await sh.drain_latch->wait();
    // Every receiver is now parked on the round gate (count_down and the
    // gate wait happen with no intervening suspension), so the shared
    // round state below can be swapped without racing a drain.
    std::vector<char> dead(n_compute, 0);
    std::size_t n_dead = 0;
    for (std::size_t j = 0; j < n_compute; ++j) {
      if (inj->compute_crashed_by(j, engine.now())) {
        dead[j] = 1;
        ++n_dead;
        inj->note_crash_observed(fault::NodeKind::Compute, j);
      }
    }
    auto old_gate = std::move(sh.round_gate);
    if (dead == prev_dead) {
      // No deaths this round: every surviving row rests at its chain
      // destination under `dead`. Partition is stable.
      sh.final_dead = dead;
      sh.result.compute_nodes_lost = n_dead;
      sh.partition_complete = true;
      old_gate->set();
      co_return;
    }
    if (n_dead == n_compute) {
      sh.final_dead = dead;
      sh.result.compute_nodes_lost = n_dead;
      sh.partition_complete = true;  // release receivers before failing
      old_gate->set();
      throw fault::FaultError(
          "grace hash: every compute node crashed; query cannot complete");
    }
    // Open the next round, then release the receivers into it.
    for (std::size_t j = 0; j < n_compute; ++j) {
      sh.to_compute[j] = std::make_unique<sim::Channel<Batch>>(
          engine, kChannelCapacity);
    }
    sh.drain_latch = std::make_unique<sim::Latch>(engine, n_compute);
    sh.round_gate = std::make_unique<sim::Event>(engine);
    sh.retired_gates.push_back(std::move(old_gate));
    sh.retired_gates.back()->set();

    std::vector<sim::JoinHandle> senders;
    for (std::size_t i = 0; i < sh.cluster.num_storage(); ++i) {
      senders.push_back(
          engine.spawn(gh_send(sh, i, nullptr, dead, prev_dead),
                       strformat("gh-repartition-%zu", i)));
    }
    for (auto& h : senders) co_await h.join();
    for (auto& ch : sh.to_compute) ch->close();
    prev_dead = std::move(dead);
  }
}

/// Compute-node QES: receive + h2-split into scratch buckets, barrier-free
/// within the node (its channel drains), then join bucket pairs.
sim::Task<> gh_compute(GhShared& sh, std::size_t node) {
  // The query is over when the last compute node finishes (or unwinds);
  // recording that instant on every exit path is what lets the sampler's
  // done flag flip and the trailing tick stay out of the measured time.
  struct Finished {
    GhShared& sh;
    ~Finished() {
      if (--sh.computes_left == 0) {
        sh.frame.finish(sh.cluster.engine().now());
      }
    }
  } finished{sh};
  // Busy-window accounting for the skew diagnosis, booked at the normal
  // exit points only: a failed query reports no per-node work. (The guard
  // above is safe on every exit: ~Engine destroys this frame before the
  // query frame that owns GhShared.)
  const double node_start = sh.cluster.engine().now();
  auto book_busy = [&] {
    auto& nw = sh.result.node_work[node];
    nw.node = node;
    nw.busy_seconds += sh.cluster.engine().now() - node_start;
  };
  const auto& hw = sh.cluster.spec().hw;
  const double factor = sh.options.cpu_work_factor;
  auto& cpu = sh.cluster.compute_cpu(node);
  auto& scratch = sh.cluster.compute_disk(node);

  const JoinKey left_key =
      JoinKey::resolve(*sh.left_schema, sh.query.join_attrs);
  const JoinKey right_key =
      JoinKey::resolve(*sh.right_schema, sh.query.join_attrs);
  const std::size_t lrs = sh.left_schema->record_size();
  const std::size_t rrs = sh.right_schema->record_size();

  // Scratch-disk buckets. Byte movement is real; the "file" contents stay
  // in memory while the simulated spindle is charged for write and
  // read-back.
  std::vector<std::vector<std::byte>> left_buckets(sh.n_buckets);
  std::vector<std::vector<std::byte>> right_buckets(sh.n_buckets);

  // --- Phase 1: receive, split by h2, spill to scratch. When the cluster
  // has a fault plan this loops over quiesce rounds; a receiver whose
  // crash time has passed discards its entire partition state but keeps
  // draining (black hole) so senders never block on a dead destination.
  auto* ctx = obs::context();
  auto* inj = sh.cluster.faults();
  obs::StageScope recv_stage(ctx, "gh.receive", sh.frame.query_span);
  recv_stage.tag("node", static_cast<std::uint64_t>(node));
  ProbeGuard node_probes(sh.frame.probes);
  if (sh.frame.sampling) {
    // Channel depth is read through the persistent unique_ptr slot, which
    // stays valid across recovery-round channel swaps.
    node_probes.add(strformat("gh.channel_depth[%zu]", node),
                    [&sh, node] { return static_cast<double>(
                        sh.to_compute[node]->size()); });
    node_probes.add(strformat("gh.bucket_bytes[%zu]", node),
                    [&left_buckets, &right_buckets] {
                      double total = 0;
                      for (const auto& b : left_buckets) total += b.size();
                      for (const auto& b : right_buckets) total += b.size();
                      return total;
                    });
  }
  // Hot-loop counters resolved once; the registry reference stays valid
  // for the context's lifetime.
  obs::Counter* batch_counter =
      ctx ? &ctx->registry.counter("gh.batches") : nullptr;
  obs::Counter* batch_bytes_counter =
      ctx ? &ctx->registry.counter("gh.batch_bytes") : nullptr;
  obs::Counter* spill_counter =
      ctx ? &ctx->registry.counter("gh.bucket_spill_bytes") : nullptr;
  bool i_am_dead = false;
  auto check_death = [&] {
    if (!i_am_dead && inj && inj->compute_down(node)) {
      i_am_dead = true;
      inj->note_crash_observed(fault::NodeKind::Compute, node);
      // The receive span keeps draining (black hole) so it still closes at
      // scope exit; the tag marks it as abandoned work for trace assembly.
      if (ctx) ctx->tracer.tag(recv_stage.id(), "orphaned", std::uint64_t{1});
      for (auto& b : left_buckets) {
        b.clear();
        b.shrink_to_fit();
      }
      for (auto& b : right_buckets) {
        b.clear();
        b.shrink_to_fit();
      }
    }
  };
  // Completion time of the last double-buffered spill reservation; the
  // node awaits it before the round/phase boundary so "partition done"
  // still means "every bucket byte is on scratch disk".
  sim::Time spill_done = sh.cluster.engine().now();
  while (true) {
    while (true) {
      auto item = co_await sh.to_compute[node]->recv();
      if (!item) break;
      Batch batch = std::move(*item);
      check_death();
      if (i_am_dead) continue;  // discard; the coordinator re-sends
      if (batch_counter) {
        batch_counter->add(1);
        batch_bytes_counter->add(batch.bytes.size());
      }
      auto& nw = sh.result.node_work[node];
      nw.items += batch.rows;
      nw.bytes += static_cast<double>(batch.bytes.size());
      // Per-batch ingest span, causally linked to the sender's gh.send
      // span: the link is the cross-node edge that stitches the h1
      // transfer into one DAG (and lets critical-path analysis hop from a
      // waiting receiver into the sender's time).
      obs::StageScope ingest_stage(ctx, "gh.ingest", recv_stage.id());
      if (ctx && batch.trace.parent) {
        ctx->tracer.link(ingest_stage.id(), batch.trace.parent);
      }
      co_await sh.cluster.compute_ingress(
          node, static_cast<double>(batch.bytes.size()));
      obs::StageScope spill_stage(ctx, "gh.spill", ingest_stage.id());
      if (sh.options.gh_double_buffer) {
        // Double-buffered spill: wait for the *previous* batch's spill to
        // drain, then reserve (not await) this one — the scratch write
        // proceeds while the next batch is received, so the phase pays
        // max(Transfer, Write) instead of the sum. One outstanding write
        // bounds the in-flight buffer to a batch.
        co_await sh.cluster.engine().wait_until(spill_done);
        spill_done =
            scratch.reserve_write(static_cast<double>(batch.bytes.size()),
                                  static_cast<std::uint32_t>(node));
      } else {
        // Ingress then bucket write, serialized per batch: the additive
        // Transfer + Write behaviour the paper's implementation exhibits.
        co_await scratch.write(static_cast<double>(batch.bytes.size()),
                               static_cast<std::uint32_t>(node));
      }
      if (spill_counter) spill_counter->add(batch.bytes.size());

      const JoinKey& key = batch.left ? left_key : right_key;
      const std::size_t rs = batch.left ? lrs : rrs;
      auto& buckets = batch.left ? left_buckets : right_buckets;
      if (sh.n_buckets == 1) {  // every row's h2 bucket is bucket 0
        buckets[0].insert(buckets[0].end(), batch.bytes.begin(),
                          batch.bytes.end());
      } else {
        for (std::uint32_t r = 0; r < batch.rows; ++r) {
          const std::byte* row = batch.bytes.data() + r * rs;
          const std::size_t b =
              key.hash_row(row, kSaltGraceH2) % sh.n_buckets;
          buckets[b].insert(buckets[b].end(), row, row + rs);
        }
      }
    }
    co_await sh.cluster.engine().wait_until(spill_done);  // drain the buffer
    if (!inj) break;  // fault-free: one round, no barrier
    check_death();
    // count_down and the gate wait run with no suspension in between, so
    // by the time the coordinator wakes every receiver is parked on the
    // (old) gate and the round state can be swapped safely.
    sh.drain_latch->count_down();
    co_await sh.round_gate->wait();
    if (sh.partition_complete) break;
  }
  if (sh.cluster.engine().now() > sh.partition_phase_end) {
    sh.partition_phase_end = sh.cluster.engine().now();
  }
  recv_stage.close();
  if (inj && !sh.final_dead.empty() && sh.final_dead[node]) {
    // Fail-stop: a dead node joins no buckets; every row routed to it has
    // been re-sent to a survivor.
    book_busy();
    co_return;
  }

  // --- Phase 2: join bucket pairs independently (no network). ---
  obs::StageScope join_stage(ctx, "gh.bucket_join", sh.frame.query_span);
  join_stage.tag("node", static_cast<std::uint64_t>(node));
  join_stage.tag("buckets", static_cast<std::uint64_t>(sh.n_buckets));
  ChunkId out_seq = 0;
  // Double-buffered read-back: the next non-empty bucket's scratch read is
  // reserved while the CPU joins the current one, so the phase pays
  // max(Read, Cpu) + one read's fill instead of their sum per bucket.
  std::vector<std::size_t> todo;
  for (std::size_t b = 0; b < sh.n_buckets; ++b) {
    if (!left_buckets[b].empty() || !right_buckets[b].empty()) {
      todo.push_back(b);
    }
  }
  auto bucket_size = [&](std::size_t b) {
    return static_cast<double>(left_buckets[b].size() +
                               right_buckets[b].size());
  };
  sim::Time next_read_done = sh.cluster.engine().now();
  if (sh.options.gh_double_buffer && !todo.empty()) {
    next_read_done =
        scratch.reserve_read(bucket_size(todo[0]),
                             static_cast<std::uint32_t>(node));
  }
  for (std::size_t t = 0; t < todo.size(); ++t) {
    const std::size_t b = todo[t];
    const double bucket_bytes = bucket_size(b);
    if (ctx) {
      ctx->registry.counter("gh.bucket_readback_bytes")
          .add(static_cast<std::uint64_t>(bucket_bytes));
    }
    {
      obs::StageScope read_stage(ctx, "gh.bucket_read", join_stage.id());
      read_stage.tag("bucket", static_cast<std::uint64_t>(b));
      if (sh.options.gh_double_buffer) {
        const sim::Time ready = next_read_done;
        if (t + 1 < todo.size()) {
          next_read_done = scratch.reserve_read(
              bucket_size(todo[t + 1]), static_cast<std::uint32_t>(node));
        }
        co_await sh.cluster.engine().wait_until(ready);
      } else {
        co_await scratch.read(bucket_bytes,
                              static_cast<std::uint32_t>(node));
      }
    }

    auto left = std::make_shared<SubTable>(
        sh.left_schema, SubTableId{sh.query.left_table, 0});
    left->adopt_bytes(std::move(left_buckets[b]));
    SubTable right(sh.right_schema, SubTableId{sh.query.right_table, 0});
    right.adopt_bytes(std::move(right_buckets[b]));

    {
      obs::StageScope cpu_stage(ctx, "gh.join", join_stage.id());
      cpu_stage.tag("bucket", static_cast<std::uint64_t>(b));
      co_await cpu.use(factor * (hw.gamma_build *
                                     static_cast<double>(left->num_rows()) +
                                 hw.gamma_lookup *
                                     static_cast<double>(right.num_rows())));
    }

    const SubTable out = sh.pairs.probe(*sh.pairs.build(std::move(left)),
                                        right, SubTableId{0, out_seq++});
    sh.result.result_fingerprint += out.unordered_fingerprint();
    if (sh.options.result_sink) sh.options.result_sink(node, out);
  }
  book_busy();
}

}  // namespace

sim::Task<QesResult> qes_detail::grace_hash_task(
    Cluster& cluster, BdsService& bds, const MetaDataService& meta,
    const JoinQuery& query, const QesOptions& options) {
  ORV_REQUIRE(!query.join_attrs.empty(), "join needs key attributes");
  auto& engine = cluster.engine();

  const auto left_schema = meta.table_schema(query.left_table);
  const auto right_schema = meta.table_schema(query.right_table);
  const JoinKey right_key = JoinKey::resolve(*right_schema, query.join_attrs);

  GhShared sh{cluster,
              bds,
              meta,
              query,
              options,
              left_schema,
              right_schema,
              std::make_shared<const Schema>(Schema::join_result(
                  *left_schema, *right_schema, right_key.attr_indices()))};

  // Bucket count: every bucket pair must fit in memory (Section 4.2).
  const double total_bytes =
      static_cast<double>(meta.table_bytes(query.left_table) +
                          meta.table_bytes(query.right_table));
  const double per_node = total_bytes / static_cast<double>(cluster.num_compute());
  sh.n_buckets = static_cast<std::size_t>(
      gh_bucket_count(per_node, static_cast<double>(options.bucket_pair_bytes),
                      static_cast<double>(cluster.memory_bytes())));

  for (std::size_t j = 0; j < cluster.num_compute(); ++j) {
    sh.to_compute.push_back(std::make_unique<sim::Channel<Batch>>(
        engine, kChannelCapacity));
  }
  sh.drain_latch =
      std::make_unique<sim::Latch>(engine, cluster.num_compute());
  sh.round_gate = std::make_unique<sim::Event>(engine);
  sh.computes_left = cluster.num_compute();
  sh.result.node_work.resize(cluster.num_compute());

  sh.frame.open(engine, "gh.query", "grace_hash");

  const double net0 = cluster.network_bytes();
  const double switch0 = cluster.switch_bytes();
  const std::uint64_t frames0 = cluster.network_switch().num_ops();
  const Cluster::DiskTotals disk0 = cluster.disk_totals();

  sim::Latch storage_done(engine, cluster.num_storage());
  std::vector<sim::JoinHandle> handles;
  for (std::size_t i = 0; i < cluster.num_storage(); ++i) {
    handles.push_back(engine.spawn(gh_send(sh, i, &storage_done),
                                   strformat("gh-storage-%zu", i)));
  }
  handles.push_back(
      engine.spawn(gh_coordinator(sh, storage_done), "gh-coordinator"));
  for (std::size_t j = 0; j < cluster.num_compute(); ++j) {
    handles.push_back(
        engine.spawn(gh_compute(sh, j), strformat("gh-compute-%zu", j)));
  }
  QesResult& result = sh.result;
  result.elapsed =
      co_await sh.frame.join(cluster, std::move(handles), "gh-sampler");
  result.partition_phase = sh.partition_phase_end - sh.frame.start;
  result.join_phase = result.elapsed - result.partition_phase;
  result.join_stats = sh.pairs.stats();
  result.result_tuples = result.join_stats.result_tuples;
  result.network_bytes = cluster.network_bytes() - net0;
  // GH shuffles every record through the switch regardless of placement
  // (its egress path never uses the local bus), so local bytes stay 0.
  result.cross_switch_bytes = cluster.switch_bytes() - switch0;
  const Cluster::DiskTotals disk = cluster.disk_totals();
  result.storage_disk_read_bytes = disk.storage_read - disk0.storage_read;
  result.scratch_write_bytes = disk.scratch_written - disk0.scratch_written;
  result.scratch_read_bytes = disk.scratch_read - disk0.scratch_read;
  result.net_frames_sent = cluster.network_switch().num_ops() - frames0;
  sh.frame.close(result);
  if (auto* ctx = obs::context()) {
    ctx->registry.counter("gh.result_tuples").add(result.result_tuples);
    ctx->registry.gauge("gh.n_buckets")
        .set(static_cast<double>(sh.n_buckets));
    ctx->registry.gauge("gh.partition_phase_seconds")
        .set(result.partition_phase);
    ctx->registry.gauge("gh.join_phase_seconds").set(result.join_phase);
    ctx->registry.gauge("gh.elapsed_seconds").set(result.elapsed);
  }
  co_return std::move(result);
}

QesResult run_grace_hash(Cluster& cluster, BdsService& bds,
                         const MetaDataService& meta, const JoinQuery& query,
                         const QesOptions& options) {
  return qes_detail::run_query_task(
      cluster.engine(),
      qes_detail::grace_hash_task(cluster, bds, meta, query, options),
      "gh-query");
}

}  // namespace orv
