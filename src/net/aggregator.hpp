#pragma once

// Per-destination message aggregation for the simulated network
// (Grappa RDMAAggregator style).
//
// The Grace Hash partition phase and the Indexed Join's BDS fetch replies
// ship one simulated message per 64 KiB record batch; at scale the
// per-message overhead (HardwareProfile::net_msg_overhead, charged as the
// storage NICs' per-op latency) — not bandwidth — binds the transfer
// phase. A MessageAggregator sits in front of the cluster's
// storage->compute path and buffers *logical* messages per
// (source node, destination node) flow, from every producer on the node:
// both tables' GH reader coroutines, IJ/BDS fetch replies, recovery-round
// retransmits, and — under concurrent workloads — other queries sharing
// the storage node. A combined frame is flushed when the flow holds
// flush_batches logical messages (size), when the oldest buffered message
// has waited flush_timeout virtual seconds (timeout), or when a producer
// drains the node (drain). One frame = one egress reservation = one
// per-message overhead, amortized over every constituent.
//
// Delivery semantics: post() never blocks the producer. Each logical
// message carries a `deliver` continuation that runs — in post order per
// flow — after the frame carrying it has crossed the switch; Grace Hash
// delivers into the destination's batch channel, the BDS sets the fetch's
// completion event. drain(src) force-flushes every flow out of `src` and
// waits until each posted message has been delivered, which is what lets
// GH storage tasks keep the "all batches delivered before the coordinator
// closes the round" invariant.
//
// Fault semantics: the injector's per-message dice rolls once per *frame*.
// A dropped frame costs the sender a retransmit timeout and a second
// egress of the whole frame; its constituent logical messages are then
// delivered exactly once, so frame drops compose with GH's salted re-hash
// recovery and the IJ supervisor rounds exactly like per-batch drops did.
//
// The config is part of the simulated cluster (ClusterSpec::aggregation,
// declared with AggregatorConfig in cluster/cluster.hpp), and the Cluster
// owns the aggregator. Without one (the default everywhere) every send
// path reduces to a null check on Cluster::aggregator() and the
// simulation is bit-identical to the pre-aggregation executor; the
// planner prices the same config through CostParams::from.

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "cluster/cluster.hpp"
#include "obs/span.hpp"
#include "sim/engine.hpp"
#include "sim/event.hpp"

namespace orv::net {

enum class FlushCause { Size, Timeout, Drain };

const char* flush_cause_name(FlushCause c);

/// Aggregation statistics (all flows), for tests and reports. The same
/// numbers are mirrored into the installed obs registry as net.agg.*.
struct AggregatorStats {
  std::uint64_t messages_posted = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_retransmitted = 0;
  std::uint64_t flush_size = 0;     // frames flushed on the size threshold
  std::uint64_t flush_timeout = 0;  // frames flushed by the timer
  std::uint64_t flush_drain = 0;    // frames flushed by drain()
  double bytes_deferred = 0;        // logical bytes that sat in a buffer

  double messages_per_frame() const {
    return frames_sent ? static_cast<double>(messages_delivered) /
                             static_cast<double>(frames_sent)
                       : 0.0;
  }
};

/// One aggregator covers every (storage node -> compute node) flow of a
/// cluster, which is what makes aggregation compose across queries: all
/// producers on a node share its flows.
class MessageAggregator {
 public:
  MessageAggregator(Cluster& cluster, AggregatorConfig cfg);
  MessageAggregator(const MessageAggregator&) = delete;
  MessageAggregator& operator=(const MessageAggregator&) = delete;

  /// Enqueues one logical message of `bytes` from storage node `src` to
  /// compute node `dst` without blocking the caller. `deliver` runs after
  /// the frame carrying the message has crossed the switch; `sender_span`
  /// (may be null) is linked from the frame's flush span so the trace DAG
  /// connects each frame to its constituents.
  void post(std::size_t src, std::size_t dst, double bytes,
            obs::SpanId sender_span, std::function<sim::Task<>()> deliver);

  /// Force-flushes every flow out of `src` and waits until all messages
  /// posted from `src` (including any posted meanwhile) are delivered.
  sim::Task<> drain(std::size_t src);

  const AggregatorConfig& config() const { return cfg_; }
  const AggregatorStats& stats() const { return stats_; }
  Cluster& cluster() { return cluster_; }

 private:
  struct Pending {
    std::size_t src = 0;
    std::size_t dst = 0;
    double bytes = 0;
    obs::SpanId sender_span;
    std::function<sim::Task<>()> deliver;
  };

  struct Flow {
    std::vector<Pending> buffer;
    double buffered_bytes = 0;
    /// Bumped on every flush; a timeout timer only fires for the
    /// generation it was armed against, so a size flush retires it.
    std::uint64_t generation = 0;
    bool timer_armed = false;
    /// Completion of the flow's previous frame: frames chain FIFO, so
    /// logical messages are delivered in post order within a flow.
    std::shared_ptr<sim::Event> prev_frame_done;
  };

  std::size_t flow_index(std::size_t src, std::size_t dst) const {
    return src * cluster_.num_compute() + dst;
  }

  void flush_flow(std::size_t src, std::size_t dst, FlushCause cause);
  sim::Task<> send_frame(std::size_t src, std::size_t dst,
                         std::vector<Pending> messages, double frame_bytes,
                         FlushCause cause,
                         std::shared_ptr<sim::Event> prev,
                         std::shared_ptr<sim::Event> done);
  sim::Task<> timeout_timer(std::size_t src, std::size_t dst,
                            std::uint64_t generation);
  void note_delivered(std::size_t src);

  Cluster& cluster_;
  AggregatorConfig cfg_;
  AggregatorStats stats_;
  std::vector<Flow> flows_;  // indexed src * num_compute + dst
  /// Undelivered message count per storage node + the drain waiters parked
  /// on it reaching zero.
  std::vector<std::uint64_t> src_pending_;
  std::vector<std::vector<std::shared_ptr<sim::Event>>> src_waiters_;
};

}  // namespace orv::net
