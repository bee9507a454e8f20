#pragma once

// Deterministic fault injection for the simulated cluster.
//
// A FaultPlan is a seedable description of everything that goes wrong
// during one query: transient chunk-read I/O errors, message delay/drop on
// the Grace Hash batch channels, and storage/compute node crashes at fixed
// virtual times. A FaultInjector evaluates the plan against the engine's
// virtual clock; every probabilistic decision flows through one
// Xoshiro256** stream seeded from the plan, and the simulation engine is
// single-threaded, so a given (workload, plan) pair replays bit-for-bit.
//
// Failure semantics (see DESIGN.md "Failure model and recovery"):
//  - storage-node crashes are outages: the node is down over
//    [at, recover_at) and serves again afterwards (recover_at == kNever
//    models permanent loss, which makes single-sourced chunks
//    unrecoverable and surfaces as a clean FaultError);
//  - compute-node crashes are fail-stop for the query: once the crash time
//    passes, the node is dead for the remainder of the run and its work is
//    re-assigned (Indexed Join) or re-partitioned (Grace Hash);
//  - dropped messages are retransmitted by the sender after
//    retransmit_timeout, so drops cost time, never data.
//
// The plan is part of the simulated cluster (ClusterSpec::faults), and the
// Cluster owns the injector on its engine. Without a plan every hook
// reduces to a null check on Cluster::faults(), and the simulation behaves
// exactly as before this layer existed.

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/prng.hpp"

namespace orv::sim {
class Engine;
}

namespace orv::fault {

/// Virtual time that never arrives.
inline constexpr double kNever = std::numeric_limits<double>::infinity();

enum class NodeKind { Storage, Compute };

const char* node_kind_name(NodeKind k);

/// One node failure at a fixed virtual time.
struct NodeCrash {
  NodeKind kind = NodeKind::Storage;
  std::size_t node = 0;
  double at = 0;
  /// Storage nodes only: when the node serves again. Compute crashes are
  /// fail-stop for the query regardless of this field.
  double recover_at = kNever;
};

/// Timeout + truncated-exponential-backoff policy for BDS chunk fetches.
struct RetryPolicy {
  int max_attempts = 6;
  double base_backoff = 0.005;  // virtual seconds before the 2nd attempt
  double multiplier = 2.0;
  double max_backoff = 0.5;
  /// A fetch against a down storage node fails after this long (the
  /// client-observed RPC timeout). 0 disables the stall-and-timeout path.
  double fetch_timeout = 0.1;

  /// Backoff before attempt `attempt` (1-based retries; attempt 0 is the
  /// initial try and pays nothing).
  double backoff(int attempt) const;
};

/// Everything that goes wrong during one run.
struct FaultPlan {
  std::uint64_t seed = 0;

  double chunk_read_error_prob = 0;  // per fetch/produce attempt
  double message_drop_prob = 0;      // per batch send
  double message_delay_prob = 0;     // per delivered batch
  double message_delay_max = 0.02;   // uniform [0, max) added latency
  double retransmit_timeout = 0.005; // sender wait before resending a drop

  std::vector<NodeCrash> crashes;
  RetryPolicy retry;

  /// One-line reproduction description (logged next to failing seeds).
  std::string to_string() const;

  /// Deterministic random plan for the chaos harness. Always survivable by
  /// construction: storage crashes recover, and fewer than `num_compute`
  /// compute nodes die, so a correct recovery path must reproduce the
  /// fault-free result exactly.
  static FaultPlan chaos(std::uint64_t seed, std::size_t num_storage,
                         std::size_t num_compute);
};

/// What the injector actually did (all zero when nothing fired).
struct FaultStats {
  std::uint64_t io_errors_injected = 0;
  std::uint64_t messages_dropped = 0;
  std::uint64_t messages_delayed = 0;
  std::uint64_t node_crashes_observed = 0;

  std::uint64_t total() const {
    return io_errors_injected + messages_dropped + messages_delayed +
           node_crashes_observed;
  }
};

/// Transient injected chunk-read failure. Derives IoError so generic
/// device-error retry paths handle it without knowing about injection.
class InjectedIoError : public IoError {
 public:
  explicit InjectedIoError(const std::string& what) : IoError(what) {}
};

/// Client-observed RPC timeout against an unresponsive node. Retryable.
class TimeoutError : public IoError {
 public:
  explicit TimeoutError(const std::string& what) : IoError(what) {}
};

/// Unrecoverable: the query cannot complete under the injected faults
/// (retry budget exhausted, or every compute node lost). Thrown instead of
/// hanging or returning wrong rows — the "cleanly reported" degraded mode.
class FaultError : public Error {
 public:
  explicit FaultError(const std::string& what) : Error(what) {}
};

/// One fault the injector fired, as its subscriber sees it. `what` is the
/// flight recorder's event name ("io_error", "message_drop",
/// "message_delay", "crash" or "retry"). An io_error names its storage
/// node and a crash its node; drops, delays and retries carry no node.
struct FaultEvent {
  double time = 0;
  const char* what = "";
  std::optional<NodeKind> kind;
  std::size_t node = 0;
};

/// Evaluates a FaultPlan against one engine's virtual clock.
class FaultInjector {
 public:
  FaultInjector(sim::Engine& engine, FaultPlan plan);

  /// Calls `cb` for every fault fired from now on, in firing order; an
  /// empty function ends the subscription.
  void subscribe(std::function<void(const FaultEvent&)> cb) {
    subscriber_ = std::move(cb);
  }

  const FaultPlan& plan() const { return plan_; }
  const FaultStats& stats() const { return stats_; }

  /// Storage node `i` is inside a crash window at the current virtual time.
  bool storage_down(std::size_t node) const;

  /// Earliest virtual time >= now at which storage node `i` serves again
  /// (now if it is up; kNever if permanently lost).
  double storage_recovery_time(std::size_t node) const;

  /// Compute node `j` crashed at or before virtual time `t` (fail-stop:
  /// recovery is ignored for compute nodes).
  bool compute_crashed_by(std::size_t node, double t) const;

  /// Compute node `j` crashed at or before the current virtual time.
  bool compute_down(std::size_t node) const;

  /// Rolls the chunk-read error dice; throws InjectedIoError on a hit and
  /// bumps fault.injected.io.
  void maybe_fail_chunk_read(std::size_t storage_node);

  /// Per-message decision for a storage->compute batch.
  struct MessageAction {
    bool drop = false;
    double delay = 0;  // virtual seconds, 0 = deliver immediately
  };
  MessageAction on_message(std::size_t src, std::size_t dst);

  /// Records the first observation of a node death (idempotent per node);
  /// bumps fault.injected.crash.
  void note_crash_observed(NodeKind kind, std::size_t node);

  /// Bumps retry.attempts.
  void note_retry();

 private:
  /// Tells the flight recorder and the subscriber about a fault.
  void fired(const char* what, std::optional<NodeKind> kind = std::nullopt,
             std::size_t node = 0, double value = 0,
             const std::string& detail = {});

  sim::Engine& engine_;
  FaultPlan plan_;
  FaultStats stats_;
  Xoshiro256StarStar rng_;
  std::vector<bool> storage_observed_;
  std::vector<bool> compute_observed_;
  std::function<void(const FaultEvent&)> subscriber_;
};

}  // namespace orv::fault
