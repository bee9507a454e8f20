#pragma once

// Admission control for concurrent multi-query workloads: a bounded run
// queue in front of the shared cluster. At most `max_running` queries
// execute at once; excess arrivals wait in a bounded queue and are
// *rejected* (backpressure to the client) once the queue is full. The
// dequeue order is the scheduling policy:
//
//   Fifo              — arrival order.
//   ShortestCostFirst — lowest planner-predicted cost first (SJF on the
//                       Section 5 estimate; ties break by arrival).
//   FairShare         — the waiting client with the least accumulated
//                       service time goes first (max-min fairness over
//                       observed virtual service seconds; ties by arrival).
//
// Everything runs on the deterministic simulation engine: waiters park on
// per-entry sim::Events and the policy scan is a pure function of the
// queue contents, so identical workloads replay identically.

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "sim/engine.hpp"
#include "sim/event.hpp"
#include "sim/task.hpp"

namespace orv {

enum class AdmissionPolicy { Fifo, ShortestCostFirst, FairShare };

const char* admission_policy_name(AdmissionPolicy p);

struct AdmissionConfig {
  AdmissionPolicy policy = AdmissionPolicy::Fifo;
  /// Concurrent-query cap; 0 disables admission control entirely (every
  /// query is admitted immediately and nothing ever queues or rejects).
  std::size_t max_running = 0;
  /// Wait-queue bound; 0 means an unbounded queue (never reject).
  std::size_t max_queued = 0;
};

class AdmissionController {
 public:
  AdmissionController(sim::Engine& engine, AdmissionConfig config);

  /// Requests one execution slot for `client`. Resolves to true once the
  /// slot is granted (immediately when below max_running) and to false —
  /// without waiting — when the wait queue is full (the rejection is the
  /// backpressure signal; the caller drops the query). `predicted_cost`
  /// is the planner's estimate in virtual seconds, read by
  /// ShortestCostFirst.
  sim::Task<bool> admit(std::size_t client, double predicted_cost);

  /// Returns the slot held by `client` and charges `service_seconds` to
  /// its fair-share account; wakes the next waiter per the policy.
  void release(std::size_t client, double service_seconds);

  std::size_t running() const { return running_; }
  std::size_t queued() const { return waiting_.size(); }
  std::uint64_t admitted() const { return admitted_; }
  std::uint64_t rejected() const { return rejected_; }

  /// Virtual service seconds charged to a client so far (FairShare's
  /// ledger; grows on release).
  double client_service(std::size_t client) const;

  const AdmissionConfig& config() const { return config_; }

 private:
  struct Waiter {
    std::size_t client = 0;
    double predicted = 0;
    std::uint64_t seq = 0;  // arrival order, the deterministic tiebreak
    std::unique_ptr<sim::Event> granted;
  };

  /// Index into waiting_ of the entry the policy dequeues next.
  std::size_t pick_next() const;
  void grant(std::size_t idx);

  sim::Engine& engine_;
  AdmissionConfig config_;
  std::deque<Waiter> waiting_;
  std::vector<double> service_;  // per-client accumulated service seconds
  std::size_t running_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t admitted_ = 0;
  std::uint64_t rejected_ = 0;
};

}  // namespace orv
