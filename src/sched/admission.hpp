#pragma once

// Admission control for concurrent multi-query workloads: a bounded FIFO
// run queue in front of the shared cluster. At most `max_running` queries
// execute at once; excess arrivals wait in a bounded queue, served in
// arrival order, and are *rejected* (backpressure to the client) once the
// queue is full.
//
// Everything runs on the deterministic simulation engine: waiters park on
// per-entry sim::Events, so identical workloads replay identically.

#include <cstdint>
#include <deque>
#include <memory>

#include "sim/engine.hpp"
#include "sim/event.hpp"
#include "sim/task.hpp"

namespace orv {

struct AdmissionConfig {
  /// Concurrent-query cap; 0 disables admission control entirely (every
  /// query is admitted immediately and nothing ever queues or rejects).
  std::size_t max_running = 0;
  /// Wait-queue bound; 0 means an unbounded queue (never reject).
  std::size_t max_queued = 0;
};

class AdmissionController {
 public:
  AdmissionController(sim::Engine& engine, AdmissionConfig config);

  /// Requests one execution slot. Resolves to true once the slot is
  /// granted (immediately when below max_running) and to false — without
  /// waiting — when the wait queue is full (the rejection is the
  /// backpressure signal; the caller drops the query).
  sim::Task<bool> admit();

  /// Returns a held slot; hands it to the oldest waiter, if any.
  void release();

  std::size_t running() const { return running_; }
  std::size_t queued() const { return waiting_.size(); }
  std::uint64_t admitted() const { return admitted_; }
  std::uint64_t rejected() const { return rejected_; }

  const AdmissionConfig& config() const { return config_; }

 private:
  sim::Engine& engine_;
  AdmissionConfig config_;
  /// One grant event per waiter, in arrival order.
  std::deque<std::unique_ptr<sim::Event>> waiting_;
  std::size_t running_ = 0;
  std::uint64_t admitted_ = 0;
  std::uint64_t rejected_ = 0;
};

}  // namespace orv
