#pragma once

// FCFS rate resources: disks, NICs, switches, CPUs.
//
// A Resource serves `amount` units (bytes, CPU operations) at a fixed rate
// with optional per-operation latency (disk seek). Reservations are FCFS:
// each reservation begins when the previous one ends, so concurrent
// requesters share the resource's aggregate rate exactly.
//
// reserve_all() books the same amount on several resources *in parallel*
// (start times independent, completion = latest end). This is the standard
// flow-level network model: a message through source NIC → switch → dest
// NIC is limited by the most loaded hop without triple-charging latency,
// and pipelined message streams achieve min(rate_i) aggregate throughput.

#include <span>
#include <string>
#include <vector>

#include "sim/engine.hpp"

namespace orv::sim {

class Resource {
 public:
  /// `rate` in units/second (> 0); `per_op_latency` added to every
  /// reservation (e.g. disk seek + rotational delay).
  Resource(Engine& engine, std::string name, double rate,
           double per_op_latency = 0.0);

  const std::string& name() const { return name_; }
  double rate() const { return rate_; }

  /// Changes the service rate for future reservations (e.g. Fig. 8's
  /// compute-power sweep). In-flight reservations are unaffected.
  void set_rate(double rate);

  /// Books `amount` units FCFS and returns the completion time. Advances
  /// the resource's horizon; does not suspend.
  Time reserve(double amount);

  /// Books a fixed service *duration* FCFS (rate-independent); lets wrappers
  /// like cluster::Disk express distinct read/write bandwidths over one
  /// physical spindle. Per-op latency applies.
  Time reserve_duration(double seconds);

  /// Awaitable duration reservation.
  auto use_duration(double seconds) {
    struct Awaiter {
      Engine* engine;
      Time at;
      bool await_ready() const noexcept { return at <= engine->now(); }
      void await_suspend(std::coroutine_handle<> h) { engine->schedule(at, h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{&engine_, reserve_duration(seconds)};
  }

  /// Awaitable: suspends the caller until the reservation completes.
  auto use(double amount) {
    struct Awaiter {
      Engine* engine;
      Time at;
      bool await_ready() const noexcept { return at <= engine->now(); }
      void await_suspend(std::coroutine_handle<> h) { engine->schedule(at, h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{&engine_, reserve(amount)};
  }

  /// Total units served and total busy time (for utilization reports).
  double total_amount() const { return total_amount_; }
  double busy_time() const { return busy_time_; }
  std::uint64_t num_ops() const { return num_ops_; }

  Engine& engine() const { return engine_; }

 private:
  Engine& engine_;
  std::string name_;
  double rate_;
  double per_op_latency_;
  Time free_at_ = 0;
  double total_amount_ = 0;
  double busy_time_ = 0;
  std::uint64_t num_ops_ = 0;
};

/// Books `amount` on every resource in parallel; returns max completion.
Time reserve_all(std::span<Resource* const> resources, double amount);

/// Awaitable parallel reservation (network transfers span NICs + switch).
inline auto transfer(Engine& engine, std::span<Resource* const> resources,
                     double amount) {
  struct Awaiter {
    Engine* engine;
    Time at;
    bool await_ready() const noexcept { return at <= engine->now(); }
    void await_suspend(std::coroutine_handle<> h) { engine->schedule(at, h); }
    void await_resume() const noexcept {}
  };
  return Awaiter{&engine, reserve_all(resources, amount)};
}

}  // namespace orv::sim
