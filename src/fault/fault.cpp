#include "fault/fault.hpp"

#include <algorithm>

#include "common/strings.hpp"
#include "obs/flight.hpp"
#include "obs/obs.hpp"
#include "sim/engine.hpp"

namespace orv::fault {

const char* node_kind_name(NodeKind k) {
  return k == NodeKind::Storage ? "storage" : "compute";
}

double RetryPolicy::backoff(int attempt) const {
  if (attempt <= 0) return 0;
  double b = base_backoff;
  for (int i = 1; i < attempt; ++i) b *= multiplier;
  return std::min(b, max_backoff);
}

std::string FaultPlan::to_string() const {
  std::string s = strformat(
      "FaultPlan{seed=%llu io_err=%.3f drop=%.3f delay=%.3f/%.3fs "
      "retry=%dx/%.3fs timeout=%.3fs crashes=[",
      static_cast<unsigned long long>(seed), chunk_read_error_prob,
      message_drop_prob, message_delay_prob, message_delay_max,
      retry.max_attempts, retry.base_backoff, retry.fetch_timeout);
  for (std::size_t i = 0; i < crashes.size(); ++i) {
    if (i) s += " ";
    const auto& c = crashes[i];
    s += strformat("%s%zu@%.3f", node_kind_name(c.kind), c.node, c.at);
    if (c.recover_at != kNever) s += strformat("..%.3f", c.recover_at);
  }
  s += "]}";
  return s;
}

FaultPlan FaultPlan::chaos(std::uint64_t seed, std::size_t num_storage,
                           std::size_t num_compute) {
  FaultPlan p;
  p.seed = seed;
  Xoshiro256StarStar rng(seed ^ 0xFA017EC7ED5EEDull);

  // Every knob is active in some runs and off in others, so a sweep
  // exercises each mechanism in isolation and in combination.
  if (rng.below(4) != 0) p.chunk_read_error_prob = rng.uniform(0.01, 0.15);
  if (rng.below(3) != 0) p.message_drop_prob = rng.uniform(0.0, 0.08);
  if (rng.below(3) != 0) {
    p.message_delay_prob = rng.uniform(0.05, 0.4);
    p.message_delay_max = rng.uniform(0.001, 0.02);
  }
  p.retransmit_timeout = rng.uniform(0.001, 0.01);

  p.retry.max_attempts = 8 + static_cast<int>(rng.below(4));
  p.retry.base_backoff = rng.uniform(0.002, 0.01);
  p.retry.max_backoff = 0.5;
  p.retry.fetch_timeout = rng.uniform(0.05, 0.2);

  // Storage outages always recover well inside the retry budget's reach:
  // max_attempts * (timeout + max_backoff) far exceeds the longest window.
  const std::size_t storage_crashes = rng.below(std::min<std::size_t>(
      num_storage + 1, 3));
  for (std::size_t i = 0; i < storage_crashes; ++i) {
    NodeCrash c;
    c.kind = NodeKind::Storage;
    c.node = rng.below(num_storage);
    c.at = rng.uniform(0.0, 1.5);
    c.recover_at = c.at + rng.uniform(0.05, 0.5);
    p.crashes.push_back(c);
  }

  // Fail-stop compute crashes; strictly fewer than num_compute distinct
  // victims so at least one joiner always survives.
  if (num_compute > 1) {
    const std::size_t max_victims = std::min<std::size_t>(num_compute - 1, 2);
    const std::size_t compute_crashes = rng.below(max_victims + 1);
    std::vector<std::size_t> victims;
    for (std::size_t i = 0; i < num_compute; ++i) victims.push_back(i);
    for (std::size_t i = 0; i < compute_crashes; ++i) {
      const std::size_t pick = i + rng.below(victims.size() - i);
      std::swap(victims[i], victims[pick]);
      NodeCrash c;
      c.kind = NodeKind::Compute;
      c.node = victims[i];
      c.at = rng.uniform(0.0, 1.5);
      p.crashes.push_back(c);
    }
  }
  return p;
}

namespace {

void publish(const char* name, std::uint64_t n = 1) {
  if (auto* ctx = obs::context()) {
    ctx->registry.counter(name).add(n);
    ctx->registry.counter("fault.injected").add(n);
  }
}

}  // namespace

FaultInjector::FaultInjector(sim::Engine& engine, FaultPlan plan)
    : engine_(engine),
      plan_(std::move(plan)),
      // xor decorrelates the decision stream from FaultPlan::chaos's own
      // stream, which consumed the raw seed.
      rng_(plan_.seed ^ 0x1A85EED0FA017ull),
      storage_observed_(64, false),
      compute_observed_(64, false) {}

bool FaultInjector::storage_down(std::size_t node) const {
  const double now = engine_.now();
  for (const auto& c : plan_.crashes) {
    if (c.kind == NodeKind::Storage && c.node == node && c.at <= now &&
        now < c.recover_at) {
      return true;
    }
  }
  return false;
}

double FaultInjector::storage_recovery_time(std::size_t node) const {
  const double now = engine_.now();
  double t = now;
  // Windows may overlap or chain; iterate to a fixed point.
  bool moved = true;
  while (moved) {
    moved = false;
    for (const auto& c : plan_.crashes) {
      if (c.kind == NodeKind::Storage && c.node == node && c.at <= t &&
          t < c.recover_at) {
        if (c.recover_at == kNever) return kNever;
        t = c.recover_at;
        moved = true;
      }
    }
  }
  return t;
}

bool FaultInjector::compute_crashed_by(std::size_t node, double t) const {
  for (const auto& c : plan_.crashes) {
    if (c.kind == NodeKind::Compute && c.node == node && c.at <= t) {
      return true;
    }
  }
  return false;
}

bool FaultInjector::compute_down(std::size_t node) const {
  return compute_crashed_by(node, engine_.now());
}

void FaultInjector::maybe_fail_chunk_read(std::size_t storage_node) {
  if (plan_.chunk_read_error_prob <= 0) return;
  if (rng_.uniform01() >= plan_.chunk_read_error_prob) return;
  ++stats_.io_errors_injected;
  publish("fault.injected.io");
  fired("io_error", NodeKind::Storage, storage_node);
  throw InjectedIoError(strformat(
      "injected transient I/O error reading chunk on storage node %zu "
      "(t=%.4f)",
      storage_node, engine_.now()));
}

FaultInjector::MessageAction FaultInjector::on_message(std::size_t src,
                                                       std::size_t dst) {
  MessageAction act;
  if (plan_.message_drop_prob > 0 &&
      rng_.uniform01() < plan_.message_drop_prob) {
    act.drop = true;
    ++stats_.messages_dropped;
    publish("fault.injected.drop");
    fired("message_drop", std::nullopt, 0, 0,
          strformat("src=%zu dst=%zu", src, dst));
    return act;
  }
  if (plan_.message_delay_prob > 0 &&
      rng_.uniform01() < plan_.message_delay_prob) {
    act.delay = rng_.uniform(0.0, plan_.message_delay_max);
    ++stats_.messages_delayed;
    publish("fault.injected.delay");
    fired("message_delay", std::nullopt, 0, act.delay,
          strformat("src=%zu dst=%zu", src, dst));
  }
  return act;
}

void FaultInjector::note_crash_observed(NodeKind kind, std::size_t node) {
  auto& seen =
      kind == NodeKind::Storage ? storage_observed_ : compute_observed_;
  if (node >= seen.size()) seen.resize(node + 1, false);
  if (seen[node]) return;
  seen[node] = true;
  ++stats_.node_crashes_observed;
  publish("fault.injected.crash");
  fired("crash", kind, node);
}

void FaultInjector::note_retry() {
  if (auto* ctx = obs::context()) ctx->registry.counter("retry.attempts").add(1);
  fired("retry");
}

void FaultInjector::fired(const char* what, std::optional<NodeKind> kind,
                          std::size_t node, double value,
                          const std::string& detail) {
  const double now = engine_.now();
  obs::flight_note(now, obs::FlightEvent::Kind::Fault,
                   kind ? strformat("%s%zu", node_kind_name(*kind), node)
                        : std::string("net"),
                   what, value, detail);
  if (subscriber_) subscriber_(FaultEvent{now, what, kind, node});
}

}  // namespace orv::fault
