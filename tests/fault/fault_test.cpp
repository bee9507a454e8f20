// Unit tests for the deterministic fault-injection layer: plan
// construction, crash windows, probabilistic decisions, and the
// determinism guarantees the chaos harness depends on.

#include "fault/fault.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/obs.hpp"
#include "sim/engine.hpp"

namespace orv::fault {
namespace {

TEST(RetryPolicy, BackoffIsTruncatedExponential) {
  RetryPolicy p;
  p.base_backoff = 0.01;
  p.multiplier = 2.0;
  p.max_backoff = 0.05;
  EXPECT_DOUBLE_EQ(p.backoff(0), 0.0);  // initial attempt pays nothing
  EXPECT_DOUBLE_EQ(p.backoff(1), 0.01);
  EXPECT_DOUBLE_EQ(p.backoff(2), 0.02);
  EXPECT_DOUBLE_EQ(p.backoff(3), 0.04);
  EXPECT_DOUBLE_EQ(p.backoff(4), 0.05);  // capped
  EXPECT_DOUBLE_EQ(p.backoff(10), 0.05);
}

TEST(FaultPlanChaos, SameSeedSamePlan) {
  const FaultPlan a = FaultPlan::chaos(7, 3, 4);
  const FaultPlan b = FaultPlan::chaos(7, 3, 4);
  EXPECT_EQ(a.to_string(), b.to_string());
}

TEST(FaultPlanChaos, PlansAreSurvivableByConstruction) {
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    const std::size_t ns = 1 + seed % 3;
    const std::size_t nc = 2 + seed % 3;
    const FaultPlan p = FaultPlan::chaos(seed, ns, nc);
    std::vector<char> compute_victim(nc, 0);
    std::size_t n_compute_victims = 0;
    for (const auto& c : p.crashes) {
      if (c.kind == NodeKind::Storage) {
        EXPECT_LT(c.node, ns);
        // Storage outages always recover (permanent loss would make the
        // query unrecoverable and the sweep's byte-identical check moot).
        EXPECT_LT(c.recover_at, kNever) << p.to_string();
        EXPECT_GT(c.recover_at, c.at);
      } else {
        EXPECT_LT(c.node, nc);
        if (!compute_victim[c.node]) {
          compute_victim[c.node] = 1;
          ++n_compute_victims;
        }
      }
    }
    // Strictly fewer victims than compute nodes: a joiner survives.
    EXPECT_LT(n_compute_victims, nc) << p.to_string();
  }
}

TEST(FaultInjector, StorageCrashWindow) {
  sim::Engine engine;
  FaultPlan plan;
  plan.crashes.push_back({NodeKind::Storage, 0, 0.0, 5.0});
  plan.crashes.push_back({NodeKind::Storage, 1, 1.0, 2.0});
  FaultInjector inj(engine, plan);
  // engine.now() == 0.
  EXPECT_TRUE(inj.storage_down(0));
  EXPECT_FALSE(inj.storage_down(1));  // window starts later
  EXPECT_FALSE(inj.storage_down(2));
  EXPECT_DOUBLE_EQ(inj.storage_recovery_time(0), 5.0);
  EXPECT_DOUBLE_EQ(inj.storage_recovery_time(1), 0.0);  // up right now
}

TEST(FaultInjector, ChainedOutageWindowsRecoverAtFixedPoint) {
  sim::Engine engine;
  FaultPlan plan;
  plan.crashes.push_back({NodeKind::Storage, 0, 0.0, 1.0});
  plan.crashes.push_back({NodeKind::Storage, 0, 1.0, 2.0});
  plan.crashes.push_back({NodeKind::Storage, 0, 3.0, 4.0});  // disjoint
  FaultInjector inj(engine, plan);
  EXPECT_DOUBLE_EQ(inj.storage_recovery_time(0), 2.0);
}

TEST(FaultInjector, PermanentStorageLossNeverRecovers) {
  sim::Engine engine;
  FaultPlan plan;
  plan.crashes.push_back({NodeKind::Storage, 0, 0.0, kNever});
  FaultInjector inj(engine, plan);
  EXPECT_TRUE(inj.storage_down(0));
  EXPECT_EQ(inj.storage_recovery_time(0), kNever);
}

TEST(FaultInjector, ComputeCrashIsFailStop) {
  sim::Engine engine;
  FaultPlan plan;
  // recover_at is deliberately set: compute deaths must ignore it.
  plan.crashes.push_back({NodeKind::Compute, 1, 1.0, 2.0});
  FaultInjector inj(engine, plan);
  EXPECT_FALSE(inj.compute_crashed_by(1, 0.5));
  EXPECT_TRUE(inj.compute_crashed_by(1, 1.0));
  EXPECT_TRUE(inj.compute_crashed_by(1, 100.0));  // no recovery
  EXPECT_FALSE(inj.compute_crashed_by(0, 100.0));
  EXPECT_FALSE(inj.compute_down(1));  // engine still at t=0
}

TEST(FaultInjector, ChunkReadErrorProbabilityEndpoints) {
  sim::Engine engine;
  FaultPlan always;
  always.chunk_read_error_prob = 1.0;
  FaultInjector inj_always(engine, always);
  for (int i = 0; i < 10; ++i) {
    EXPECT_THROW(inj_always.maybe_fail_chunk_read(0), InjectedIoError);
  }
  EXPECT_EQ(inj_always.stats().io_errors_injected, 10u);

  FaultPlan never;
  never.chunk_read_error_prob = 0.0;
  FaultInjector inj_never(engine, never);
  for (int i = 0; i < 10; ++i) {
    EXPECT_NO_THROW(inj_never.maybe_fail_chunk_read(0));
  }
  EXPECT_EQ(inj_never.stats().io_errors_injected, 0u);
}

TEST(FaultInjector, InjectedErrorsAreRetryableIoErrors) {
  // Generic retry paths catch IoError without knowing about injection.
  sim::Engine engine;
  FaultPlan plan;
  plan.chunk_read_error_prob = 1.0;
  FaultInjector inj(engine, plan);
  EXPECT_THROW(inj.maybe_fail_chunk_read(0), IoError);
  EXPECT_THROW(throw TimeoutError("t"), IoError);
  EXPECT_THROW(throw FaultError("f"), Error);
}

TEST(FaultInjector, MessageDecisionsAreDeterministic) {
  sim::Engine e1, e2;
  FaultPlan plan;
  plan.seed = 99;
  plan.message_drop_prob = 0.2;
  plan.message_delay_prob = 0.5;
  plan.message_delay_max = 0.01;
  FaultInjector a(e1, plan);
  FaultInjector b(e2, plan);
  for (int i = 0; i < 500; ++i) {
    const auto da = a.on_message(0, 1);
    const auto db = b.on_message(0, 1);
    EXPECT_EQ(da.drop, db.drop);
    EXPECT_DOUBLE_EQ(da.delay, db.delay);
  }
  EXPECT_GT(a.stats().messages_dropped, 0u);
  EXPECT_GT(a.stats().messages_delayed, 0u);
  EXPECT_EQ(a.stats().messages_dropped, b.stats().messages_dropped);
}

TEST(FaultInjector, CrashObservationIsIdempotentPerNode) {
  sim::Engine engine;
  FaultInjector inj(engine, FaultPlan{});
  inj.note_crash_observed(NodeKind::Compute, 3);
  inj.note_crash_observed(NodeKind::Compute, 3);
  inj.note_crash_observed(NodeKind::Storage, 3);  // distinct kind counts
  inj.note_crash_observed(NodeKind::Compute, 200);  // beyond initial size
  EXPECT_EQ(inj.stats().node_crashes_observed, 3u);
}

TEST(FaultObs, InjectionsSurfaceAsCounters) {
  obs::WallClock clock;
  obs::ObsContext ctx(&clock);
  obs::ScopedInstall obs_scope(ctx);
  sim::Engine engine;
  FaultPlan plan;
  plan.chunk_read_error_prob = 1.0;
  FaultInjector inj(engine, plan);
  std::vector<std::string> heard;
  inj.subscribe([&](const FaultEvent& e) {
    std::string s = e.what;
    if (e.kind) s += "@" + std::string(node_kind_name(*e.kind)) +
                     std::to_string(e.node);
    heard.push_back(s);
  });
  EXPECT_THROW(inj.maybe_fail_chunk_read(0), InjectedIoError);
  inj.note_retry();
  EXPECT_EQ(ctx.registry.counter("fault.injected.io").value(), 1u);
  EXPECT_EQ(ctx.registry.counter("fault.injected").value(), 1u);
  EXPECT_EQ(ctx.registry.counter("retry.attempts").value(), 1u);

  // The subscriber hears every fault in firing order; an io_error names
  // its storage node, a crash its node, a retry none. An empty function
  // ends the subscription.
  inj.note_crash_observed(NodeKind::Compute, 2);
  inj.subscribe({});
  inj.note_crash_observed(NodeKind::Storage, 1);
  EXPECT_EQ(heard, (std::vector<std::string>{"io_error@storage0", "retry",
                                             "crash@compute2"}));
}

}  // namespace
}  // namespace orv::fault
