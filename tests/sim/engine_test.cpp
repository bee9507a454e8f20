// Core discrete-event engine behaviour: virtual time, ordering,
// structured co_await, spawn/join, exceptions, deadlock detection.

#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.hpp"
#include "sim/event.hpp"
#include "sim/resource.hpp"

namespace orv::sim {
namespace {

Task<> sleeper(Engine& e, double dt, std::vector<double>& log) {
  co_await e.sleep(dt);
  log.push_back(e.now());
}

TEST(Engine, StartsAtTimeZero) {
  Engine e;
  EXPECT_DOUBLE_EQ(e.now(), 0.0);
}

TEST(Engine, SleepAdvancesVirtualTime) {
  Engine e;
  std::vector<double> log;
  e.spawn(sleeper(e, 2.5, log), "sleeper");
  e.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_DOUBLE_EQ(log[0], 2.5);
  EXPECT_DOUBLE_EQ(e.now(), 2.5);
}

TEST(Engine, ZeroAndNegativeSleepCompleteAtNow) {
  Engine e;
  std::vector<double> log;
  e.spawn(sleeper(e, 0.0, log));
  e.spawn(sleeper(e, -1.0, log));  // clamped to zero
  e.run();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_DOUBLE_EQ(log[0], 0.0);
  EXPECT_DOUBLE_EQ(log[1], 0.0);
}

TEST(Engine, EventsFireInTimeOrder) {
  Engine e;
  std::vector<double> log;
  e.spawn(sleeper(e, 3.0, log));
  e.spawn(sleeper(e, 1.0, log));
  e.spawn(sleeper(e, 2.0, log));
  e.run();
  EXPECT_EQ(log, (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST(Engine, SameTimeEventsFireInSpawnOrder) {
  Engine e;
  std::vector<int> order;
  auto mk = [&](int id) -> Task<> {
    order.push_back(id);
    co_return;
  };
  e.spawn(mk(1));
  e.spawn(mk(2));
  e.spawn(mk(3));
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

Task<> parent_task(Engine& e, std::vector<std::string>& log) {
  log.push_back("parent-start");
  auto child = [](Engine& eng, std::vector<std::string>& lg) -> Task<> {
    lg.push_back("child-start");
    co_await eng.sleep(1.0);
    lg.push_back("child-end");
  };
  co_await child(e, log);
  log.push_back("parent-end");
}

TEST(Engine, AwaitedChildRunsToCompletionBeforeParentResumes) {
  Engine e;
  std::vector<std::string> log;
  e.spawn(parent_task(e, log));
  e.run();
  EXPECT_EQ(log, (std::vector<std::string>{"parent-start", "child-start",
                                           "child-end", "parent-end"}));
  EXPECT_DOUBLE_EQ(e.now(), 1.0);
}

Task<> thrower(Engine& e) {
  co_await e.sleep(1.0);
  throw InvalidArgument("boom");
}

TEST(Engine, UnjoinedRootExceptionSurfacesFromRun) {
  Engine e;
  e.spawn(thrower(e), "thrower");
  EXPECT_THROW(e.run(), InvalidArgument);
}

TEST(Engine, JoinedRootExceptionSurfacesAtJoin) {
  Engine e;
  auto handle = e.spawn(thrower(e), "thrower");
  bool caught = false;
  auto joiner = [](JoinHandle h, bool& flag) -> Task<> {
    try {
      co_await h.join();
    } catch (const InvalidArgument&) {
      flag = true;
    }
  };
  e.spawn(joiner(handle, caught));
  e.run();  // must NOT rethrow: the joiner observed it
  EXPECT_TRUE(caught);
}

TEST(Engine, ExceptionPropagatesThroughAwaitChain) {
  Engine e;
  bool caught = false;
  auto outer = [](Engine& eng, bool& flag) -> Task<> {
    auto inner = [](Engine& en) -> Task<> {
      co_await en.sleep(0.5);
      throw IoError("disk on fire");
    };
    try {
      co_await inner(eng);
    } catch (const IoError&) {
      flag = true;
    }
  };
  e.spawn(outer(e, caught));
  e.run();
  EXPECT_TRUE(caught);
}

TEST(Engine, JoinAlreadyCompletedTaskIsImmediate) {
  Engine e;
  std::vector<double> log;
  auto handle = e.spawn(sleeper(e, 1.0, log));
  auto late = [](Engine& eng, JoinHandle h, std::vector<double>& lg) -> Task<> {
    co_await eng.sleep(5.0);
    co_await h.join();  // already done
    lg.push_back(eng.now());
  };
  e.spawn(late(e, handle, log));
  e.run();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_DOUBLE_EQ(log[1], 5.0);
}

TEST(Engine, ManyConcurrentProcesses) {
  Engine e;
  int finished = 0;
  for (int i = 0; i < 1000; ++i) {
    auto proc = [](Engine& eng, int steps, int& done) -> Task<> {
      for (int s = 0; s < steps; ++s) co_await eng.sleep(0.001 * (s + 1));
      ++done;
    };
    e.spawn(proc(e, 1 + i % 7, finished));
  }
  e.run();
  EXPECT_EQ(finished, 1000);
  EXPECT_EQ(e.processes_spawned(), 1000u);
  EXPECT_GT(e.events_processed(), 1000u);
}

TEST(Engine, DeadlockOnUnsetEventIsDetected) {
  Engine e;
  Event ev(e);
  auto waiter = [](Event& event) -> Task<> { co_await event.wait(); };
  e.spawn(waiter(ev), "stuck-waiter");
  try {
    e.run();
    FAIL() << "expected deadlock error";
  } catch (const Error& err) {
    EXPECT_NE(std::string(err.what()).find("stuck-waiter"), std::string::npos);
  }
}

// A process references the frames of the processes spawned before it (its
// spawner's state), so a torn-down engine must destroy the newest root
// first: here the child's frame, whose guard logs, goes before its parent's.
TEST(Engine, DestroysBlockedRootsNewestFirst) {
  struct Guard {
    std::vector<std::string>& log;
    const char* name;
    ~Guard() { log.push_back(name); }
  };
  auto child = [](Event& never, std::vector<std::string>& log) -> Task<> {
    Guard guard{log, "child"};
    co_await never.wait();
  };
  auto parent = [&child](Engine& e,
                         std::vector<std::string>& log) -> Task<> {
    Guard guard{log, "parent"};
    Event never(e);
    co_await e.spawn(child(never, log), "child").join();
  };
  std::vector<std::string> log;
  {
    Engine e;
    e.spawn(parent(e, log), "parent");
    EXPECT_THROW(e.run(), Error);  // both block: a deadlock
    EXPECT_TRUE(log.empty());
  }
  EXPECT_EQ(log, (std::vector<std::string>{"child", "parent"}));
}

TEST(Engine, EventWakesAllWaiters) {
  Engine e;
  Event ev(e);
  std::vector<double> woke;
  auto waiter = [](Engine& eng, Event& event, std::vector<double>& w) -> Task<> {
    co_await event.wait();
    w.push_back(eng.now());
  };
  e.spawn(waiter(e, ev, woke));
  e.spawn(waiter(e, ev, woke));
  auto setter = [](Engine& eng, Event& event) -> Task<> {
    co_await eng.sleep(4.0);
    event.set();
  };
  e.spawn(setter(e, ev));
  e.run();
  EXPECT_EQ(woke, (std::vector<double>{4.0, 4.0}));
}

TEST(Engine, LatchFiresAfterCountArrivals) {
  Engine e;
  Latch latch(e, 3);
  double woke_at = -1;
  auto waiter = [](Engine& eng, Latch& l, double& at) -> Task<> {
    co_await l.wait();
    at = eng.now();
  };
  e.spawn(waiter(e, latch, woke_at));
  for (int i = 1; i <= 3; ++i) {
    auto arriver = [](Engine& eng, Latch& l, double t) -> Task<> {
      co_await eng.sleep(t);
      l.count_down();
    };
    e.spawn(arriver(e, latch, static_cast<double>(i)));
  }
  e.run();
  EXPECT_DOUBLE_EQ(woke_at, 3.0);
}

TEST(Engine, ZeroCountLatchIsAlreadySet) {
  Engine e;
  Latch latch(e, 0);
  EXPECT_TRUE(latch.is_set());
}

TEST(Engine, WaitUntilAbsoluteTime) {
  Engine e;
  std::vector<double> log;
  auto proc = [](Engine& eng, std::vector<double>& lg) -> Task<> {
    co_await eng.wait_until(3.0);
    lg.push_back(eng.now());
    co_await eng.wait_until(1.0);  // already past: immediate
    lg.push_back(eng.now());
  };
  e.spawn(proc(e, log));
  e.run();
  EXPECT_EQ(log, (std::vector<double>{3.0, 3.0}));
}

TEST(Engine, WaitUntilPairsWithReservations) {
  // The streamed-fetch pattern: reserve several resources, wait for the
  // max completion.
  Engine e;
  Resource disk(e, "disk", 100.0);
  Resource nic(e, "nic", 50.0);
  double done = -1;
  auto proc = [](Engine& eng, Resource& d, Resource& n, double& at)
      -> Task<> {
    const Time t1 = d.reserve(100.0);   // 1 s
    const Time t2 = n.reserve(100.0);   // 2 s (slower)
    co_await eng.wait_until(std::max(t1, t2));
    at = eng.now();
  };
  e.spawn(proc(e, disk, nic, done));
  e.run();
  EXPECT_DOUBLE_EQ(done, 2.0);
}

TEST(Engine, ReserveDurationIsRateIndependent) {
  Engine e;
  Resource r(e, "r", 12345.0);
  EXPECT_DOUBLE_EQ(r.reserve_duration(0.5), 0.5);
  EXPECT_DOUBLE_EQ(r.reserve_duration(0.25), 0.75);  // FCFS after the first
}

TEST(Engine, SchedulingIntoThePastRejected) {
  Engine e;
  auto proc = [](Engine& eng, bool& threw) -> Task<> {
    co_await eng.sleep(2.0);
    try {
      eng.schedule(1.0, std::noop_coroutine());
    } catch (const Error&) {
      threw = true;
    }
  };
  bool threw = false;
  e.spawn(proc(e, threw));
  e.run();
  EXPECT_TRUE(threw);
}

TEST(Engine, DeterministicReplay) {
  auto run_once = []() {
    Engine e;
    std::vector<double> log;
    for (int i = 0; i < 50; ++i) {
      e.spawn(sleeper(e, 0.1 * ((i * 7) % 13), log));
    }
    e.run();
    return log;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace orv::sim
