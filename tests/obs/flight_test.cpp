// Flight recorder: per-(node, event-class) ring isolation, wrap-around
// order, dump budget/suppression, schema-versioned JSON dumps to disk,
// and the process-wide install hook (ScopedFlight / flight_note).

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/tempdir.hpp"
#include "obs/flight.hpp"

namespace orv::obs {
namespace {

using Kind = FlightEvent::Kind;

FlightEvent ev(double t, Kind k, std::string node, std::string name,
               double value = 0, std::string detail = {}) {
  FlightEvent e;
  e.time = t;
  e.kind = k;
  e.node = std::move(node);
  e.name = std::move(name);
  e.value = value;
  e.detail = std::move(detail);
  return e;
}

TEST(FlightRecorder, RecordsAndDumpsWithEvidenceLookup) {
  FlightRecorder rec;
  rec.record(ev(1.0, Kind::Fault, "storage0", "io_error", 1, "chunk=3"));
  rec.record(ev(1.5, Kind::SpanClose, "compute1", "join.probe", 0.02));
  rec.record(ev(2.0, Kind::Alert, "", "slo-burn", 2.5));
  EXPECT_EQ(rec.events_recorded(), 3u);
  EXPECT_EQ(rec.events_evicted(), 0u);

  EXPECT_TRUE(rec.holds(Kind::Fault, "storage0", "io_error"));
  EXPECT_FALSE(rec.holds(Kind::Fault, "storage1", "io_error"));
  EXPECT_FALSE(rec.holds(Kind::SpanClose, "storage0", "io_error"));

  ASSERT_TRUE(rec.dump("test", 2.5));
  ASSERT_EQ(rec.dumps().size(), 1u);
  const FlightDump& d = rec.dumps()[0];
  EXPECT_EQ(d.seq, 0u);
  EXPECT_DOUBLE_EQ(d.time, 2.5);
  EXPECT_EQ(d.reason, "test");
  EXPECT_TRUE(d.path.empty());  // no dump_dir configured
  EXPECT_NE(d.json.find("\"schema_version\":3"), std::string::npos);
  EXPECT_NE(d.json.find("\"reason\":\"test\""), std::string::npos);
  EXPECT_NE(d.json.find("\"detail\":\"chunk=3\""), std::string::npos);
  EXPECT_TRUE(d.contains(Kind::Fault, "storage0", "io_error"));
  EXPECT_TRUE(d.contains(Kind::SpanClose, "compute1", "join.probe"));
  EXPECT_TRUE(d.contains(Kind::Alert, "", "slo-burn"));
  EXPECT_FALSE(d.contains(Kind::Fault, "storage0", "message_drop"));
  EXPECT_FALSE(d.contains(Kind::Fault, "compute1", "io_error"));
}

TEST(FlightRecorder, SpanFloodCannotEvictFaultEvidence) {
  constexpr int kCap = static_cast<int>(FlightRecorder::kRingCapacity);
  FlightRecorder rec;
  rec.record(ev(1.0, Kind::Fault, "storage2", "io_error"));
  // A flood of span closures on the *same node*, 100 past the ring's
  // capacity: they churn only the (storage2, SpanClose) ring — the fault
  // ring is untouched.
  for (int i = 0; i < kCap + 100; ++i) {
    rec.record(ev(2.0 + i, Kind::SpanClose, "storage2", "io.read"));
  }
  EXPECT_TRUE(rec.holds(Kind::Fault, "storage2", "io_error"));
  EXPECT_EQ(rec.events_evicted(), 100u);
  ASSERT_TRUE(rec.dump("flood", 1000.0));
  EXPECT_TRUE(rec.dumps()[0].contains(Kind::Fault, "storage2", "io_error"));

  // But capacity more faults on the same node do push it out.
  for (int i = 0; i < kCap; ++i) {
    rec.record(ev(1100.0 + i, Kind::Fault, "storage2", "crash"));
  }
  EXPECT_FALSE(rec.holds(Kind::Fault, "storage2", "io_error"));
  EXPECT_TRUE(rec.holds(Kind::Fault, "storage2", "crash"));
}

TEST(FlightRecorder, DumpRendersRingsOldestFirstAfterWrap) {
  constexpr int kCap = static_cast<int>(FlightRecorder::kRingCapacity);
  FlightRecorder rec;
  for (int i = 0; i < kCap + 2; ++i) {  // keeps events t=2..kCap+1
    rec.record(ev(i, Kind::Note, "net", "tick" + std::to_string(i)));
  }
  ASSERT_TRUE(rec.dump("wrap", kCap + 2.0));
  const std::string& j = rec.dumps()[0].json;
  auto pos = [&j](int t) {
    return j.find("\"name\":\"tick" + std::to_string(t) + "\"");
  };
  EXPECT_EQ(pos(0), std::string::npos);
  EXPECT_EQ(pos(1), std::string::npos);
  ASSERT_NE(pos(2), std::string::npos);
  ASSERT_NE(pos(3), std::string::npos);
  ASSERT_NE(pos(kCap + 1), std::string::npos);
  EXPECT_LT(pos(2), pos(3));
  EXPECT_LT(pos(3), pos(kCap + 1));
  // The ring header reports lifetime traffic, not just live events.
  EXPECT_NE(j.find("\"total\":" + std::to_string(kCap + 2)),
            std::string::npos);
}

TEST(FlightRecorder, DumpBudgetSuppressesButKeepsCounting) {
  FlightRecorder::Config cfg;
  cfg.max_dumps = 2;
  FlightRecorder rec(cfg);
  rec.record(ev(1.0, Kind::Note, "", "x"));
  EXPECT_TRUE(rec.dump("a", 1.0));
  EXPECT_TRUE(rec.dump("b", 2.0));
  EXPECT_FALSE(rec.dump("c", 3.0));
  EXPECT_FALSE(rec.dump("d", 4.0));
  EXPECT_EQ(rec.dumps().size(), 2u);
  EXPECT_EQ(rec.dumps_suppressed(), 2u);
  // seq stays dense over the kept dumps.
  EXPECT_EQ(rec.dumps()[0].seq, 0u);
  EXPECT_EQ(rec.dumps()[1].seq, 1u);
}

TEST(FlightRecorder, WritesDumpFilesWhenDirectoryConfigured) {
  TempDir dir("flight");
  FlightRecorder::Config cfg;
  cfg.dump_dir = dir.path().string();
  FlightRecorder rec(cfg);
  rec.record(ev(1.0, Kind::Fault, "compute0", "crash", 0, "mid-query"));
  ASSERT_TRUE(rec.dump("crash-evidence", 1.5));
  const FlightDump& d = rec.dumps()[0];
  ASSERT_FALSE(d.path.empty());
  ASSERT_TRUE(std::filesystem::exists(d.path));
  std::ifstream in(d.path);
  std::stringstream ss;
  ss << in.rdbuf();
  // The file is the in-memory document plus a trailing newline.
  EXPECT_EQ(ss.str(), d.json + "\n");
  EXPECT_NE(ss.str().find("\"schema_version\":3"), std::string::npos);
  EXPECT_NE(ss.str().find("crash-evidence"), std::string::npos);
}

TEST(FlightRecorder, OnFaultCallbackFiresPerFaultEvent) {
  FlightRecorder rec;
  std::vector<std::string> faults;
  rec.set_on_fault([&](const FlightEvent& e) {
    faults.push_back(e.node + "/" + e.name);
  });
  rec.record(ev(1.0, Kind::Fault, "storage1", "io_error"));
  rec.record(ev(1.1, Kind::SpanClose, "storage1", "io.read"));  // not a fault
  rec.record(ev(1.2, Kind::Fault, "net", "message_drop"));
  ASSERT_EQ(faults.size(), 2u);
  EXPECT_EQ(faults[0], "storage1/io_error");
  EXPECT_EQ(faults[1], "net/message_drop");
}

TEST(FlightInstall, FlightNoteIsNoOpWithoutRecorder) {
  ASSERT_EQ(flight_context(), nullptr);
  flight_note(1.0, Kind::Note, "storage0", "ignored");  // must not crash
  EXPECT_EQ(flight_context(), nullptr);
}

TEST(FlightInstall, ScopedFlightInstallsAndRestores) {
  ASSERT_EQ(flight_context(), nullptr);
  FlightRecorder outer;
  {
    ScopedFlight so(outer);
    EXPECT_EQ(flight_context(), &outer);
    flight_note(1.0, Kind::Note, "net", "outer-note", 7);
    {
      FlightRecorder inner;
      ScopedFlight si(inner);
      EXPECT_EQ(flight_context(), &inner);
      flight_note(2.0, Kind::Note, "net", "inner-note");
      EXPECT_TRUE(inner.holds(Kind::Note, "net", "inner-note"));
      EXPECT_FALSE(inner.holds(Kind::Note, "net", "outer-note"));
    }
    // Nested scope exit restores the outer recorder.
    EXPECT_EQ(flight_context(), &outer);
  }
  EXPECT_EQ(flight_context(), nullptr);
  EXPECT_TRUE(outer.holds(Kind::Note, "net", "outer-note"));
  EXPECT_FALSE(outer.holds(Kind::Note, "net", "inner-note"));
  EXPECT_EQ(outer.events_recorded(), 1u);
}

TEST(FlightKindNames, AreStableSchemaStrings) {
  EXPECT_STREQ(flight_kind_name(Kind::SpanClose), "span");
  EXPECT_STREQ(flight_kind_name(Kind::Fault), "fault");
  EXPECT_STREQ(flight_kind_name(Kind::Alert), "alert");
  EXPECT_STREQ(flight_kind_name(Kind::Note), "note");
}

}  // namespace
}  // namespace orv::obs
