// Coverage for the remaining small surfaces: the logger, the cluster
// utilization report, page-index reuse through the distributed DDS, and
// string helpers not exercised elsewhere.

#include <gtest/gtest.h>

#include "common/log.hpp"
#include "common/strings.hpp"
#include "datagen/generator.hpp"
#include "dds/distributed.hpp"
#include "sim/engine.hpp"

namespace orv {
namespace {

TEST(Log, LevelGatesEmission) {
  const auto before = log::level();
  log::set_level(log::Level::Error);
  EXPECT_EQ(log::level(), log::Level::Error);
  // Emitting below the threshold must be a no-op (no crash, no output
  // observable here; we only exercise the path).
  log::emit(log::Level::Debug, "dropped");
  ORV_LOG(Info) << "also dropped " << 42;
  log::set_level(log::Level::Off);
  log::emit(log::Level::Error, "dropped too");
  log::set_level(before);
}

TEST(Strings, HumanSeconds) {
  EXPECT_EQ(human_seconds(1.2345), "1.234 s");
  EXPECT_EQ(human_seconds(0.0), "0.000 s");
}

TEST(Cluster, UtilizationReportListsEveryResource) {
  sim::Engine engine;
  ClusterSpec spec;
  spec.num_storage = 2;
  spec.num_compute = 2;
  Cluster cluster(engine, spec);
  auto proc = [](Cluster& c) -> sim::Task<> {
    co_await c.storage_disk(0).read(35e6);  // ~1 s
    co_await c.transfer_storage_to_compute(0, 1, 12.5e6);
  };
  engine.spawn(proc(cluster));
  engine.run();
  const std::string report = cluster.utilization_report();
  EXPECT_NE(report.find("sdisk0"), std::string::npos);
  EXPECT_NE(report.find("cdisk1"), std::string::npos);
  EXPECT_NE(report.find("scpu0"), std::string::npos);
  EXPECT_NE(report.find("ccpu1"), std::string::npos);
  EXPECT_NE(report.find("snic0"), std::string::npos);
  EXPECT_NE(report.find("switch"), std::string::npos);
  // The disk was busy ~half the run.
  EXPECT_NE(report.find("% busy"), std::string::npos);
}

TEST(Cluster, UtilizationReportSharedFs) {
  sim::Engine engine;
  ClusterSpec spec;
  spec.num_storage = 2;
  spec.num_compute = 1;
  spec.shared_filesystem = true;
  Cluster cluster(engine, spec);
  EXPECT_EQ(cluster.utilization_report(), "(no elapsed time)\n");
  auto proc = [](Cluster& c) -> sim::Task<> {
    co_await c.compute_disk(0).write(30e6);
  };
  engine.spawn(proc(cluster));
  engine.run();
  EXPECT_NE(cluster.utilization_report().find("nfs"), std::string::npos);
}

TEST(PageIndex, DistributedDdsReusesIndexAcrossQueries) {
  DatasetSpec spec;
  spec.grid = {8, 8, 8};
  spec.part1 = {4, 4, 4};
  spec.part2 = {4, 4, 4};
  spec.num_storage_nodes = 2;
  auto ds = generate_dataset(spec);
  sim::Engine engine;
  ClusterSpec cspec;
  cspec.num_storage = 2;
  cspec.num_compute = 2;
  Cluster cluster(engine, cspec);
  BdsService bds(cluster, ds.meta, ds.stores);
  DistributedDds dds(cluster, bds, ds.meta);

  const auto view = ViewDef::join(ViewDef::base(1), ViewDef::base(2),
                                  {"x", "y", "z"});
  const auto narrow = ViewDef::select(view, {{"x", {0, 3}}});
  dds.execute(*view);
  dds.execute(*narrow);  // range-pruned from the same cached index
  dds.execute(*view);
  EXPECT_EQ(dds.page_index().builds(), 1u);
  EXPECT_EQ(dds.page_index().hits(), 2u);
}

TEST(Hardware, ToStringMentionsKeyNumbers) {
  const auto s = HardwareProfile::paper_2006().to_string();
  EXPECT_NE(s.find("933"), std::string::npos);
  EXPECT_NE(s.find("100Mb/s"), std::string::npos);
  EXPECT_NE(s.find("512.00 MiB"), std::string::npos);
}

TEST(CostModel, BreakdownToStringShowsTerms) {
  CostParams p;
  p.T = 1e5;
  p.c_R = p.c_S = 1e3;
  p.n_e = 100;
  p.RS_R = p.RS_S = 16;
  p.net_bw = 1e7;
  p.read_io_bw = p.write_io_bw = 1e7;
  p.n_s = p.n_j = 2;
  p.alpha_build = p.alpha_lookup = 1e-7;
  const auto s = cost(Algorithm::GraceHash, p).to_string();
  EXPECT_NE(s.find("transfer="), std::string::npos);
  EXPECT_NE(s.find("write="), std::string::npos);
  EXPECT_NE(s.find("total="), std::string::npos);
}

}  // namespace
}  // namespace orv
