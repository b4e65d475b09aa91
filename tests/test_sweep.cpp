// Sweep orchestrator tests: a small grid lands one packed run per point in
// the store, uids are distinct per point and reproducible across re-runs,
// re-sweeping is idempotent, and the comparison report references every
// stored run.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "app/sweep.hpp"
#include "metrics/dvr.hpp"
#include "metrics/run_store.hpp"

namespace dv::app {
namespace {

std::string temp_dir(const std::string& leaf) {
  const auto dir = (std::filesystem::temp_directory_path() / leaf).string();
  std::filesystem::remove_all(dir);
  return dir;
}

SweepConfig grid_config(const std::string& store_dir) {
  SweepConfig cfg;
  cfg.base.dragonfly_p = 2;
  cfg.base.window = 1.0e5;
  cfg.base.synthetic_bytes_per_rank = 8 * 1024;
  cfg.base.seed = 3;
  cfg.base.backend = Backend::kFlow;
  cfg.base.jobs.push_back(JobSpec{});  // overwritten per point
  cfg.workloads = {"uniform_random", "nearest_neighbor"};
  cfg.routings = {"adaptive"};
  cfg.scales = {0.5, 1.0};
  cfg.store_dir = store_dir;
  return cfg;
}

TEST(Sweep, GridProducesOneRunPerPoint) {
  const auto dir = temp_dir("dv_sweep_test_grid");
  const auto res = run_sweep(grid_config(dir));

  // 2 workloads x 1 routing x 2 scales.
  ASSERT_EQ(res.points.size(), 4u);
  metrics::RunStore store(dir);
  EXPECT_EQ(store.size(), 4u);

  std::set<std::uint64_t> uids;
  std::set<std::string> names;
  for (const auto& p : res.points) {
    EXPECT_TRUE(store.contains(p.name)) << p.name;
    EXPECT_EQ(store.info(p.name).uid, p.uid);
    EXPECT_NE(p.uid, 0u);
    uids.insert(p.uid);
    names.insert(p.name);
    EXPECT_GT(p.end_time, 0.0);
    // One packed .dvr per point, named after the point.
    EXPECT_TRUE(std::filesystem::exists(
        std::filesystem::path(dir) / (p.name + ".dvr")))
        << p.name;
    // The stored run reloads and echoes the point's configuration.
    const auto run = store.load(p.name);
    EXPECT_EQ(run.workload, p.workload);
    EXPECT_EQ(run.routing, p.routing);
  }
  // Every point is distinct content: distinct names AND distinct uids.
  EXPECT_EQ(uids.size(), 4u);
  EXPECT_EQ(names.size(), 4u);
  EXPECT_EQ(sweep_point_name("uniform_random", "adaptive", 0.5,
                             Backend::kFlow),
            "uniform_random-adaptive-x0.5-flow");
  std::filesystem::remove_all(dir);
}

TEST(Sweep, DeterministicAcrossRunsAndIdempotentInPlace) {
  const auto dir_a = temp_dir("dv_sweep_test_det_a");
  const auto dir_b = temp_dir("dv_sweep_test_det_b");
  const auto a = run_sweep(grid_config(dir_a));
  const auto b = run_sweep(grid_config(dir_b));

  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].name, b.points[i].name);
    // Same grid, same seeds: byte-identical packed runs -> equal uids.
    EXPECT_EQ(a.points[i].uid, b.points[i].uid) << a.points[i].name;
  }

  // Re-sweeping into an existing store replaces points in place: same
  // names, same uids, same store size (no _2 suffixes).
  const auto again = run_sweep(grid_config(dir_a));
  metrics::RunStore store(dir_a);
  EXPECT_EQ(store.size(), 4u);
  for (std::size_t i = 0; i < again.points.size(); ++i) {
    EXPECT_EQ(again.points[i].name, a.points[i].name);
    EXPECT_EQ(again.points[i].uid, a.points[i].uid);
  }
  std::filesystem::remove_all(dir_a);
  std::filesystem::remove_all(dir_b);
}

TEST(Sweep, ResweepReplacesEachPointInOnePublish) {
  const auto dir = temp_dir("dv_sweep_test_replace");
  const auto first = run_sweep(grid_config(dir));
  // A different seed changes every point's content, so each re-swept
  // point must land under its old name with a new uid.
  auto cfg = grid_config(dir);
  cfg.base.seed = 4;
  const auto second = run_sweep(cfg);
  ASSERT_EQ(second.points.size(), first.points.size());

  const metrics::RunStore store(dir);
  ASSERT_EQ(store.size(), second.points.size());
  for (std::size_t i = 0; i < second.points.size(); ++i) {
    const auto& p = second.points[i];
    EXPECT_EQ(p.name, first.points[i].name);
    EXPECT_NE(p.uid, first.points[i].uid) << p.name;
    EXPECT_EQ(store.info(p.name).uid, p.uid) << p.name;
    EXPECT_EQ(metrics::run_content_uid(store.load(p.name)), p.uid) << p.name;
  }
  std::set<std::string> names;
  for (const auto& info : store.list()) names.insert(info.name);
  EXPECT_EQ(names.size(), store.size());  // one entry per point
  // Every publish renamed its temp file away: only the runs and the index.
  std::size_t files = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    EXPECT_NE(e.path().extension(), ".tmp") << e.path();
    ++files;
  }
  EXPECT_EQ(files, store.size() + 1);
  std::filesystem::remove_all(dir);
}

TEST(Sweep, ComparisonReportReferencesEveryRun) {
  const auto dir = temp_dir("dv_sweep_test_report");
  auto cfg = grid_config(dir);
  cfg.report_path = dir + "/report.html";
  const auto res = run_sweep(cfg);
  ASSERT_EQ(res.report_path, cfg.report_path);

  std::ifstream is(cfg.report_path);
  ASSERT_TRUE(is.good());
  std::ostringstream buf;
  buf << is.rdbuf();
  const std::string html = buf.str();
  for (const auto& p : res.points) {
    EXPECT_NE(html.find(p.name), std::string::npos) << p.name;
    EXPECT_NE(html.find("uid=" + std::to_string(p.uid)), std::string::npos)
        << p.name;
  }
  EXPECT_NE(html.find("<svg"), std::string::npos);  // comparison panels
  std::filesystem::remove_all(dir);
}

TEST(Sweep, CoarsenedSweepRejectsTerminalLatencySpecsBeforeSimulating) {
  // fig4 maps per-terminal avg_latency, which a coarsened run can only
  // attribute per router — the sweep must refuse up front, before burning
  // any simulation time (the store directory is never even created).
  auto cfg = grid_config(temp_dir("dv_sweep_test_coarse_spec"));
  cfg.base.flow_coarsen = true;
  cfg.report_path = cfg.store_dir + "/report.html";
  cfg.report_spec = "preset:fig4";
  EXPECT_THROW(run_sweep(cfg), Error);
  EXPECT_FALSE(std::filesystem::exists(cfg.store_dir));

  // The default overview spec carries no terminal latency channel, so the
  // same coarsened grid sweeps fine — and records solver telemetry.
  cfg.report_spec = "preset:overview";
  const auto res = run_sweep(cfg);
  ASSERT_EQ(res.points.size(), 4u);
  for (const auto& p : res.points) {
    EXPECT_GT(p.flow.epochs, 0u) << p.name;
    EXPECT_GT(p.flow.solves, 0u) << p.name;
  }
  std::filesystem::remove_all(cfg.store_dir);
}

TEST(Sweep, ValidatesConfiguration) {
  auto cfg = grid_config(temp_dir("dv_sweep_test_validate"));
  cfg.workloads.clear();
  EXPECT_THROW(run_sweep(cfg), Error);
  cfg = grid_config(cfg.store_dir);
  cfg.scales = {0.0};
  EXPECT_THROW(run_sweep(cfg), Error);
  cfg = grid_config(cfg.store_dir);
  cfg.store_dir.clear();
  EXPECT_THROW(run_sweep(cfg), Error);
  cfg = grid_config(temp_dir("dv_sweep_test_validate"));
  cfg.routings = {"not_a_routing"};
  EXPECT_THROW(run_sweep(cfg), Error);
  std::filesystem::remove_all(cfg.store_dir);
}

}  // namespace
}  // namespace dv::app
