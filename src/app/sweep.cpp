#include "app/sweep.hpp"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>

#include "core/comparison.hpp"
#include "core/datatable.hpp"
#include "core/presets.hpp"
#include "core/report.hpp"
#include "routing/routing.hpp"

namespace dv::app {

namespace {

std::string format_scale(double scale) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "x%g", scale);
  return buf;
}

core::ProjectionSpec resolve_spec(const std::string& ref) {
  if (core::is_preset_ref(ref)) return core::preset_from_ref(ref);
  std::ifstream is(ref, std::ios::binary);
  DV_REQUIRE(is.good(), "cannot open spec: " + ref);
  std::ostringstream buf;
  buf << is.rdbuf();
  return core::ProjectionSpec::parse(buf.str());
}

/// --flow-coarsen trades per-terminal latency attribution away (terminals
/// of one router share a bundle's FIFO order), so a spec that visualizes
/// terminal avg_latency would silently render the router-smeared stand-in.
bool spec_uses_terminal_latency(const core::ProjectionSpec& spec) {
  const auto hit = [](const std::string& attr) {
    return attr == "avg_latency";
  };
  for (const auto& lv : spec.levels) {
    if (lv.entity != core::Entity::kTerminal) continue;
    if (hit(lv.vmap.color) || hit(lv.vmap.size) || hit(lv.vmap.x) ||
        hit(lv.vmap.y)) {
      return true;
    }
    for (const auto& a : lv.aggregate) {
      if (hit(a)) return true;
    }
    for (const auto& f : lv.filters) {
      if (hit(f.attr)) return true;
    }
  }
  return false;
}

}  // namespace

std::string sweep_point_name(const std::string& workload,
                             const std::string& routing, double scale,
                             Backend backend) {
  return workload + "-" + routing + "-" + format_scale(scale) + "-" +
         to_string(backend);
}

SweepResult run_sweep(const SweepConfig& cfg) {
  DV_REQUIRE(!cfg.workloads.empty(), "sweep needs at least one workload");
  DV_REQUIRE(!cfg.routings.empty(), "sweep needs at least one routing");
  DV_REQUIRE(!cfg.scales.empty(), "sweep needs at least one scale");
  DV_REQUIRE(!cfg.store_dir.empty(), "sweep needs a --store directory");
  for (const double s : cfg.scales) {
    DV_REQUIRE(s > 0.0, "sweep scales must be positive");
  }
  if (!cfg.report_path.empty() && cfg.base.flow_coarsen) {
    // Fail before simulating anything: the report would plot terminal
    // latency a coarsened run cannot attribute per terminal.
    DV_REQUIRE(!spec_uses_terminal_latency(resolve_spec(cfg.report_spec)),
               "sweep: --flow-coarsen cannot serve spec '" + cfg.report_spec +
                   "': it maps per-terminal avg_latency, which coarsened "
                   "runs only attribute per router (drop --flow-coarsen or "
                   "use a spec without terminal latency channels)");
  }

  metrics::RunStore store(cfg.store_dir);
  SweepResult out;
  const auto sweep_t0 = std::chrono::steady_clock::now();

  for (const std::string& workload : cfg.workloads) {
    for (const std::string& routing : cfg.routings) {
      for (const double scale : cfg.scales) {
        ExperimentConfig point = cfg.base;
        point.jobs.clear();
        JobSpec job;
        job.workload = workload;
        point.jobs.push_back(job);
        point.routing = routing::algo_from_string(routing);
        point.traffic_scale = scale;

        const ExperimentResult res = run_experiment(point);

        const std::string name =
            sweep_point_name(workload, routing, scale, cfg.base.backend);
        // Replace (not suffix) so re-sweeping the same grid is idempotent:
        // one atomic publish and one index save per point.
        const std::uint64_t uid = store.replace(res.run, name, cfg.format).uid;

        SweepPoint p;
        p.name = name;
        p.workload = workload;
        p.routing = routing;
        p.scale = scale;
        p.uid = uid;
        p.events = res.events;
        p.end_time = res.run.end_time;
        p.wall_seconds = res.wall_seconds;
        p.flow = res.flow;
        out.points.push_back(std::move(p));
      }
    }
  }

  if (!cfg.report_path.empty()) {
    // Reload every point from the store (what any later consumer would
    // read) and render them side by side under shared scales.
    std::vector<std::unique_ptr<metrics::RunMetrics>> runs;
    std::vector<std::unique_ptr<core::DataSet>> datasets;
    std::vector<const core::DataSet*> ptrs;
    std::vector<std::string> labels;
    for (const SweepPoint& p : out.points) {
      runs.push_back(
          std::make_unique<metrics::RunMetrics>(store.load(p.name)));
      datasets.push_back(std::make_unique<core::DataSet>(*runs.back()));
      ptrs.push_back(datasets.back().get());
      labels.push_back(p.name);
    }
    const core::ProjectionSpec spec = resolve_spec(cfg.report_spec);
    const core::ComparisonView cmp(ptrs, spec, labels);

    core::ReportBuilder report(cfg.report_title);
    std::string grid_desc =
        std::to_string(out.points.size()) + " points (" +
        std::to_string(cfg.workloads.size()) + " workloads x " +
        std::to_string(cfg.routings.size()) + " routings x " +
        std::to_string(cfg.scales.size()) + " scales), backend=" +
        to_string(cfg.base.backend) + ", store=" + cfg.store_dir;
    report.note("Sweep grid", grid_desc);
    std::string uid_lines;
    for (const SweepPoint& p : out.points) {
      uid_lines += p.name + " uid=" + std::to_string(p.uid) +
                   " end=" + std::to_string(p.end_time) + " ns; ";
    }
    report.note("Stored runs", uid_lines);
    report.comparison(cmp, "All sweep points under shared scales");
    report.save(cfg.report_path);
    out.report_path = cfg.report_path;
  }

  const auto sweep_t1 = std::chrono::steady_clock::now();
  out.wall_seconds =
      std::chrono::duration<double>(sweep_t1 - sweep_t0).count();
  return out;
}

}  // namespace dv::app
