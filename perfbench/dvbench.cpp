// dvbench — the measuring half of the end-to-end benchmark (run.py builds
// and drives it). One invocation runs one named workload for a fixed time
// through the public functions of each dragonviz module and prints one JSON
// document on stdout:
//
//   packet_seq     DF(5) uniform_random, adaptive, x4, 2 us sampling,
//                  sequential engine: config -> verified .dvr, repeated
//   packet_par4    the same design point on 4 partitions (seq == par uid)
//   flow_sweep     run_sweep over a 12-point DF(5) grid on the flow backend
//   serve_explore  an in-process Server lazily attaching a store of runs,
//                  driven by closed-loop clients replaying brushing sessions
//
// All timings are host wall time (steady_clock). Simulated quantities are
// reported as exact values under "simulated". Correctness gates are checked
// inline; a failed gate marks the operation failed and the run incorrect.
//
// Usage: dvbench --workload W --seed N --seconds S --trace 0|1 --work DIR
//                [--trace-out FILE] [--smoke] [--corrupt]
#include <sys/resource.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "app/runner.hpp"
#include "app/sweep.hpp"
#include "core/datatable.hpp"
#include "core/presets.hpp"
#include "core/projection.hpp"
#include "core/query.hpp"
#include "metrics/dvr.hpp"
#include "metrics/run_store.hpp"
#include "obs/obs.hpp"
#include "obs/profile.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace fs = std::filesystem;
using namespace dv;

namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point kEpoch = Clock::now();

double now_s() {
  return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

// ------------------------------------------------------------------ args

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work;       ///< scratch directory for stores and runs
  std::string trace_out;  ///< span file written at exit (trace runs)
  bool smoke = false;     ///< tiny sizes: DF(2), short runs
  bool corrupt = false;   ///< flip a payload byte before each read-back
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto val = [&]() -> std::string {
      if (i + 1 >= argc) throw Error("missing value for " + k);
      return argv[++i];
    };
    if (k == "--workload") a.workload = val();
    else if (k == "--seed") a.seed = std::stoull(val());
    else if (k == "--seconds") a.seconds = std::stod(val());
    else if (k == "--trace") a.trace = val() != "0";
    else if (k == "--work") a.work = val();
    else if (k == "--trace-out") a.trace_out = val();
    else if (k == "--smoke") a.smoke = true;
    else if (k == "--corrupt") a.corrupt = true;
    else throw Error("unknown argument: " + k);
  }
  if (a.work.empty()) throw Error("--work DIR is required");
  return a;
}

// ----------------------------------------------------------------- spans

// In-memory span recorder at the benchmark's own call boundaries. Every
// Span also works as a stopwatch, so untraced runs time the same calls
// without recording anything.
struct SpanRec {
  std::string name;
  std::string layer;
  double t0 = 0.0, t1 = 0.0;
  std::int64_t parent = -1;
  std::uint64_t req = 0;
};

class Tracer {
 public:
  std::atomic<bool> on{false};

  std::int64_t open(const std::string& name, const char* layer,
                    std::int64_t parent, std::uint64_t req, double t0) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, layer, t0, t0, parent, req});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }
  void close(std::int64_t id, double t1) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].t1 = t1;
  }
  const std::vector<SpanRec>& spans() const { return spans_; }

 private:
  std::mutex mu_;
  std::vector<SpanRec> spans_;
};

Tracer g_tracer;
thread_local std::int64_t t_parent = -1;
thread_local std::uint64_t t_req = 0;

class Span {
 public:
  Span(const char* layer, const std::string& name) : t0_(now_s()) {
    if (g_tracer.on.load(std::memory_order_relaxed)) {
      id_ = g_tracer.open(name, layer, t_parent, t_req, t0_);
      prev_ = t_parent;
      t_parent = id_;
    }
  }
  ~Span() { stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the span (idempotent) and returns its duration in seconds.
  double stop() {
    if (t1_ < 0) {
      t1_ = now_s();
      if (id_ >= 0) {
        g_tracer.close(id_, t1_);
        t_parent = prev_;
      }
    }
    return t1_ - t0_;
  }

 private:
  double t0_;
  double t1_ = -1.0;
  std::int64_t id_ = -1;
  std::int64_t prev_ = -1;
};

/// Self time per layer: each span's duration minus the part of it covered
/// by its children (children clipped to the parent, overlaps merged).
std::map<std::string, double> self_time_by_layer(
    const std::vector<SpanRec>& spans) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const auto& s : spans) {
    if (s.parent < 0) continue;
    const auto& p = spans[static_cast<std::size_t>(s.parent)];
    const double a = std::max(s.t0, p.t0), b = std::min(s.t1, p.t1);
    if (b > a) kids[static_cast<std::size_t>(s.parent)].emplace_back(a, b);
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0, cur0 = 0.0, cur1 = -1.0;
    for (const auto& [a, b] : iv) {
      if (a > cur1) {
        if (cur1 > cur0) covered += cur1 - cur0;
        cur0 = a;
        cur1 = b;
      } else {
        cur1 = std::max(cur1, b);
      }
    }
    if (cur1 > cur0) covered += cur1 - cur0;
    out[spans[i].layer] += std::max(0.0, spans[i].t1 - spans[i].t0 - covered);
  }
  return out;
}

/// Chrome trace-event JSON ("X" complete events, microseconds), loadable
/// in Perfetto / chrome://tracing.
void write_spans(const std::vector<SpanRec>& spans, const std::string& path) {
  std::ofstream os(path);
  os << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":%llu,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%lld,\"req\":%llu}}%s\n",
                  s.name.c_str(), s.layer.c_str(),
                  static_cast<unsigned long long>(s.req % 64), s.t0 * 1e6,
                  (s.t1 - s.t0) * 1e6, i, static_cast<long long>(s.parent),
                  static_cast<unsigned long long>(s.req),
                  i + 1 < spans.size() ? "," : "");
    os << buf;
  }
  os << "]}\n";
}

// ---------------------------------------------------------- small helpers

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (q in (0, 1]).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

/// Per-run statistic that co-tenant load on a shared host cannot shift
/// much. That load only ever slows work down (a packet point by up to
/// 1.5x), and it comes and goes within a run. So a metric's samples are
/// grouped into time slices (one point, one sweep, or kServeSliceRounds
/// serve rounds), each slice is summarized by its median, and the run
/// reports its best slice.
class Slices {
 public:
  void add(double v) { cur_.push_back(v); }
  /// Ends the current slice (no-op when it is empty).
  void close() {
    if (!cur_.empty()) done_.push_back(median(cur_));
    cur_.clear();
  }
  double lowest() const { return best(false); }
  double highest() const { return best(true); }
  std::size_t count() const { return done_.size(); }
  /// Summary of the last closed slice (0 before the first).
  double last() const { return done_.empty() ? 0.0 : done_.back(); }

 private:
  double best(bool high) const {
    if (done_.empty()) return median(cur_);  // a run shorter than one slice
    return high ? *std::max_element(done_.begin(), done_.end())
                : *std::min_element(done_.begin(), done_.end());
  }
  std::vector<double> cur_, done_;
};

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // KiB -> MB
}

double phase_seconds(const obs::RunProfile& p, const std::string& path) {
  for (const auto& ph : p.phases) {
    if (ph.path == path) return ph.seconds;
  }
  return 0.0;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// Flips one byte in the middle of the largest-valued f64 global-link
/// column of a .dvr file (link traffic): a silent corruption the format's
/// structure checks cannot see, so only the content gates catch it.
void corrupt_dvr(const std::string& path) {
  std::uint64_t off = 0;
  double best = 0.0;
  {
    const metrics::DvrFile f(path);
    for (const auto& c : f.chunks()) {
      if (c.section == static_cast<std::uint16_t>(
                           metrics::DvrSection::kGlobalLinks) &&
          c.dtype == static_cast<std::uint16_t>(metrics::DvrType::kF64) &&
          c.bytes >= 16 && c.zmax > best) {
        best = c.zmax;
        off = c.offset + (c.bytes / 2 / 8) * 8 + 6;
      }
    }
  }
  DV_CHECK(off != 0, "corrupt: no nonzero global-link column in " + path);
  std::fstream fsx(path, std::ios::in | std::ios::out | std::ios::binary);
  fsx.seekg(static_cast<std::streamoff>(off));
  char b = 0;
  fsx.read(&b, 1);
  b = static_cast<char>(b ^ 0x5a);
  fsx.seekp(static_cast<std::streamoff>(off));
  fsx.write(&b, 1);
}

// ---------------------------------------------------------------- results

/// Everything one invocation reports, serialized as one JSON object.
struct Report {
  std::map<std::string, double> e2e;    ///< end-to-end metrics (untraced)
  std::map<std::string, double> layer;  ///< per-layer metrics (traced)
  std::map<std::string, double> info;   ///< sample counts and other facts
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  struct Gate {
    std::string name;
    std::uint64_t checks = 0;
    std::uint64_t failures = 0;
    std::string first_failure;
  };
  std::vector<Gate> gates;
  std::vector<std::string> simulated;  ///< pre-serialized JSON objects

  /// Records one check of a named gate; returns `ok`.
  bool gate(const std::string& name, bool ok, const std::string& detail = "") {
    auto it = std::find_if(gates.begin(), gates.end(),
                           [&](const Gate& g) { return g.name == name; });
    if (it == gates.end()) {
      gates.push_back({name, 0, 0, ""});
      it = gates.end() - 1;
    }
    ++it->checks;
    if (!ok) {
      if (it->failures++ == 0) it->first_failure = detail;
    }
    return ok;
  }
  bool correct() const {
    for (const auto& g : gates) {
      if (g.failures) return false;
    }
    return failed == 0 && attempted > 0;
  }
};

// Workload bits for the per-layer table below.
enum : unsigned {
  kSeq = 1u,
  kPar = 2u,
  kFlow = 4u,
  kServe = 8u,
  kPacket = kSeq | kPar,
  kAll = kSeq | kPar | kFlow | kServe,
};

/// Every per-layer metric (the per_layer list of BENCHMARK.json) and the
/// workloads that measure it. A traced run emits all of them: 0 for those
/// its workload does not measure. A name a workload measures but never set,
/// or a name not in this table, fails the run.
struct LayerMetric {
  const char* name;
  unsigned workloads;
};
constexpr LayerMetric kLayerMetrics[] = {
    {"pdes.events", kPacket},
    {"pdes.events_per_s", kPacket},
    {"pdes.sched.heap_share", kPacket},
    {"pdes.par.rounds", kPar},
    {"pdes.par.events_per_round", kPar},
    {"pdes.par.stall_share", kPar},
    {"pdes.par.busy_s", kPar},
    {"pdes.par.wait_s", kPar},
    {"pdes.par.work_inflation", kPar},
    {"netsim.cut_channels", kPar},
    {"netsim.sim_s", kPacket},
    {"netsim.sample_s", kPacket},
    {"netsim.collect_s", kPacket},
    {"flow.sim_s", kFlow},
    {"flow.solve_s", kFlow},
    {"flow.solves", kFlow},
    {"flow.incremental_share", kFlow},
    {"flow.solver_rounds", kFlow},
    {"flow.epochs", kFlow},
    {"flow.drain_events", kFlow},
    {"metrics.uid_s", kPacket | kFlow},
    {"metrics.pack_s", kPacket | kFlow},
    {"metrics.bytes_written", kPacket | kFlow},
    {"app.store_add_s", kFlow},
    {"metrics.open_s", kServe},
    {"metrics.load_s", kPacket | kServe},
    {"metrics.chunks_read", kServe},
    {"metrics.chunk_bytes_read", kServe},
    {"metrics.chunks_pruned", kServe},
    {"core.dataset_s", kServe},
    {"core.slab_build_s", kServe},
    {"core.aggregate_s", kServe},
    {"core.layout_s", kServe},
    {"core.svg_s", kServe},
    {"core.cache_hit_ratio", kServe},
    {"serve.use_p50_ms", kServe},
    {"serve.window_p50_ms", kServe},
    {"serve.brush_p50_ms", kServe},
    {"serve.render_p50_ms", kServe},
    {"serve.load_p50_ms", kServe},
    {"serve.stats_p50_ms", kServe},
    {"serve.render_p99_ms", kServe},
    {"serve.render_samples", kServe},
    {"serve.coalesced", kServe},
    {"serve.errors", kServe},
    {"serve.queue_depth_max", kServe},
    {"self.bench_s", kAll},
    {"self.app_s", kPacket | kFlow},
    {"self.metrics_s", kAll},
    {"self.core_s", kServe},
    {"self.serve_s", kServe},
    {"trace.overhead_ms", kAll},
    {"trace.traced_ops", kAll},
    {"trace.spans", kAll},
};

/// Checks a traced run's per-layer map against kLayerMetrics and fills in
/// the metrics `workload` does not measure. Returns the measured names.
std::vector<std::string> finish_layers(std::map<std::string, double>& layer,
                                       unsigned workload) {
  std::vector<std::string> measured;
  for (const auto& [name, v] : layer) {
    const bool known = std::any_of(
        std::begin(kLayerMetrics), std::end(kLayerMetrics),
        [&](const LayerMetric& m) { return name == m.name; });
    DV_CHECK(known, "per-layer metric not in the table: " + name);
  }
  for (const auto& m : kLayerMetrics) {
    if (m.workloads & workload) {
      DV_CHECK(layer.count(m.name),
               std::string("per-layer metric not measured: ") + m.name);
      measured.emplace_back(m.name);
    } else {
      DV_CHECK(!layer.count(m.name),
               std::string("per-layer metric set by a workload that does "
                           "not own it: ") + m.name);
      layer[m.name] = 0.0;
    }
  }
  return measured;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quote(const std::string& s) {
  std::string o = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      o += ' ';
      continue;
    }
    o += c;
  }
  return o + "\"";
}

std::string obj(const std::map<std::string, double>& m) {
  std::string o = "{";
  for (const auto& [k, v] : m) {
    if (o.size() > 1) o += ",";
    o += quote(k) + ":" + num(v);
  }
  return o + "}";
}

/// Simulated statistics of one run — exact model outputs, never gated.
std::string simulated_json(const std::string& label,
                           const metrics::RunMetrics& run, std::uint64_t uid) {
  std::uint64_t pk = 0;
  double lat = 0.0;
  for (const auto& t : run.terminals) {
    pk += t.packets_finished;
    lat += t.sum_latency;
  }
  std::ostringstream os;
  os << "{\"label\":" << quote(label) << ",\"uid\":" << quote(hex(uid))
     << ",\"end_time_ns\":" << num(run.end_time)
     << ",\"packets_finished\":" << pk
     << ",\"mean_latency_ns\":" << num(pk ? lat / static_cast<double>(pk) : 0)
     << ",\"local_traffic_bytes\":" << num(run.total_local_traffic())
     << ",\"global_traffic_bytes\":" << num(run.total_global_traffic())
     << ",\"terminal_traffic_bytes\":" << num(run.total_terminal_traffic())
     << "}";
  return os.str();
}

/// Set-up repetitions per run.
constexpr int kSetups = 5;

/// Runs `fn` `reps` times (each a fresh set-up). setup_s is the fastest
/// one, for the same reason the timed loop reports its best slice: host
/// load only ever slows a set-up down.
template <typename Fn>
void timed_setups(Report& rep, int reps, Fn fn) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const double t0 = now_s();
    fn();
    t.push_back(now_s() - t0);
  }
  rep.e2e["setup_s"] = *std::min_element(t.begin(), t.end());
  rep.info["setup_reps"] = reps;
  rep.info["setup_p50_s"] = median(t);
}

/// Alternates traced and untraced operations in a trace run: the median
/// difference between the two halves is the tracing overhead.
struct TraceSplit {
  std::vector<double> traced_ms, plain_ms;
  void add(bool traced, double ms) {
    (traced ? traced_ms : plain_ms).push_back(ms);
  }
  void report(Report& rep) const {
    rep.layer["trace.overhead_ms"] = median(traced_ms) - median(plain_ms);
    rep.layer["trace.traced_ops"] = static_cast<double>(traced_ms.size());
  }
};

// ------------------------------------------------------- packet workloads

app::ExperimentConfig packet_config(const Args& a, std::uint32_t parallel) {
  app::ExperimentConfig cfg;
  cfg.dragonfly_p = a.smoke ? 2 : 5;
  cfg.jobs = {{"uniform_random", 0, placement::Policy::kContiguous, 0}};
  cfg.routing = routing::Algo::kAdaptive;
  cfg.traffic_scale = a.smoke ? 1.0 : 4.0;
  cfg.sample_dt = 2000.0;  // 2 us
  cfg.seed = a.seed;
  cfg.parallel = parallel;
  return cfg;
}

void run_packet(const Args& a, std::uint32_t parallel, Report& rep) {
  const std::string dir = a.work + "/packet";
  fs::create_directories(dir);

  // Set-up: the sequential reference run of the same design point. Its uid
  // is the oracle for every timed point (determinism; seq == par). On 4
  // partitions a set-up also runs one parallel warm-up point, so setup_s
  // there is the parallel workload's own figure; it costs ~3x a sequential
  // set-up, hence fewer repetitions.
  std::vector<std::uint64_t> ref_uids, warm_uids;
  std::vector<double> ref_sim_s;
  metrics::RunMetrics ref_run;
  timed_setups(rep, parallel > 1 ? 3 : kSetups, [&] {
    obs::reset();
    auto res = app::run_experiment(packet_config(a, 1));
    ref_uids.push_back(metrics::run_content_uid(res.run));
    const double sim = phase_seconds(res.profile, "sim");
    ref_sim_s.push_back(sim > 0 ? sim : res.wall_seconds);
    ref_run = std::move(res.run);
    if (parallel > 1) {
      warm_uids.push_back(metrics::run_content_uid(
          app::run_experiment(packet_config(a, parallel)).run));
    }
  });
  for (const auto u : ref_uids) {
    rep.gate("setup reference runs agree", u == ref_uids[0], hex(u));
  }
  const std::uint64_t ref_uid = ref_uids[0];
  for (const auto u : warm_uids) {
    rep.gate("setup parallel warm-up uid == sequential setup uid",
             u == ref_uid, hex(u) + " vs " + hex(ref_uid));
  }
  rep.simulated.push_back(simulated_json("reference (sequential)", ref_run,
                                         ref_uid));
  ref_run = metrics::RunMetrics();

  const app::ExperimentConfig cfg = packet_config(a, parallel);
  std::vector<double> point_ms, mb;
  Slices op, rate, open;  // one slice per point
  std::map<std::string, std::vector<double>> L;  // per-layer, per point
  TraceSplit split;
  const std::string path = dir + "/point.dvr";
  const double deadline = now_s() + a.seconds;
  for (std::uint64_t i = 0; now_s() < deadline || i < 2; ++i) {
    const bool traced = a.trace && i % 2 == 0;
    g_tracer.on = traced;
    t_req = i + 1;
    ++rep.attempted;
    bool ok = true;
    try {
      obs::reset();
      Span point("bench", "point");
      app::ExperimentResult res;
      {
        Span s("app", "run_experiment");
        res = app::run_experiment(cfg);
      }
      Span su("metrics", "run_content_uid");
      const std::uint64_t uid = metrics::run_content_uid(res.run);
      const double uid_s = su.stop();
      Span sp("metrics", "save_dvr");
      metrics::save_dvr(res.run, path);
      const double pack_s = sp.stop();
      if (a.corrupt) corrupt_dvr(path);
      Span so("metrics", "read_back");
      metrics::RunMetrics back;
      double load_s = 0.0;
      {
        Span sl("metrics", "load_dvr");
        back = metrics::load_dvr(path);
        load_s = sl.stop();
      }
      std::uint64_t back_uid = 0;
      {
        Span sb("metrics", "run_content_uid");
        back_uid = metrics::run_content_uid(back);
      }
      const double open_s = so.stop();
      const double total_s = point.stop();

      ok &= rep.gate("point uid == uid read back through load_dvr",
                     back_uid == uid, hex(uid) + " vs " + hex(back_uid));
      ok &= rep.gate(parallel > 1 ? "parallel uid == sequential setup uid"
                                  : "point uid == sequential setup uid",
                     uid == ref_uid, hex(uid) + " vs " + hex(ref_uid));
      if (i == 0) {
        rep.simulated.push_back(simulated_json(
            parallel > 1 ? "timed point (4 partitions)" : "timed point",
            res.run, uid));
      }
      const double bytes = static_cast<double>(fs::file_size(path));
      // Events per second of the whole point, so rate_per_s is a fixed
      // multiple of 1/op_ms here. The event loop's own rate is the
      // per-layer pdes.events_per_s: it is the part of a point host load
      // slows most (up to 2x against 1.5x for the point), too noisy for a
      // bound.
      const double sim_rate =
          static_cast<double>(res.events) / res.wall_seconds;
      point_ms.push_back(total_s * 1e3);
      op.add(total_s * 1e3);
      rate.add(static_cast<double>(res.events) / total_s);
      open.add(open_s * 1e3);
      op.close();
      rate.close();
      open.close();
      mb.push_back(bytes / 1e6);
      split.add(traced, total_s * 1e3);
      std::fprintf(stderr, "point %llu: %.1f ms (sim %.3f s, %.0f ev/s)\n",
                   static_cast<unsigned long long>(i), total_s * 1e3,
                   res.wall_seconds, sim_rate);

      const auto& p = res.profile;
      const char* eng = parallel > 1 ? "par" : "sim";
      const double heap = static_cast<double>(
          p.counter_value(std::string(eng) + ".sched.heap_pushes"));
      const double bucket = static_cast<double>(
          p.counter_value(std::string(eng) + ".sched.bucket_pushes"));
      L["pdes.events"].push_back(static_cast<double>(res.events));
      L["pdes.events_per_s"].push_back(sim_rate);
      L["pdes.sched.heap_share"].push_back(
          heap + bucket > 0 ? heap / (heap + bucket) : 0.0);
      if (parallel > 1) {
        double busy = 0.0;
        for (std::uint32_t w = 0; w < res.partitions; ++w) {
          busy += p.gauge_value("par.worker" + std::to_string(w) +
                                ".busy_seconds");
        }
        const double rounds =
            static_cast<double>(p.counter_value("par.window.rounds"));
        const double stalls =
            static_cast<double>(p.counter_value("par.window.stalls"));
        L["pdes.par.rounds"].push_back(rounds);
        L["pdes.par.events_per_round"].push_back(
            rounds > 0 ? static_cast<double>(res.events) / rounds : 0.0);
        L["pdes.par.stall_share"].push_back(rounds > 0 ? stalls / rounds
                                                       : 0.0);
        L["pdes.par.busy_s"].push_back(busy);
        L["pdes.par.wait_s"].push_back(
            p.gauge_value("par.barrier_wait_seconds"));
        L["pdes.par.work_inflation"].push_back(busy / median(ref_sim_s));
        L["netsim.cut_channels"].push_back(static_cast<double>(
            p.counter_value("par.partition.cut_channels")));
      }
      L["netsim.sim_s"].push_back(phase_seconds(p, "sim"));
      L["netsim.sample_s"].push_back(phase_seconds(p, "sim/sample"));
      L["netsim.collect_s"].push_back(phase_seconds(p, "collect"));
      L["metrics.uid_s"].push_back(uid_s);
      L["metrics.pack_s"].push_back(pack_s);
      L["metrics.bytes_written"].push_back(bytes);
      L["metrics.load_s"].push_back(load_s);
    } catch (const std::exception& e) {
      ok = rep.gate("point completes without error", false, e.what());
    }
    if (!ok) ++rep.failed;
  }
  g_tracer.on = false;
  fs::remove(path);

  rep.e2e["op_ms"] = op.lowest();
  rep.e2e["rate_per_s"] = rate.highest();
  rep.e2e["open_ms"] = open.lowest();
  rep.e2e["run_mb"] = median(mb);
  rep.info["points"] = static_cast<double>(point_ms.size());
  rep.info["point_p50_ms"] = median(point_ms);
  for (const auto& [k, v] : L) rep.layer[k] = median(v);
  if (a.trace) split.report(rep);
}

// ------------------------------------------------------------ flow sweep

app::SweepConfig sweep_config(const Args& a, const std::string& store) {
  app::SweepConfig sc;
  sc.base.dragonfly_p = a.smoke ? 2 : 5;
  sc.base.backend = app::Backend::kFlow;
  sc.base.sample_dt = 10000.0;  // 10 us
  sc.base.seed = a.seed;
  sc.workloads = {"uniform_random", "transpose", "nearest_neighbor"};
  sc.routings = {"minimal", "adaptive"};
  sc.scales = {1.0, 4.0};
  sc.store_dir = store;
  sc.format = metrics::StoreFormat::kPacked;
  return sc;
}

void run_flow_sweep(const Args& a, Report& rep) {
  const std::string store = a.work + "/flow_store";
  const std::string ref_store = a.work + "/flow_ref";
  const std::string replay = a.work + "/flow_replay";

  // Set-up: re-sweep one grid point on its own (uniform_random, adaptive,
  // x4) into a separate store; every timed sweep must reproduce its uid.
  std::vector<std::uint64_t> ref_uids;
  timed_setups(rep, kSetups, [&] {
    fs::remove_all(ref_store);
    auto sc = sweep_config(a, ref_store);
    sc.workloads = {"uniform_random"};
    sc.routings = {"adaptive"};
    sc.scales = {4.0};
    ref_uids.push_back(app::run_sweep(sc).points.at(0).uid);
  });
  for (const auto u : ref_uids) {
    rep.gate("setup reference re-sweeps agree", u == ref_uids[0], hex(u));
  }
  const std::string ref_name = app::sweep_point_name(
      "uniform_random", "adaptive", 4.0, app::Backend::kFlow);

  const auto sc = sweep_config(a, store);
  std::vector<double> sweep_ms, mb;
  Slices op, rate, open;  // one slice per sweep
  std::map<std::string, std::vector<double>> L;
  std::map<std::string, std::uint64_t> first_uids;
  TraceSplit split;
  const double deadline = now_s() + a.seconds;
  for (std::uint64_t i = 0; now_s() < deadline || i < 2; ++i) {
    const bool traced = a.trace && i % 2 == 0;
    g_tracer.on = traced;
    t_req = i + 1;
    app::SweepResult res;
    double total_s = 0.0;
    try {
      obs::reset();
      Span sw("bench", "sweep");
      {
        Span s("app", "run_sweep");
        res = app::run_sweep(sc);
      }
      total_s = sw.stop();
    } catch (const std::exception& e) {
      ++rep.attempted;
      ++rep.failed;
      rep.gate("sweep completes without error", false, e.what());
      continue;
    }
    const obs::RunProfile prof = obs::capture();
    sweep_ms.push_back(total_s * 1e3);
    op.add(total_s * 1e3);
    op.close();
    split.add(traced, total_s * 1e3);

    // Verification (untimed): every point round-trips through load_dvr to
    // the uid the store index recorded, and repeats across sweeps.
    const metrics::RunStore st(store);
    double events = 0.0, bytes = 0.0;
    double uid_s = 0.0, pack_s = 0.0, add_s = 0.0;
    app::FlowTelemetry ft;
    for (const auto& p : res.points) {
      ++rep.attempted;
      bool ok = true;
      try {
        const std::string path = st.path(p.name);
        if (a.corrupt) corrupt_dvr(path);
        bytes += static_cast<double>(fs::file_size(path));
        Span so("metrics", "read_back");
        metrics::RunMetrics back = metrics::load_dvr(path);
        const std::uint64_t uid = metrics::run_content_uid(back);
        open.add(so.stop() * 1e3);
        ok &= rep.gate("sweep point round-trips through load_dvr",
                       uid == p.uid, p.name);
        auto [it, fresh] = first_uids.emplace(p.name, p.uid);
        ok &= rep.gate("repeated sweeps reproduce every point uid",
                       it->second == p.uid, p.name);
        if (p.name == ref_name) {
          ok &= rep.gate("re-swept point reproduces its grid uid",
                         p.uid == ref_uids[0], p.name);
        }
        if (fresh) rep.simulated.push_back(simulated_json(p.name, back, p.uid));
        if (traced) {
          // Replays the store publish of this point outside run_sweep so
          // its metrics-layer cost can be split out.
          fs::create_directories(replay);
          Span su("metrics", "run_content_uid");
          (void)metrics::run_content_uid(back);
          uid_s += su.stop();
          Span sp("metrics", "save_dvr");
          metrics::save_dvr(back, replay + "/point.dvr");
          pack_s += sp.stop();
          metrics::RunStore rs(replay);
          if (rs.contains(p.name)) rs.remove(p.name);
          Span sa("app", "store_add");
          rs.add(back, p.name, metrics::StoreFormat::kPacked);
          add_s += sa.stop();
        }
      } catch (const std::exception& e) {
        ok = rep.gate("sweep point verifies without error", false, e.what());
      }
      if (!ok) ++rep.failed;
      events += static_cast<double>(p.events);
      ft.epochs += p.flow.epochs;
      ft.solves += p.flow.solves;
      ft.incremental_solves += p.flow.incremental_solves;
      ft.solver_rounds += p.flow.solver_rounds;
      ft.drain_events += p.flow.drain_events;
    }
    open.close();
    // Epochs per second of the whole sweep, a fixed multiple of 1/op_ms
    // (see run_packet for why not the simulation's own rate).
    rate.add(events / total_s);
    rate.close();
    mb.push_back(bytes / 1e6 / static_cast<double>(res.points.size()));
    L["flow.sim_s"].push_back(phase_seconds(prof, "sim"));
    L["flow.solve_s"].push_back(phase_seconds(prof, "sim/ev.solve_full") +
                                phase_seconds(prof, "sim/ev.solve_drained"));
    L["flow.solves"].push_back(static_cast<double>(ft.solves));
    L["flow.incremental_share"].push_back(
        ft.solves ? static_cast<double>(ft.incremental_solves) /
                        static_cast<double>(ft.solves)
                  : 0.0);
    L["flow.solver_rounds"].push_back(static_cast<double>(ft.solver_rounds));
    L["flow.epochs"].push_back(static_cast<double>(ft.epochs));
    L["flow.drain_events"].push_back(static_cast<double>(ft.drain_events));
    L["metrics.bytes_written"].push_back(bytes);
    if (traced) {
      L["metrics.uid_s"].push_back(uid_s);
      L["metrics.pack_s"].push_back(pack_s);
      L["app.store_add_s"].push_back(add_s);
    }
  }
  g_tracer.on = false;

  rep.e2e["op_ms"] = op.lowest();
  rep.e2e["rate_per_s"] = rate.highest();
  rep.e2e["open_ms"] = open.lowest();
  rep.e2e["run_mb"] = median(mb);
  rep.info["sweeps"] = static_cast<double>(sweep_ms.size());
  rep.info["sweep_p50_ms"] = median(sweep_ms);
  rep.info["points_per_sweep"] = 12;
  for (const auto& [k, v] : L) rep.layer[k] = median(v);
  if (a.trace) split.report(rep);
}

// --------------------------------------------------------- serve explore

/// One view a client rendered, remembered for the post-run gates.
struct ViewRecord {
  std::string run;
  core::TimeWindow window;
  bool brushed = false;
  std::uint64_t svg_hash = 0;
  std::size_t svg_size = 0;
};

struct ClientLog {
  std::map<std::string, std::vector<double>> verb_ms;
  std::vector<ViewRecord> fresh;  ///< fresh views this client rendered
  std::vector<double> fresh_ms;   ///< their client-observed latencies
  double queue_depth_max = 0.0;
  std::uint64_t attempted = 0, failed = 0;
  std::string first_error;
};

constexpr const char* kBrushAxis = "traffic";
constexpr double kBrushLo = 1.0;  // bytes: hides idle links

json::Value render_params(const std::string& run, const core::TimeWindow* w) {
  json::Object p;
  p["run"] = json::Value(run);
  p["spec"] = json::Value("preset:overview");
  if (w) {
    p["window"] = json::Value(json::Array{json::Value(w->t0),
                                          json::Value(w->t1)});
  }
  return json::Value(std::move(p));
}

/// The direct core path for one view: what the daemon must reproduce byte
/// for byte (same spec, window and brush resolution as verb_render).
std::string direct_render(const core::DataSet& data, const ViewRecord& v,
                          std::map<std::string, std::vector<double>>& L) {
  core::ProjectionSpec spec = core::preset("overview");
  spec.window = v.window;
  if (v.brushed) {
    core::AttrFilter f;
    f.attr = kBrushAxis;
    f.lo = kBrushLo;
    for (auto& lvl : spec.levels) {
      if (data.table(lvl.entity).has_column(f.attr)) lvl.filters.push_back(f);
    }
  }
  core::QueryEngine engine(data);
  {
    Span s("core", "table");
    for (const auto& lvl : spec.levels) (void)engine.table(lvl.entity, v.window);
    L["core.slab_build_s"].push_back(s.stop());
  }
  {
    Span s("core", "aggregate");
    for (const auto& lvl : spec.levels) {
      (void)engine.aggregate(lvl.entity, lvl.aggregation_spec());
    }
    L["core.aggregate_s"].push_back(s.stop());
  }
  Span sl("core", "layout");
  const core::ProjectionView view(data, spec, nullptr, &engine);
  L["core.layout_s"].push_back(sl.stop());
  Span sv("core", "to_svg");
  std::string svg =
      view.to_svg(800, data.run().workload + " / " + data.run().routing);
  L["core.svg_s"].push_back(sv.stop());
  return svg;
}

void run_serve_explore(const Args& a, Report& rep) {
  const std::string store = a.work + "/serve_store";
  constexpr std::size_t kClients = 4;
  constexpr std::size_t kRepeatRenders = 12;  // per client per round
  constexpr std::size_t kServeSliceRounds = 16;  // 0.5-1 s of load

  // Set-up: build the store (4 DF runs via run_sweep on the flow backend),
  // start the daemon and lazily attach every run.
  std::unique_ptr<serve::Server> server;
  std::vector<std::string> names, paths;
  std::vector<std::uint64_t> uids;
  timed_setups(rep, kSetups, [&] {
    server.reset();
    fs::remove_all(store);
    auto sc = sweep_config(a, store);
    sc.workloads = {"uniform_random", "transpose"};
    sc.scales = {4.0};
    const auto res = app::run_sweep(sc);
    serve::ServeOptions opts;
    opts.workers = kClients;
    opts.cache_capacity = 256;
    server = std::make_unique<serve::Server>(opts);
    const metrics::RunStore st(store);
    names.clear();
    paths.clear();
    uids.clear();
    for (const auto& p : res.points) {
      names.push_back(p.name);
      uids.push_back(p.uid);
      paths.push_back(st.path(p.name));
      server->catalog().attach(paths.back(), p.name);
    }
  });
  const std::size_t n_runs = names.size();
  std::vector<double> end_time(n_runs), run_bytes;
  for (std::size_t r = 0; r < n_runs; ++r) {
    const metrics::DvrFile f(paths[r]);
    end_time[r] = f.end_time();
    run_bytes.push_back(static_cast<double>(f.file_bytes()));
  }
  const metrics::DvrStats dvr0 = metrics::dvr_stats();
  rep.info["peak_rss_mb_after_setup"] = peak_rss_mb();

  // Connections: one socketpair per client plus a control connection, each
  // served by Server::serve_fd on its own thread (the accept path's code).
  std::vector<std::thread> conns;
  std::vector<std::unique_ptr<serve::Client>> clients;
  for (std::size_t c = 0; c <= kClients; ++c) {
    int sv[2] = {-1, -1};
    DV_CHECK(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) == 0,
             "socketpair failed");
    conns.emplace_back([&server, fd = sv[0]] { server->serve_fd(fd); });
    clients.push_back(std::make_unique<serve::Client>(sv[1]));
  }
  serve::Client& control = *clients[kClients];

  // Shared windows every client revisits (cache hits after the first).
  std::mt19937_64 rng(a.seed * 7919 + 17);
  std::uniform_real_distribution<double> u01(0.0, 1.0);
  std::vector<std::pair<double, double>> shared_frac;
  for (int k = 0; k < 4; ++k) {
    const double f0 = 0.5 * u01(rng);
    shared_frac.emplace_back(f0, f0 + 0.2 + 0.3 * u01(rng));
  }
  std::atomic<std::uint64_t> next_req{1};
  std::vector<ClientLog> logs(kClients);

  const auto call = [&](serve::Client& cl, ClientLog& log, const char* verb,
                        json::Value params) -> json::Value {
    t_req = next_req.fetch_add(1);
    ++log.attempted;
    Span s("serve", verb);
    try {
      json::Value out = cl.call(verb, std::move(params));
      log.verb_ms[verb].push_back(s.stop() * 1e3);
      return out;
    } catch (const std::exception& e) {
      ++log.failed;
      if (log.first_error.empty()) log.first_error = std::string(verb) + ": " + e.what();
      return json::Value();
    }
  };

  // One scripted brushing session: switch run, set a fresh window, render,
  // brush, render, clear, then revisit the shared windows on other runs.
  const auto session = [&](std::size_t c, std::size_t round,
                           std::size_t fresh_run, core::TimeWindow w) {
    ClientLog& log = logs[c];
    serve::Client& cl = *clients[c];
    Span root("bench", "session");
    const std::string& run = names[fresh_run];
    json::Object use;
    use["run"] = json::Value(run);
    call(cl, log, "use", json::Value(std::move(use)));
    json::Object win;
    win["t0"] = json::Value(w.t0);
    win["t1"] = json::Value(w.t1);
    call(cl, log, "window", json::Value(std::move(win)));
    for (int brushed = 0; brushed < 2; ++brushed) {
      if (brushed) {
        json::Object b;
        b["axis"] = json::Value(kBrushAxis);
        b["lo"] = json::Value(kBrushLo);
        call(cl, log, "brush", json::Value(std::move(b)));
      }
      const json::Value r = call(cl, log, "render", render_params(run, nullptr));
      if (r.is_object()) {
        const std::string& svg = r.at("svg").as_string();
        log.fresh.push_back({run, w, brushed == 1, fnv1a(svg), svg.size()});
        log.fresh_ms.push_back(log.verb_ms["render"].back());
      }
    }
    json::Object clear;
    clear["clear"] = json::Value(true);
    call(cl, log, "brush", json::Value(std::move(clear)));
    for (std::size_t k = 0; k < kRepeatRenders; ++k) {
      const std::size_t r = (fresh_run + 1 + (k + c) % (n_runs - 1)) % n_runs;
      const auto& [f0, f1] = shared_frac[(k + round) % shared_frac.size()];
      const core::TimeWindow sw{end_time[r] * f0, end_time[r] * f1};
      call(cl, log, "render", render_params(names[r], &sw));
    }
    if (c == 0) {
      const json::Value st = call(cl, log, "stats", json::Value());
      if (st.is_object()) {
        log.queue_depth_max = std::max(
            log.queue_depth_max,
            st.at("server").get_number("queue_depth", 0.0));
      }
    }
  };

  ClientLog control_log;
  const auto completed = [&] {  // requests answered so far, all verbs
    std::uint64_t n = 0;
    for (const auto& [verb, v] : control_log.verb_ms) n += v.size();
    for (const auto& l : logs) {
      for (const auto& [verb, v] : l.verb_ms) n += v.size();
    }
    return n;
  };
  TraceSplit split;
  Slices op, open, rate;  // one slice per kServeSliceRounds rounds
  std::size_t first_renders = 0;
  const double start = now_s();
  double slice_t0 = start;
  std::uint64_t slice_done = 0;
  const double deadline = start + a.seconds;
  std::size_t rounds = 0;
  for (; now_s() < deadline || rounds < 2; ++rounds) {
    const bool traced = a.trace && rounds % 2 == 0;
    g_tracer.on = traced;
    // Each slice starts with the control client re-attaching one run and,
    // alone, timing its first view (lazy materialization + render).
    const bool reattach = rounds % kServeSliceRounds == 0;
    const std::size_t fresh_run = (rounds / kServeSliceRounds) % n_runs;
    if (reattach) {
      json::Object load;
      load["path"] = json::Value(paths[fresh_run]);
      load["name"] = json::Value(names[fresh_run]);
      load["lazy"] = json::Value(true);
      call(control, control_log, "load", json::Value(std::move(load)));
      const double t0 = now_s();
      if (call(control, control_log, "render",
               render_params(names[fresh_run], nullptr))
              .is_object()) {
        open.add((now_s() - t0) * 1e3);
        ++first_renders;
      }
    }
    const double f0 = 0.6 * u01(rng), f1 = f0 + 0.1 + 0.3 * u01(rng);
    const core::TimeWindow w{end_time[fresh_run] * f0,
                             end_time[fresh_run] * f1};
    std::vector<std::size_t> before(kClients), fresh_before(kClients);
    for (std::size_t c = 0; c < kClients; ++c) {
      before[c] = logs[c].verb_ms["render"].size();
      fresh_before[c] = logs[c].fresh_ms.size();
    }
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kClients; ++c) {
      threads.emplace_back(session, c, rounds, fresh_run, w);
    }
    for (auto& t : threads) t.join();
    for (std::size_t c = 0; c < kClients; ++c) {
      const auto& v = logs[c].verb_ms["render"];
      for (std::size_t k = before[c]; k < v.size(); ++k) {
        split.add(traced, v[k]);
      }
      const auto& f = logs[c].fresh_ms;
      for (std::size_t k = fresh_before[c]; k < f.size(); ++k) op.add(f[k]);
    }
    if ((rounds + 1) % kServeSliceRounds == 0) {
      const double t = now_s();
      const std::uint64_t done = completed();
      rate.add(static_cast<double>(done - slice_done) / (t - slice_t0));
      slice_t0 = t;
      slice_done = done;
      op.close();
      open.close();
      rate.close();
      std::fprintf(stderr,
                   "slice %zu: fresh render %.3f ms, %.0f req/s, first "
                   "render %.1f ms\n",
                   rate.count() - 1, op.last(), rate.last(), open.last());
    }
  }
  if (rate.count() == 0) {  // shorter than one slice
    rate.add(static_cast<double>(completed() - slice_done) /
             (now_s() - slice_t0));
  }
  const double wall = now_s() - start;
  g_tracer.on = false;
  rep.info["peak_rss_mb_after_rounds"] = peak_rss_mb();
  const json::Value stats = control.call("stats");
  for (auto& cl : clients) cl->call("bye");
  for (auto& t : conns) t.join();
  clients.clear();
  server.reset();  // frees the daemon's catalog and cache before the replay
  const metrics::DvrStats dvr1 = metrics::dvr_stats();

  // Merge client logs.
  std::map<std::string, std::vector<double>> verb_ms;
  double qmax = 0.0;
  std::vector<ClientLog*> all;
  for (auto& l : logs) all.push_back(&l);
  all.push_back(&control_log);
  for (const ClientLog* l : all) {
    for (const auto& [verb, v] : l->verb_ms) {
      verb_ms[verb].insert(verb_ms[verb].end(), v.begin(), v.end());
    }
    qmax = std::max(qmax, l->queue_depth_max);
    rep.attempted += l->attempted;
    rep.failed += l->failed;
    rep.gate("every request answered (no error or overloaded reply)",
             l->failed == 0, l->first_error);
  }
  // Gates on fresh views: all clients saw identical bytes per view, and the
  // daemon's bytes equal the direct core render of the same view.
  std::map<std::tuple<std::string, double, double, bool>, ViewRecord> views;
  for (const auto& l : logs) {
    for (const auto& v : l.fresh) {
      const auto key = std::make_tuple(v.run, v.window.t0, v.window.t1,
                                       v.brushed);
      auto [it, fresh] = views.emplace(key, v);
      if (!fresh) {
        rep.gate("all clients see identical bytes per view",
                 it->second.svg_hash == v.svg_hash &&
                     it->second.svg_size == v.svg_size,
                 v.run);
      }
    }
  }
  std::map<std::string, std::vector<double>> L;
  g_tracer.on = a.trace;
  t_req = next_req.fetch_add(1);
  {
    Span replay("bench", "direct_replay");
    std::map<std::string, std::unique_ptr<core::DataSet>> datasets;
    for (const auto& [key, v] : views) {
      auto& ds = datasets[v.run];
      const std::size_t r = static_cast<std::size_t>(
          std::find(names.begin(), names.end(), v.run) - names.begin());
      ++rep.attempted;
      try {
        if (!ds) {
          if (a.corrupt) corrupt_dvr(paths[r]);
          {
            Span so("metrics", "DvrFile");
            const metrics::DvrFile f(paths[r]);
            L["metrics.open_s"].push_back(so.stop());
          }
          Span sl("metrics", "load_dvr");
          metrics::RunMetrics run = metrics::load_dvr(paths[r]);
          L["metrics.load_s"].push_back(sl.stop());
          const std::uint64_t uid = metrics::run_content_uid(run);
          if (!rep.gate("direct-path run uid == store index uid",
                        uid == uids[r], v.run)) {
            ++rep.failed;
          }
          rep.simulated.push_back(simulated_json(v.run, run, uid));
          Span sd("core", "DataSet");
          ds = std::make_unique<core::DataSet>(run);
          L["core.dataset_s"].push_back(sd.stop());
        }
        const std::string svg = direct_render(*ds, v, L);
        if (!rep.gate("daemon SVG == direct core render, byte for byte",
                      fnv1a(svg) == v.svg_hash && svg.size() == v.svg_size,
                      v.run)) {
          ++rep.failed;
        }
      } catch (const std::exception& e) {
        ++rep.failed;
        rep.gate("direct core render completes", false, e.what());
      }
    }
  }
  g_tracer.on = false;

  const auto& render = verb_ms["render"];
  rep.e2e["op_ms"] = op.lowest();
  rep.e2e["rate_per_s"] = rate.highest();
  rep.e2e["open_ms"] = open.lowest();
  std::vector<double> fresh_ms;
  for (const auto& l : logs) {
    fresh_ms.insert(fresh_ms.end(), l.fresh_ms.begin(), l.fresh_ms.end());
  }
  rep.info["fresh_render_p50_ms"] = median(fresh_ms);
  rep.info["fresh_render_samples"] = static_cast<double>(fresh_ms.size());
  rep.info["render_p50_ms"] = median(render);
  rep.info["requests_per_s"] = static_cast<double>(completed()) / wall;
  rep.e2e["run_mb"] = mean(run_bytes) / 1e6;
  rep.info["rounds"] = static_cast<double>(rounds);
  rep.info["render_samples"] = static_cast<double>(render.size());
  rep.info["first_render_samples"] = static_cast<double>(first_renders);
  rep.info["render_p99_ms"] = percentile(render, 0.99);
  rep.info["fresh_views_verified"] = static_cast<double>(views.size());

  for (const char* verb : {"use", "window", "brush", "render", "load", "stats"}) {
    rep.layer[std::string("serve.") + verb + "_p50_ms"] =
        median(verb_ms[verb]);
  }
  rep.layer["serve.render_p99_ms"] = percentile(render, 0.99);
  rep.layer["serve.render_samples"] = static_cast<double>(render.size());
  const auto& cache = stats.at("cache");
  rep.layer["serve.coalesced"] = cache.get_number("coalesced", 0.0);
  rep.layer["serve.errors"] = stats.at("server").get_number("errors", 0.0);
  rep.layer["serve.queue_depth_max"] = qmax;
  rep.layer["core.cache_hit_ratio"] = cache.get_number("hit_rate", 0.0);
  rep.layer["metrics.chunks_read"] =
      static_cast<double>(dvr1.chunks_read - dvr0.chunks_read);
  rep.layer["metrics.chunk_bytes_read"] =
      static_cast<double>(dvr1.chunk_bytes_read - dvr0.chunk_bytes_read);
  rep.layer["metrics.chunks_pruned"] =
      static_cast<double>(dvr1.chunks_pruned - dvr0.chunks_pruned);
  for (const auto& [k, v] : L) rep.layer[k] = mean(v);
  if (a.trace) split.report(rep);
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  try {
    a = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dvbench: %s\n", e.what());
    return 2;
  }
  Report rep;
  std::vector<std::string> measured;
  try {
    fs::create_directories(a.work);
    unsigned bit = 0;
    if (a.workload == "packet_seq") {
      bit = kSeq;
      run_packet(a, 1, rep);
    } else if (a.workload == "packet_par4") {
      bit = kPar;
      run_packet(a, 4, rep);
    } else if (a.workload == "flow_sweep") {
      bit = kFlow;
      run_flow_sweep(a, rep);
    } else if (a.workload == "serve_explore") {
      bit = kServe;
      run_serve_explore(a, rep);
    } else {
      throw Error("unknown workload: " + a.workload);
    }
    if (a.trace) {
      const auto& spans = g_tracer.spans();
      for (const auto& [layer, s] : self_time_by_layer(spans)) {
        rep.layer["self." + layer + "_s"] = s;
      }
      rep.layer["trace.spans"] = static_cast<double>(spans.size());
      if (!a.trace_out.empty()) write_spans(spans, a.trace_out);
      measured = finish_layers(rep.layer, bit);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dvbench: %s\n", e.what());
    return 3;
  }
  rep.e2e["peak_rss_mb"] = peak_rss_mb();

  std::string gates = "[";
  for (const auto& g : rep.gates) {
    if (gates.size() > 1) gates += ",";
    gates += "{\"name\":" + quote(g.name) +
             ",\"checks\":" + std::to_string(g.checks) +
             ",\"failures\":" + std::to_string(g.failures) +
             ",\"first_failure\":" + quote(g.first_failure) + "}";
  }
  gates += "]";
  std::string sim = "[";
  for (const auto& s : rep.simulated) sim += (sim.size() > 1 ? "," : "") + s;
  sim += "]";
  std::string owned = "[";
  for (const auto& n : measured) owned += (owned.size() > 1 ? "," : "") + quote(n);
  owned += "]";
#ifdef NDEBUG
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  std::printf(
      "{\"workload\":%s,\"seed\":%llu,\"correct\":%s,\"attempted\":%llu,"
      "\"failed\":%llu,\"e2e\":%s,\"layer\":%s,\"layer_measured\":%s,"
      "\"info\":%s,\"gates\":%s,"
      "\"simulated\":%s,\"build\":{\"compiler\":%s,\"build_type\":%s,"
      "\"optimized\":%s,\"obs_enabled\":%s,\"hardware_threads\":%u}}\n",
      quote(a.workload).c_str(), static_cast<unsigned long long>(a.seed),
      rep.correct() ? "true" : "false",
      static_cast<unsigned long long>(rep.attempted),
      static_cast<unsigned long long>(rep.failed), obj(rep.e2e).c_str(),
      obj(rep.layer).c_str(), owned.c_str(), obj(rep.info).c_str(),
      gates.c_str(),
      sim.c_str(), quote(DVBENCH_CXX_ID).c_str(),
      quote(DVBENCH_BUILD_TYPE).c_str(), optimized ? "true" : "false",
      obs::kEnabled ? "true" : "false", std::thread::hardware_concurrency());
  return 0;
}
