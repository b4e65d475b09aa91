// Packed columnar run format (.dvr) and vectorized-kernel tests.
//
// Two contracts are pinned here: (1) text-loaded and packed-loaded runs
// are bit-identical all the way into DataTables, and (2) every kernel in
// util/kernels.hpp matches its naive scalar twin bit for bit — including
// the zone-map-pruned windowed sums, whose skip of all-zero chunks must
// never change an accumulator.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "core/datatable.hpp"
#include "metrics/dvr.hpp"
#include "metrics/run_metrics.hpp"
#include "metrics/run_store.hpp"
#include "netsim/network.hpp"
#include "serve/catalog.hpp"
#include "util/common.hpp"
#include "util/kernels.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace dv {
namespace {

metrics::RunMetrics dvr_sample_run(bool sampled, std::uint64_t seed = 17) {
  const auto topo = topo::Dragonfly::canonical(2);
  netsim::Params p;
  p.packet_size = 512;
  netsim::Network net(topo, routing::Algo::kAdaptive, p, seed);
  net.set_labels("uniform_random", "contiguous", {"job0"});
  Rng rng(seed + 1);
  for (int i = 0; i < 150; ++i) {
    const auto src =
        static_cast<std::uint32_t>(rng.next_below(topo.num_terminals()));
    auto dst = src;
    while (dst == src) {
      dst = static_cast<std::uint32_t>(rng.next_below(topo.num_terminals()));
    }
    net.add_message({src, dst, 3000, rng.next_double() * 5000.0, 0});
  }
  if (sampled) net.enable_sampling(400.0);
  return net.run();
}

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// Bitwise equality — EXPECT_EQ(0.0, -0.0) would pass, this does not.
::testing::AssertionResult bits_equal(double a, double b) {
  if (std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << a << " and " << b << " differ in bits";
}

void expect_tables_bitwise_equal(const core::DataTable& a,
                                 const core::DataTable& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.column_names(), b.column_names());
  for (const auto& name : a.column_names()) {
    const auto& ca = a.column(name);
    const auto& cb = b.column(name);
    for (std::size_t r = 0; r < ca.size(); ++r) {
      ASSERT_TRUE(bits_equal(ca[r], cb[r]))
          << "column " << name << " row " << r;
    }
  }
}

#ifndef DV_TEST_GOLDEN_DIR
#define DV_TEST_GOLDEN_DIR "tests/golden"
#endif

/// A sampled DF(2) run written by a version-1 `dragonviz pack`, and its
/// content uid: the persisted key that must never change.
constexpr const char* kGoldenV1 = DV_TEST_GOLDEN_DIR "/sampled_run_v1.dvr";
constexpr std::uint64_t kGoldenV1Uid = 0xb803caf35ecd87cbull;

using SeriesMember = metrics::SampledSeries metrics::RunMetrics::*;
constexpr SeriesMember kSeries[metrics::kDvrSeriesCount] = {
    &metrics::RunMetrics::local_traffic_ts,
    &metrics::RunMetrics::local_sat_ts,
    &metrics::RunMetrics::global_traffic_ts,
    &metrics::RunMetrics::global_sat_ts,
    &metrics::RunMetrics::term_traffic_ts,
    &metrics::RunMetrics::term_sat_ts};

void expect_links_bitwise_equal(const std::vector<metrics::LinkMetrics>& a,
                                const std::vector<metrics::LinkMetrics>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].src_router, b[i].src_router) << i;
    EXPECT_EQ(a[i].src_port, b[i].src_port) << i;
    EXPECT_EQ(a[i].dst_router, b[i].dst_router) << i;
    EXPECT_EQ(a[i].dst_port, b[i].dst_port) << i;
    EXPECT_TRUE(bits_equal(a[i].traffic, b[i].traffic)) << i;
    EXPECT_TRUE(bits_equal(a[i].sat_time, b[i].sat_time)) << i;
    EXPECT_TRUE(bits_equal(a[i].downtime, b[i].downtime)) << i;
    EXPECT_EQ(a[i].retries, b[i].retries) << i;
    EXPECT_EQ(a[i].pkts_dropped, b[i].pkts_dropped) << i;
  }
}

/// Every field of two runs, doubles and floats compared by bits.
void expect_runs_bitwise_equal(const metrics::RunMetrics& a,
                               const metrics::RunMetrics& b) {
  EXPECT_EQ(a.groups, b.groups);
  EXPECT_EQ(a.routers_per_group, b.routers_per_group);
  EXPECT_EQ(a.terminals_per_router, b.terminals_per_router);
  EXPECT_EQ(a.global_per_router, b.global_per_router);
  EXPECT_EQ(a.workload, b.workload);
  EXPECT_EQ(a.routing, b.routing);
  EXPECT_EQ(a.placement, b.placement);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_TRUE(bits_equal(a.end_time, b.end_time));
  EXPECT_TRUE(bits_equal(a.sample_dt, b.sample_dt));
  EXPECT_EQ(a.job_names, b.job_names);
  expect_links_bitwise_equal(a.local_links, b.local_links);
  expect_links_bitwise_equal(a.global_links, b.global_links);
  ASSERT_EQ(a.terminals.size(), b.terminals.size());
  for (std::size_t i = 0; i < a.terminals.size(); ++i) {
    const auto& x = a.terminals[i];
    const auto& y = b.terminals[i];
    EXPECT_EQ(x.router, y.router) << i;
    EXPECT_EQ(x.port, y.port) << i;
    EXPECT_TRUE(bits_equal(x.data_size, y.data_size)) << i;
    EXPECT_TRUE(bits_equal(x.sat_time, y.sat_time)) << i;
    EXPECT_EQ(x.packets_finished, y.packets_finished) << i;
    EXPECT_TRUE(bits_equal(x.sum_latency, y.sum_latency)) << i;
    EXPECT_TRUE(bits_equal(x.sum_hops, y.sum_hops)) << i;
    EXPECT_EQ(x.job, y.job) << i;
    EXPECT_EQ(x.packets_rerouted, y.packets_rerouted) << i;
    EXPECT_EQ(x.packets_dropped, y.packets_dropped) << i;
    EXPECT_TRUE(bits_equal(x.downtime, y.downtime)) << i;
  }
  ASSERT_EQ(a.router_downtime.size(), b.router_downtime.size());
  for (std::size_t i = 0; i < a.router_downtime.size(); ++i) {
    EXPECT_TRUE(bits_equal(a.router_downtime[i], b.router_downtime[i]));
  }
  EXPECT_EQ(a.router_retries, b.router_retries);
  EXPECT_EQ(a.router_drops, b.router_drops);
  for (const SeriesMember m : kSeries) {
    const auto& x = a.*m;
    const auto& y = b.*m;
    ASSERT_EQ(x.entities(), y.entities());
    ASSERT_EQ(x.frames(), y.frames());
    EXPECT_TRUE(bits_equal(x.dt(), y.dt()));
    EXPECT_EQ(std::memcmp(x.data(), y.data(),
                          x.frames() * x.entities() * sizeof(float)),
              0);
  }
}

/// Replaces every series of a sampled run with `frames` frames drawn per
/// 256-frame chunk at a density that cycles through dense (90 %), sparse
/// (5 %, a tenth of them -0.0) and empty (or, with `all_sparse`, sparse
/// throughout) — empty chunks of odd series carry a few -0.0 values,
/// which are stored although the zone map prunes them.
/// end_time is stretched so the frames fit the sampled span.
metrics::RunMetrics with_series(metrics::RunMetrics run, std::size_t frames,
                                std::uint64_t seed, bool all_sparse) {
  Rng rng(seed);
  for (std::size_t k = 0; k < metrics::kDvrSeriesCount; ++k) {
    auto& s = run.*kSeries[k];
    const std::size_t entities = s.entities();
    std::vector<float> v(frames * entities, 0.0f);
    for (std::size_t f = 0; f < frames; ++f) {
      const std::size_t kind =
          all_sparse ? 1 : (f / metrics::kDvrSeriesChunkFrames + k) % 3;
      const double density = kind == 0 ? 0.9 : kind == 1 ? 0.05 : 0.0;
      for (std::size_t e = 0; e < entities; ++e) {
        float& x = v[f * entities + e];
        if (rng.next_double() < density) {
          // Magnitudes over 40 binades: double sums of these round, so a
          // window summed in any other order than the scalar loop's shows.
          const double scale =
              std::ldexp(1.0, static_cast<int>(rng.next_below(40)));
          x = rng.next_double() < 0.1
                  ? -0.0f
                  : static_cast<float>(rng.next_double() * scale);
        } else if (kind == 2 && k % 2 == 1 && rng.next_double() < 0.01) {
          x = -0.0f;
        }
      }
    }
    s = metrics::SampledSeries::adopt(entities, run.sample_dt, std::move(v));
  }
  run.end_time = static_cast<double>(frames) * run.sample_dt;
  return run;
}

std::string read_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream buf;
  buf << is.rdbuf();
  return buf.str();
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

template <typename T>
T get(const std::string& b, std::size_t at) {
  T v;
  std::memcpy(&v, b.data() + at, sizeof(v));
  return v;
}

template <typename T>
void put(std::string& b, std::size_t at, T v) {
  std::memcpy(b.data() + at, &v, sizeof(v));
}

/// Byte offsets of the chunk-directory entries (docs/RUN_FORMAT.md: chunk
/// count at byte 72, directory offset at 76, 56-byte entries).
std::vector<std::size_t> dir_entries(const std::string& b) {
  std::vector<std::size_t> out;
  const auto n = get<std::uint32_t>(b, 72);
  const auto dir = get<std::uint64_t>(b, 76);
  for (std::uint32_t i = 0; i < n; ++i) out.push_back(dir + i * 56);
  return out;
}

/// `fn` must throw a dv::Error whose message names `path`.
template <typename F>
void expect_path_error(const std::string& path, const char* what, F fn) {
  try {
    fn();
    ADD_FAILURE() << what << ": no error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << what << ": " << e.what();
  }
}

/// run_content_uid's canonical byte stream, hashed one byte at a time —
/// the reference the zero-run hashing must reproduce exactly.
std::uint64_t naive_uid(const metrics::RunMetrics& run) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  };
  auto pod = [&mix](auto v) { mix(&v, sizeof(v)); };
  auto str = [&](const std::string& s) {
    pod(static_cast<std::uint64_t>(s.size()));
    mix(s.data(), s.size());
  };
  pod(run.groups);
  pod(run.routers_per_group);
  pod(run.terminals_per_router);
  pod(run.global_per_router);
  str(run.workload);
  str(run.routing);
  str(run.placement);
  pod(run.seed);
  pod(run.end_time);
  pod(static_cast<std::uint64_t>(run.job_names.size()));
  for (const auto& n : run.job_names) str(n);
  auto links = [&](const std::vector<metrics::LinkMetrics>& ls) {
    pod(static_cast<std::uint64_t>(ls.size()));
    for (const auto& l : ls) {
      pod(l.src_router);
      pod(l.src_port);
      pod(l.dst_router);
      pod(l.dst_port);
      pod(l.traffic);
      pod(l.sat_time);
      pod(l.downtime);
      pod(l.retries);
      pod(l.pkts_dropped);
    }
  };
  links(run.local_links);
  links(run.global_links);
  pod(static_cast<std::uint64_t>(run.terminals.size()));
  for (const auto& t : run.terminals) {
    pod(t.router);
    pod(t.port);
    pod(t.data_size);
    pod(t.sat_time);
    pod(t.packets_finished);
    pod(t.sum_latency);
    pod(t.sum_hops);
    pod(t.job);
    pod(t.packets_rerouted);
    pod(t.packets_dropped);
    pod(t.downtime);
  }
  pod(static_cast<std::uint64_t>(run.router_downtime.size()));
  for (const double d : run.router_downtime) pod(d);
  pod(static_cast<std::uint64_t>(run.router_retries.size()));
  for (const std::uint64_t c : run.router_retries) pod(c);
  pod(static_cast<std::uint64_t>(run.router_drops.size()));
  for (const std::uint64_t c : run.router_drops) pod(c);
  pod(run.sample_dt);
  for (const SeriesMember m : kSeries) {
    const auto& s = run.*m;
    pod(static_cast<std::uint64_t>(s.entities()));
    pod(static_cast<std::uint64_t>(s.frames()));
    mix(s.data(), s.frames() * s.entities() * sizeof(float));
  }
  return h;
}

// ------------------------------------------------------------- round trip

TEST(DvrFormat, RoundTripBitExactSampled) {
  const auto run = dvr_sample_run(true);
  const auto path = temp_path("dv_dvr_roundtrip.dvr");
  metrics::save_dvr(run, path);
  ASSERT_TRUE(metrics::is_dvr_file(path));
  const auto back = metrics::load_dvr(path);
  std::remove(path.c_str());

  EXPECT_EQ(back.groups, run.groups);
  EXPECT_EQ(back.routers_per_group, run.routers_per_group);
  EXPECT_EQ(back.terminals_per_router, run.terminals_per_router);
  EXPECT_EQ(back.global_per_router, run.global_per_router);
  EXPECT_EQ(back.workload, run.workload);
  EXPECT_EQ(back.routing, run.routing);
  EXPECT_EQ(back.placement, run.placement);
  EXPECT_EQ(back.seed, run.seed);
  EXPECT_TRUE(bits_equal(back.end_time, run.end_time));
  EXPECT_EQ(back.job_names, run.job_names);

  ASSERT_EQ(back.local_links.size(), run.local_links.size());
  for (std::size_t i = 0; i < run.local_links.size(); ++i) {
    EXPECT_EQ(back.local_links[i].src_router, run.local_links[i].src_router);
    EXPECT_TRUE(bits_equal(back.local_links[i].traffic,
                           run.local_links[i].traffic));
    EXPECT_TRUE(bits_equal(back.local_links[i].sat_time,
                           run.local_links[i].sat_time));
    EXPECT_EQ(back.local_links[i].retries, run.local_links[i].retries);
  }
  ASSERT_EQ(back.terminals.size(), run.terminals.size());
  for (std::size_t i = 0; i < run.terminals.size(); ++i) {
    EXPECT_TRUE(bits_equal(back.terminals[i].sum_latency,
                           run.terminals[i].sum_latency));
    EXPECT_EQ(back.terminals[i].job, run.terminals[i].job);
    EXPECT_EQ(back.terminals[i].packets_finished,
              run.terminals[i].packets_finished);
  }

  ASSERT_TRUE(back.has_time_series());
  ASSERT_EQ(back.local_traffic_ts.frames(), run.local_traffic_ts.frames());
  for (std::size_t f = 0; f < run.local_traffic_ts.frames(); ++f) {
    for (std::size_t e = 0; e < run.local_traffic_ts.entities(); ++e) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(back.local_traffic_ts.at(f, e)),
                std::bit_cast<std::uint32_t>(run.local_traffic_ts.at(f, e)));
    }
  }
}

TEST(DvrFormat, TextAndPackedDataTablesBitIdentical) {
  const auto run = dvr_sample_run(true);
  const auto jpath = temp_path("dv_dvr_tbl.json");
  const auto dpath = temp_path("dv_dvr_tbl.dvr");
  run.save(jpath);
  metrics::save_dvr(run, dpath);
  // RunMetrics::load dispatches on the magic, not the extension.
  const core::DataSet text_ds(metrics::RunMetrics::load(jpath));
  const core::DataSet packed_ds(metrics::RunMetrics::load(dpath));
  std::remove(jpath.c_str());
  std::remove(dpath.c_str());
  for (const auto e : {core::Entity::kRouter, core::Entity::kLocalLink,
                       core::Entity::kGlobalLink, core::Entity::kTerminal}) {
    expect_tables_bitwise_equal(text_ds.table(e), packed_ds.table(e));
  }
  // Windowed tables reduce through PrefixSeries slabs built from the
  // loaded series; equality here pins the whole lazy-load + SIMD path.
  const double t1 = run.end_time / 2;
  expect_tables_bitwise_equal(
      text_ds.windowed_table(core::Entity::kLocalLink, 0.0, t1),
      packed_ds.windowed_table(core::Entity::kLocalLink, 0.0, t1));
}

TEST(DvrFormat, ContentUidStableAcrossFormatsAndSensitiveToContent) {
  const auto run = dvr_sample_run(true);
  const auto jpath = temp_path("dv_dvr_uid.json");
  const auto dpath = temp_path("dv_dvr_uid.dvr");
  run.save(jpath);
  metrics::save_dvr(run, dpath);
  const auto from_text = metrics::RunMetrics::load(jpath);
  const auto from_packed = metrics::RunMetrics::load(dpath);
  std::remove(jpath.c_str());
  std::remove(dpath.c_str());
  const auto uid = metrics::run_content_uid(run);
  EXPECT_EQ(metrics::run_content_uid(from_text), uid);
  EXPECT_EQ(metrics::run_content_uid(from_packed), uid);

  auto tweaked = run;
  tweaked.local_links[0].traffic += 1.0;
  EXPECT_NE(metrics::run_content_uid(tweaked), uid);
}

TEST(DvrFormat, HeaderOnlyOpenReadsNoChunks) {
  const auto run = dvr_sample_run(true);
  const auto path = temp_path("dv_dvr_header.dvr");
  metrics::save_dvr(run, path);
  metrics::dvr_reset_stats();
  {
    const metrics::DvrFile f(path);
    EXPECT_EQ(f.groups(), run.groups);
    EXPECT_EQ(f.workload(), run.workload);
    EXPECT_EQ(f.run_uid(), metrics::run_content_uid(run));
    EXPECT_TRUE(f.has_time_series());
    EXPECT_GT(f.chunks().size(), 0u);
    const auto st = metrics::dvr_stats();
    EXPECT_EQ(st.opens, 1u);
    EXPECT_EQ(st.chunks_read, 0u);  // metadata is free; payloads untouched
  }
  std::remove(path.c_str());
}

TEST(DvrFormat, ZoneMapPrunedWindowSumsBitIdentical) {
  // The simulated run, and one whose series span three 256-frame chunks of
  // every storage kind, so windows cross dense, sparse and pruned chunks.
  const auto real = dvr_sample_run(true);
  const auto mixed = with_series(dvr_sample_run(true), 700, 5, false);
  for (const auto* run : {&real, &mixed}) {
    const auto path = temp_path("dv_dvr_prune.dvr");
    metrics::save_dvr(*run, path);
    const metrics::DvrFile f(path);
    if (run == &mixed) {
      std::size_t dense = 0, sparse = 0;
      for (const auto& c : f.chunks()) {
        if (c.section < 16 || c.rows == 0) continue;
        if (c.dtype == static_cast<std::uint16_t>(metrics::DvrType::kF32)) {
          ++dense;
        } else if (c.dtype == static_cast<std::uint16_t>(
                                  metrics::DvrType::kSparseF32)) {
          ++sparse;
        }
      }
      EXPECT_GT(dense, 0u);
      EXPECT_GT(sparse, 0u);
    }
    metrics::dvr_reset_stats();
    std::size_t checked = 0;
    for (std::size_t id = 0; id < metrics::kDvrSeriesCount; ++id) {
      const auto frames = f.series_frames(id);
      const auto entities = f.series_entities(id);
      if (frames == 0 || entities == 0) continue;
      const auto series = f.series(id);
      const auto& original = (*run).*kSeries[id];
      ASSERT_EQ(series.frames(), original.frames());
      ASSERT_EQ(std::memcmp(series.data(), original.data(),
                            frames * entities * sizeof(float)),
                0);
      for (const std::size_t e : {std::size_t{0}, entities / 2, entities - 1}) {
        for (const auto& [f0, f1] :
             {std::pair<std::size_t, std::size_t>{0, frames},
              {frames / 3, 2 * frames / 3},
              {0, 1},
              {250, 262},
              {255, 513},
              {511, 700}}) {
          if (f1 > frames) continue;
          const double pruned = f.series_range_sum(id, e, f0, f1, true);
          const double full = f.series_range_sum(id, e, f0, f1, false);
          const double scalar = series.range_sum(e, f0, f1);
          ASSERT_TRUE(bits_equal(pruned, full)) << f0 << ".." << f1;
          ASSERT_TRUE(bits_equal(pruned, scalar)) << f0 << ".." << f1;
          ++checked;
        }
      }
    }
    EXPECT_GT(checked, 0u);
    // The sampled tail of a short run leaves all-zero chunks behind; the
    // pruning path must actually have fired for this test to mean anything.
    EXPECT_GT(metrics::dvr_stats().chunks_pruned, 0u);
    std::remove(path.c_str());
  }
}

TEST(DvrFormat, GoldenV1FixtureLoadsWithPinnedUid) {
  const metrics::DvrFile v1_file(kGoldenV1);
  EXPECT_EQ(v1_file.version(), 1u);
  EXPECT_EQ(v1_file.run_uid(), kGoldenV1Uid);
  const auto v1 = metrics::load_dvr(kGoldenV1);
  ASSERT_TRUE(v1.has_time_series());
  EXPECT_EQ(metrics::run_content_uid(v1), kGoldenV1Uid);

  // Re-saving writes version 2 — smaller, with sparse series chunks —
  // under the same uid, and reloads bit-identically.
  const auto path = temp_path("dv_dvr_golden_v2.dvr");
  EXPECT_EQ(metrics::save_dvr(v1, path), kGoldenV1Uid);
  const metrics::DvrFile v2_file(path);
  EXPECT_EQ(v2_file.version(), metrics::kDvrVersion);
  EXPECT_EQ(v2_file.run_uid(), kGoldenV1Uid);
  EXPECT_LT(v2_file.file_bytes(), v1_file.file_bytes());
  EXPECT_TRUE(std::any_of(
      v2_file.chunks().begin(), v2_file.chunks().end(), [](const auto& c) {
        return c.dtype ==
               static_cast<std::uint16_t>(metrics::DvrType::kSparseF32);
      }));
  const auto v2 = metrics::load_dvr(path);
  std::remove(path.c_str());
  expect_runs_bitwise_equal(v1, v2);
  EXPECT_EQ(metrics::run_content_uid(v2), kGoldenV1Uid);
}

TEST(DvrUid, ZeroRunHashMatchesNaiveByteLoop) {
  auto run = dvr_sample_run(false);
  run.sample_dt = 250.0;
  Rng rng(31);
  // One zero run of every length 0..70 at every byte alignment, with the
  // buffer ending inside a second run on alternate cases.
  std::size_t cases = 0;
  for (std::size_t len = 0; len <= 70; ++len) {
    for (std::size_t align = 0; align < 8; ++align, ++cases) {
      const std::size_t entities = 3;
      const std::size_t frames = (align + len + 16) / (4 * entities) + 1;
      std::vector<unsigned char> b(frames * entities * sizeof(float));
      for (auto& x : b) x = static_cast<unsigned char>(1 + rng.next_below(255));
      std::fill_n(b.begin() + static_cast<std::ptrdiff_t>(align), len, 0);
      if (cases % 2 == 1) {
        std::fill(b.end() - static_cast<std::ptrdiff_t>(len % 13), b.end(), 0);
      }
      std::vector<float> v(b.size() / sizeof(float));
      std::memcpy(v.data(), b.data(), b.size());
      run.local_traffic_ts =
          metrics::SampledSeries::adopt(entities, 250.0, std::move(v));
      ASSERT_EQ(metrics::run_content_uid(run), naive_uid(run))
          << "len=" << len << " align=" << align;
    }
  }
  // Random series: runs of zero floats and zero bytes of random length,
  // -0.0 values, a fully zero series, and both kinds of empty series.
  for (int trial = 0; trial < 20; ++trial) {
    for (std::size_t k = 0; k < metrics::kDvrSeriesCount; ++k) {
      const std::size_t entities = 1 + rng.next_below(9);
      const std::size_t frames = rng.next_below(40);
      std::vector<unsigned char> b(frames * entities * sizeof(float), 0);
      for (std::size_t i = 0; i < b.size();) {
        const std::size_t zeros = rng.next_below(71);
        i += zeros;
        const std::size_t dense = rng.next_below(9);
        for (std::size_t j = 0; j < dense && i < b.size(); ++j, ++i) {
          b[i] = static_cast<unsigned char>(rng.next_below(256));
        }
      }
      std::vector<float> v(b.size() / sizeof(float));
      if (!b.empty()) std::memcpy(v.data(), b.data(), b.size());
      for (auto& x : v) {
        if (rng.next_below(8) == 0) x = -0.0f;
      }
      run.*kSeries[k] =
          metrics::SampledSeries::adopt(entities, 250.0, std::move(v));
    }
    if (trial == 1) {
      run.global_sat_ts = metrics::SampledSeries::adopt(
          4, 250.0, std::vector<float>(4 * 33, 0.0f));
    }
    if (trial == 2) run.term_sat_ts = metrics::SampledSeries(5, 250.0);
    if (trial == 3) run.term_traffic_ts = metrics::SampledSeries();
    ASSERT_EQ(metrics::run_content_uid(run), naive_uid(run))
        << "trial " << trial;
  }
  // The simulated run and the v1 fixture hash as the byte loop does too.
  const auto real = dvr_sample_run(true);
  EXPECT_EQ(metrics::run_content_uid(real), naive_uid(real));
  EXPECT_EQ(naive_uid(metrics::load_dvr(kGoldenV1)), kGoldenV1Uid);
}

TEST(DvrFormat, RejectsTruncatedAndForeignFiles) {
  const auto path = temp_path("dv_dvr_bad.dvr");
  {
    std::ofstream os(path, std::ios::binary);
    os << "DVR1";  // magic only: header truncated
  }
  EXPECT_THROW(metrics::DvrFile{path}, Error);
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << "{\"not\": \"a dvr\"}";
  }
  EXPECT_FALSE(metrics::is_dvr_file(path));
  EXPECT_THROW(metrics::DvrFile{path}, Error);
  std::remove(path.c_str());
}

TEST(DvrFormat, RejectsMalformedChunkDirectory) {
  const auto run = dvr_sample_run(true);
  const auto path = temp_path("dv_dvr_malformed.dvr");
  metrics::save_dvr(run, path);
  std::string orig;
  {
    std::ifstream is(path, std::ios::binary);
    std::ostringstream buf;
    buf << is.rdbuf();
    orig = buf.str();
  }
  auto rd = [](const std::string& b, std::size_t at, auto v) {
    std::memcpy(&v, b.data() + at, sizeof(v));
    return v;
  };
  auto wr = [](std::string& b, std::size_t at, auto v) {
    std::memcpy(b.data() + at, &v, sizeof(v));
  };
  // Fixed header layout (docs/RUN_FORMAT.md): chunk count at byte 72,
  // directory offset at 76; 56-byte directory entries of
  // section/column/dtype/reserved u16s then offset/bytes/rows/row0 u64s.
  const auto n_chunks = rd(orig, 72, std::uint32_t{});
  const auto dir = rd(orig, 76, std::uint64_t{});
  std::size_t series_at = 0, f64_at = 0;
  for (std::uint32_t i = 0; i < n_chunks; ++i) {
    const std::size_t at = dir + i * 56;
    const auto section = rd(orig, at, std::uint16_t{});
    const auto dtype = rd(orig, at + 4, std::uint16_t{});
    const auto rows = rd(orig, at + 24, std::uint64_t{});
    if (rows == 0) continue;
    if (section >= 16 && series_at == 0) series_at = at;
    if (dtype == 1 && f64_at == 0) f64_at = at;  // a kF64 column
  }
  ASSERT_NE(series_at, 0u);
  ASSERT_NE(f64_at, 0u);

  auto expect_rejected = [&](const char* what, auto mutate) {
    std::string bytes = orig;
    mutate(bytes);
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    os.close();
    EXPECT_THROW(metrics::DvrFile{path}, Error) << what;
  };

  // Series chunk whose rows are not a multiple of the entity count: the
  // payload no longer tiles the frames x entities slab, so series() would
  // memcpy past its allocation. bytes is kept consistent with the dtype
  // so only the series-shape validation can catch it.
  expect_rejected("series rows not a multiple of entities", [&](auto& b) {
    const auto rows = rd(b, series_at + 24, std::uint64_t{});
    wr(b, series_at + 24, rows - 1);
    wr(b, series_at + 16, (rows - 1) * sizeof(float));
  });
  // Series chunks claiming the header's entity class is empty while still
  // carrying payload rows.
  expect_rejected("series rows with zero entities", [&](auto& b) {
    const auto section = rd(b, series_at, std::uint16_t{});
    const std::size_t count_at =
        section < 18 ? 56 : section < 20 ? 60 : 64;  // n_local/global/term
    wr(b, count_at, std::uint32_t{0});
  });
  // offset + bytes wrapping past 2^64 — an additive bound check passes.
  expect_rejected("chunk offset overflow", [&](auto& b) {
    wr(b, f64_at + 8, std::numeric_limits<std::uint64_t>::max() - 4);
  });
  // rows * elem_size wrapping back to the real byte count — a
  // multiplicative size/dtype check passes.
  expect_rejected("chunk rows overflow", [&](auto& b) {
    const auto bytes = rd(b, f64_at + 16, std::uint64_t{});
    wr(b, f64_at + 24, (std::uint64_t{1} << 61) + bytes / 8);
  });
  // A frame index far past anything the file can back: frames * entities
  // would overflow the slab allocation arithmetic in series().
  expect_rejected("series frame index overflow", [&](auto& b) {
    wr(b, series_at + 32, std::uint64_t{1} << 62);
  });

  // The pristine bytes still open and materialize.
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(orig.data(), static_cast<std::streamsize>(orig.size()));
  }
  EXPECT_EQ(metrics::run_content_uid(metrics::load_dvr(path)),
            metrics::run_content_uid(run));
  std::remove(path.c_str());
}

/// A small sampled run whose every series chunk is stored sparse.
struct SparseFile {
  std::string path = temp_path("dv_dvr_hostile.dvr");
  metrics::RunMetrics run = with_series(dvr_sample_run(true), 40, 9, true);
  std::string bytes;
  std::size_t entry = 0;  ///< directory entry of a sparse chunk
  std::size_t nnz = 0;

  SparseFile() {
    metrics::save_dvr(run, path);
    bytes = read_bytes(path);
    for (const std::size_t at : dir_entries(bytes)) {
      if (get<std::uint16_t>(bytes, at + 4) ==
              static_cast<std::uint16_t>(metrics::DvrType::kSparseF32) &&
          get<std::uint64_t>(bytes, at + 16) >= 16) {
        entry = at;
        nnz = get<std::uint64_t>(bytes, at + 16) / 8;
        break;
      }
    }
  }
  ~SparseFile() { std::remove(path.c_str()); }
  std::size_t payload() const { return get<std::uint64_t>(bytes, entry + 8); }
  std::uint64_t rows() const { return get<std::uint64_t>(bytes, entry + 24); }
  std::size_t series_id() const {
    return get<std::uint16_t>(bytes, entry) - 16;
  }
};

TEST(DvrHostile, SparseOffsetsAreBoundsChecked) {
  SparseFile sf;
  ASSERT_NE(sf.entry, 0u);
  const std::size_t id = sf.series_id();
  auto rejected = [&](const char* what, auto mutate) {
    std::string b = sf.bytes;
    mutate(b);
    write_bytes(sf.path, b);
    // Offsets are checked where they are decoded: every reader path.
    expect_path_error(sf.path, what, [&] { metrics::load_dvr(sf.path); });
    const metrics::DvrFile f(sf.path);
    expect_path_error(sf.path, what, [&] { f.series(id); });
    expect_path_error(sf.path, what, [&] {
      f.series_range_sum(id, 0, 0, f.series_frames(id), false);
    });
  };
  const std::size_t offs = sf.payload();
  rejected("offset >= rows", [&](std::string& b) {
    put(b, offs + 4 * (sf.nnz - 1), static_cast<std::uint32_t>(sf.rows()));
  });
  rejected("duplicate offset", [&](std::string& b) {
    put(b, offs + 4, get<std::uint32_t>(b, offs));
  });
  rejected("descending offsets", [&](std::string& b) {
    const auto first = get<std::uint32_t>(b, offs);
    put(b, offs, get<std::uint32_t>(b, offs + 4));
    put(b, offs + 4, first);
  });
}

TEST(DvrHostile, SparseChunkShapesRejectedAtOpen) {
  SparseFile sf;
  ASSERT_NE(sf.entry, 0u);
  auto rejected = [&](const char* what, auto mutate) {
    std::string b = sf.bytes;
    mutate(b);
    write_bytes(sf.path, b);
    expect_path_error(sf.path, what, [&] { metrics::DvrFile{sf.path}; });
  };
  rejected("more nonzeros than rows", [&](std::string& b) {
    put(b, sf.entry + 24, static_cast<std::uint64_t>(sf.nnz - 1));
  });
  rejected("payload not a multiple of 8", [&](std::string& b) {
    put(b, sf.entry + 16, static_cast<std::uint64_t>(sf.nnz * 8 - 4));
  });
  // A sparse chunk stores nothing for zeros, so a chunk can claim frames
  // no payload backs: only the end_time / sample_dt cap stops it.
  rejected("chunk frames beyond end_time / sample_dt", [&](std::string& b) {
    const std::uint64_t entities = sf.rows() / 40;
    put(b, sf.entry + 24, entities * metrics::kDvrSeriesChunkFrames);
  });
  rejected("end_time too short for the frames", [&](std::string& b) {
    put(b, 40, sf.run.sample_dt);  // header end_time
  });
  rejected("sparse dtype outside a series", [&](std::string& b) {
    for (const std::size_t at : dir_entries(b)) {
      // A terminals u32 column relabelled sparse.
      if (get<std::uint16_t>(b, at) == 3 &&
          get<std::uint16_t>(b, at + 4) == 3) {
        put(b, at + 4, static_cast<std::uint16_t>(6));
        break;
      }
    }
  });
  rejected("entity count beyond the topology", [&](std::string& b) {
    put(b, 64, get<std::uint32_t>(b, 64) + 1);  // n_terminals
  });
  rejected("non-contiguous series chunks", [&](std::string& b) {
    put(b, sf.entry + 32, std::uint64_t{1});  // row0
  });
  rejected("unknown dtype", [&](std::string& b) {
    put(b, sf.entry + 4, static_cast<std::uint16_t>(9));
  });
}

TEST(DvrHostile, ByteFlipSweepLoadsOrThrows) {
  SparseFile sf;
  Rng rng(20261021);
  std::size_t loaded = 0, rejected = 0;
  for (int i = 0; i < 3000; ++i) {
    std::string b = sf.bytes;
    const std::size_t at = rng.next_below(b.size());
    const auto flip = static_cast<char>(1 + rng.next_below(255));
    b[at] = static_cast<char>(b[at] ^ flip);
    write_bytes(sf.path, b);
    try {
      const metrics::DvrFile f(sf.path);
      f.load_all();
      for (std::size_t id = 0; id < metrics::kDvrSeriesCount; ++id) {
        if (f.series_entities(id) == 0) continue;
        f.series_range_sum(id, 0, 0, f.series_frames(id), true);
      }
      ++loaded;
    } catch (const Error&) {
      ++rejected;  // any other exception fails the test
    }
  }
  EXPECT_GT(loaded, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(DvrFormat, SampledSeriesAdoptValidates) {
  auto s = metrics::SampledSeries::adopt(2, 10.0, {1.0f, 2.0f, 3.0f, 4.0f});
  EXPECT_EQ(s.entities(), 2u);
  EXPECT_EQ(s.frames(), 2u);
  EXPECT_FLOAT_EQ(s.at(1, 0), 3.0f);
  EXPECT_THROW(metrics::SampledSeries::adopt(2, 10.0, {1.0f}), Error);
}

// ------------------------------------------------- text loader satellites

TEST(DvrTextLoader, ToleratesBomCrlfAndTrailingWhitespace) {
  const auto run = dvr_sample_run(false);
  const auto path = temp_path("dv_dvr_crlf.json");
  run.save(path);
  std::string text;
  {
    std::ifstream is(path, std::ios::binary);
    std::ostringstream buf;
    buf << is.rdbuf();
    text = buf.str();
  }
  std::string mangled = "\xEF\xBB\xBF";  // UTF-8 BOM
  for (const char c : text) {
    if (c == '\n') mangled += "\r\n";
    else mangled += c;
  }
  mangled += "\r\n  \t ";
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << mangled;
  }
  const auto back = metrics::RunMetrics::load(path);
  std::remove(path.c_str());
  EXPECT_EQ(metrics::run_content_uid(back), metrics::run_content_uid(run));
}

TEST(DvrTextLoader, ParseErrorsCarryPathAndLine) {
  const auto path = temp_path("dv_dvr_bad_json.json");
  {
    std::ofstream os(path, std::ios::binary);
    os << "{\n  \"groups\": 2,\n  \"oops\n}\n";
  }
  try {
    metrics::RunMetrics::load(path);
    FAIL() << "expected a parse error";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(path), std::string::npos) << msg;
    EXPECT_NE(msg.find("line"), std::string::npos) << msg;
  }
  std::remove(path.c_str());
}

// ------------------------------------------------------- store satellites

TEST(DvrStore, PackedAddRepackAndAtomicIndex) {
  const auto dir = temp_path("dv_dvr_store_test");
  std::filesystem::remove_all(dir);
  const auto run = dvr_sample_run(false);
  const auto uid = metrics::run_content_uid(run);
  {
    metrics::RunStore store(dir);
    const auto name = store.add(run, "packed_run",
                                metrics::StoreFormat::kPacked);
    EXPECT_EQ(name, "packed_run");
    EXPECT_TRUE(metrics::is_dvr_file(store.path(name)));
    EXPECT_EQ(store.info(name).format, metrics::StoreFormat::kPacked);
    EXPECT_EQ(store.info(name).uid, uid);
    // find() answers from the index alone.
    EXPECT_EQ(store.find("uniform_random").size(), 1u);
    // load() dispatches on the stored format transparently.
    EXPECT_EQ(metrics::run_content_uid(store.load(name)), uid);
  }
  {
    // Reopen: the index round-trips format + uid.
    metrics::RunStore store(dir);
    EXPECT_EQ(store.info("packed_run").format,
              metrics::StoreFormat::kPacked);
    EXPECT_EQ(store.info("packed_run").uid, uid);
    store.repack("packed_run", metrics::StoreFormat::kText);
    EXPECT_FALSE(metrics::is_dvr_file(store.path("packed_run")));
    EXPECT_EQ(metrics::run_content_uid(store.load("packed_run")), uid);
  }
  // The atomic index publish never leaves a temp file behind.
  EXPECT_FALSE(
      std::filesystem::exists(std::filesystem::path(dir) / "index.json.tmp"));
  EXPECT_TRUE(
      std::filesystem::exists(std::filesystem::path(dir) / "index.json"));
  std::filesystem::remove_all(dir);
}

TEST(DvrStore, ReplaceUpdatesEntryInPlace) {
  const auto dir = temp_path("dv_dvr_store_replace");
  std::filesystem::remove_all(dir);
  const auto a = dvr_sample_run(false, 17);
  const auto b = dvr_sample_run(false, 18);
  const auto uid_b = metrics::run_content_uid(b);
  {
    metrics::RunStore store(dir);
    store.add(a, "first", metrics::StoreFormat::kText);
    store.add(a, "second", metrics::StoreFormat::kText);
    // Switching format: the packed file is published, the text one goes.
    const auto& info = store.replace(b, "first", metrics::StoreFormat::kPacked);
    EXPECT_EQ(info.uid, uid_b);
    EXPECT_EQ(info.format, metrics::StoreFormat::kPacked);
    ASSERT_EQ(store.size(), 2u);
    EXPECT_EQ(store.list()[0].name, "first");  // updated in place
    EXPECT_TRUE(metrics::is_dvr_file(store.path("first")));
    EXPECT_FALSE(
        std::filesystem::exists(std::filesystem::path(dir) / "first.json"));
    // A new name is simply added, without a suffix.
    store.replace(a, "third", metrics::StoreFormat::kPacked);
    EXPECT_EQ(store.size(), 3u);
  }
  const metrics::RunStore reopened(dir);
  EXPECT_EQ(reopened.info("first").uid, uid_b);
  EXPECT_EQ(metrics::run_content_uid(reopened.load("first")), uid_b);
  EXPECT_EQ(reopened.info("third").uid, metrics::run_content_uid(a));
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------- lazy catalog

TEST(ServeLazyCatalog, AttachMaterializesOnFirstGet) {
  const auto run = dvr_sample_run(true);
  const auto path = temp_path("dv_dvr_lazy.dvr");
  metrics::save_dvr(run, path);

  serve::RunCatalog catalog(64, 2);
  const auto name = catalog.attach(path);
  EXPECT_EQ(name, "dv_dvr_lazy");
  EXPECT_EQ(catalog.size(), 1u);
  EXPECT_EQ(catalog.resident(), 0u);
  EXPECT_EQ(catalog.pending(), 1u);
  ASSERT_EQ(catalog.list_pending().size(), 1u);
  EXPECT_TRUE(catalog.list_pending()[0].packed);

  const auto lr = catalog.get(name);  // first touch materializes
  ASSERT_NE(lr, nullptr);
  EXPECT_EQ(lr->name, name);
  EXPECT_EQ(lr->data.run().workload, run.workload);
  EXPECT_EQ(catalog.resident(), 1u);
  EXPECT_EQ(catalog.pending(), 0u);
  EXPECT_EQ(catalog.get(name), lr);  // now a plain lookup

  catalog.unload(name);
  EXPECT_EQ(catalog.size(), 0u);
  // Unloading a pending attachment works without materializing it.
  catalog.attach(path, "again");
  EXPECT_EQ(catalog.pending(), 1u);
  catalog.unload("again");
  EXPECT_EQ(catalog.size(), 0u);
  EXPECT_THROW(catalog.get("again"), Error);
  std::remove(path.c_str());
}

// -------------------------------------------------------------- kernels

TEST(KernelEquivalence, PrefixAddFrame) {
  Rng rng(7);
  for (const std::size_t n : {0u, 1u, 3u, 4u, 7u, 64u, 1000u}) {
    std::vector<float> frame(n);
    std::vector<double> prev(n), got(n), want(n);
    for (std::size_t i = 0; i < n; ++i) {
      frame[i] = static_cast<float>(rng.next_double() * 1e6 - 3e5);
      prev[i] = rng.next_double() * 1e9;
    }
    kernels::prefix_add_frame(frame.data(), prev.data(), got.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      want[i] = prev[i] + static_cast<double>(frame[i]);
    }
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(bits_equal(got[i], want[i])) << "n=" << n << " i=" << i;
    }
  }
}

TEST(KernelEquivalence, StridedAndSpanSums) {
  Rng rng(8);
  const std::size_t stride = 17, frames = 101;
  std::vector<float> data(stride * frames);
  for (auto& v : data) v = static_cast<float>(rng.next_double() * 100.0);
  for (const std::size_t off : {0u, 5u, 16u}) {
    for (const auto& [f0, f1] :
         {std::pair<std::size_t, std::size_t>{0, frames}, {10, 90}, {50, 50}}) {
      double want = 0.0;
      for (std::size_t f = f0; f < f1; ++f) {
        want += static_cast<double>(data[f * stride + off]);
      }
      ASSERT_TRUE(bits_equal(
          kernels::strided_sum(data.data(), stride, off, f0, f1), want));
    }
  }
  double want = 0.0;
  for (const float v : data) want += static_cast<double>(v);
  EXPECT_TRUE(bits_equal(kernels::sum_span(data.data(), data.size()), want));
}

TEST(KernelEquivalence, FilterRangeMaskIncludingNan) {
  Rng rng(9);
  const std::size_t n = 257;
  std::vector<double> col(n);
  for (auto& v : col) v = rng.next_double() * 10.0 - 5.0;
  col[3] = std::numeric_limits<double>::quiet_NaN();
  col[100] = std::numeric_limits<double>::quiet_NaN();
  const double lo = -2.0, hi = 3.0;
  std::vector<unsigned char> got(n, 1), want(n, 1);
  kernels::filter_range_mask(col.data(), n, lo, hi, got.data());
  for (std::size_t i = 0; i < n; ++i) {
    // The scalar filter's exact predicate: reject below/above — a NaN
    // compares false both ways and is kept.
    if (col[i] < lo || col[i] > hi) want[i] = 0;
  }
  EXPECT_EQ(got, want);
}

TEST(KernelEquivalence, MinMax) {
  Rng rng(10);
  for (const std::size_t n : {0u, 1u, 2u, 3u, 5u, 128u, 1001u}) {
    std::vector<float> f(n);
    std::vector<double> d(n);
    for (std::size_t i = 0; i < n; ++i) {
      f[i] = static_cast<float>(rng.next_double() * 2e3 - 1e3);
      d[i] = rng.next_double() * 2e3 - 1e3;
    }
    float flo = 1.0f, fhi = -1.0f;
    kernels::minmax_f32(f.data(), n, flo, fhi);
    double dlo = 1.0, dhi = -1.0;
    kernels::minmax_f64(d.data(), n, dlo, dhi);
    if (n == 0) {
      EXPECT_EQ(flo, 0.0f);
      EXPECT_EQ(dhi, 0.0);
      continue;
    }
    EXPECT_EQ(flo, *std::min_element(f.begin(), f.end()));
    EXPECT_EQ(fhi, *std::max_element(f.begin(), f.end()));
    EXPECT_EQ(dlo, *std::min_element(d.begin(), d.end()));
    EXPECT_EQ(dhi, *std::max_element(d.begin(), d.end()));
  }
}

TEST(KernelEquivalence, CountNonzeroBits) {
  Rng rng(13);
  for (const std::size_t n : {0u, 1u, 3u, 4u, 5u, 8u, 9u, 1001u}) {
    std::vector<float> v(n, 0.0f);
    for (auto& x : v) {
      const auto r = rng.next_below(4);
      x = r == 0   ? -0.0f
          : r == 1 ? static_cast<float>(rng.next_double())
                   : 0.0f;
    }
    std::size_t want = 0;
    for (const float x : v) want += std::bit_cast<std::uint32_t>(x) != 0;
    EXPECT_EQ(kernels::count_nonzero_bits_f32(v.data(), n), want) << n;
  }
}

TEST(KernelEquivalence, GatherSum) {
  Rng rng(11);
  std::vector<double> col(500);
  for (auto& v : col) v = rng.next_double() * 1e7;
  std::vector<std::uint32_t> rows;
  for (int i = 0; i < 237; ++i) {
    rows.push_back(static_cast<std::uint32_t>(rng.next_below(col.size())));
  }
  double want = 0.0;
  for (const auto r : rows) want += col[r];
  EXPECT_TRUE(bits_equal(
      kernels::gather_sum(col.data(), rows.data(), rows.size()), want));
}

TEST(KernelEquivalence, HistogramBinsMatchBinOfAndAddN) {
  Rng rng(12);
  const double lo = -1.0, hi = 4.0;
  const std::size_t bins = 13;
  Histogram one_by_one(lo, hi, bins);
  Histogram batched(lo, hi, bins);
  std::vector<double> xs(777);
  for (auto& x : xs) x = rng.next_double() * 8.0 - 2.0;
  xs[0] = lo;
  xs[1] = hi;
  xs[2] = std::nextafter(hi, lo);

  std::vector<std::uint32_t> got(xs.size());
  kernels::histogram_bins(xs.data(), xs.size(), lo, hi, bins, got.data());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    ASSERT_EQ(got[i], one_by_one.bin_of(xs[i])) << "x=" << xs[i];
  }

  for (const double x : xs) one_by_one.add(x);
  batched.add_n(xs.data(), xs.size());
  ASSERT_EQ(batched.bins(), one_by_one.bins());
  for (std::size_t b = 0; b < bins; ++b) {
    ASSERT_TRUE(bits_equal(batched.count(b), one_by_one.count(b)));
  }
  EXPECT_TRUE(bits_equal(batched.total(), one_by_one.total()));
}

}  // namespace
}  // namespace dv
