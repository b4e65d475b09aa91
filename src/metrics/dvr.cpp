#include "metrics/dvr.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>

#include "obs/obs.hpp"
#include "util/kernels.hpp"

namespace dv::metrics {

namespace {

constexpr char kMagic[4] = {'D', 'V', 'R', '1'};
/// Oldest layout the reader accepts (v1 is v2 without sparse chunks).
constexpr std::uint32_t kDvrMinVersion = 1;
/// Fixed header bytes before the string table (docs/RUN_FORMAT.md).
constexpr std::uint64_t kFixedHeaderBytes = 84;
constexpr std::uint64_t kDirEntryBytes = 56;

struct Stats {
  std::atomic<std::uint64_t> opens{0};
  std::atomic<std::uint64_t> bytes_mapped{0};
  std::atomic<std::uint64_t> chunks_read{0};
  std::atomic<std::uint64_t> chunk_bytes_read{0};
  std::atomic<std::uint64_t> chunks_pruned{0};
};
Stats& stats() {
  static Stats s;
  return s;
}

// ----------------------------------------------------- byte-level helpers
// All multi-byte values are little-endian. The writer/reader memcpy
// through byte buffers (no packed-struct aliasing); dragonviz targets
// little-endian hosts, which keeps these memcpys copy-through.

/// Writes PODs at a cursor into a buffer sized up front — the writer
/// lays the whole file out before the first byte is written, so nothing
/// reallocates.
class ByteCursor {
 public:
  ByteCursor(unsigned char* p, std::uint64_t n) : p_(p), n_(n) {}
  void raw(const void* src, std::size_t n) {
    DV_CHECK(n <= n_ - at_, "dvr write past the planned size");
    if (n > 0) std::memcpy(p_ + at_, src, n);
    at_ += n;
  }
  template <typename T>
  void pod(T v) {
    raw(&v, sizeof(v));
  }
  void str(const std::string& s) {
    pod(static_cast<std::uint32_t>(s.size()));
    raw(s.data(), s.size());
  }
  /// Zero padding up to `at` (the next chunk payload's offset).
  void pad_to(std::uint64_t at) {
    DV_CHECK(at >= at_ && at <= n_, "dvr padding out of range");
    std::memset(p_ + at_, 0, at - at_);
    at_ = at;
  }
  /// Steps over `n` bytes an encoder wrote in place.
  void skip(std::uint64_t n) {
    DV_CHECK(n <= n_ - at_, "dvr write past the planned size");
    at_ += n;
  }
  std::uint64_t at() const { return at_; }

 private:
  unsigned char* p_;
  std::uint64_t n_;
  std::uint64_t at_ = 0;
};

class ByteReader {
 public:
  ByteReader(const unsigned char* p, std::uint64_t n, const std::string& path)
      : p_(p), n_(n), path_(path) {}
  template <typename T>
  T pod() {
    T v;
    DV_REQUIRE(sizeof(v) <= n_ - at_, "truncated .dvr file: " + path_);
    std::memcpy(&v, p_ + at_, sizeof(v));
    at_ += sizeof(v);
    return v;
  }
  std::string str() {
    const auto len = pod<std::uint32_t>();
    DV_REQUIRE(len <= n_ - at_, "truncated .dvr string in " + path_);
    std::string s(reinterpret_cast<const char*>(p_ + at_), len);
    at_ += len;
    return s;
  }
  void seek(std::uint64_t at) {
    DV_REQUIRE(at <= n_, "bad .dvr offset in " + path_);
    at_ = at;
  }
  /// Bytes left after the cursor (bounds count fields before reserving).
  std::uint64_t left() const { return n_ - at_; }

 private:
  const unsigned char* p_;
  std::uint64_t n_;
  const std::string& path_;
  std::uint64_t at_ = 0;
};

// ------------------------------------------------------------------ FNV-1a

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// kFnvPow2[i] = P^(2^i) mod 2^64, so P^n is one product per set bit of n.
constexpr std::array<std::uint64_t, 64> kFnvPow2 = [] {
  std::array<std::uint64_t, 64> t{};
  std::uint64_t p = kFnvPrime;
  for (auto& x : t) {
    x = p;
    p *= p;
  }
  return t;
}();

std::uint64_t fnv_prime_pow(std::uint64_t n) {
  std::uint64_t r = 1;
  for (; n != 0; n &= n - 1) r *= kFnvPow2[std::countr_zero(n)];
  return r;
}

std::uint64_t load_u64(const unsigned char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// FNV-1a in which a run of n zero bytes costs one multiplication: XOR
/// with a zero byte is a no-op, so the run multiplies the hash by P^n —
/// exactly what the byte-at-a-time loop computes. Runs are found with
/// word-wide scans.
class Fnv1a {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(data);
    std::size_t i = 0;
    while (i < n) {
      if (b[i] != 0) {
        h_ = (h_ ^ b[i]) * kFnvPrime;
        ++i;
        continue;
      }
      std::size_t j = i + 1;
      while (j + 32 <= n &&
             (load_u64(b + j) | load_u64(b + j + 8) | load_u64(b + j + 16) |
              load_u64(b + j + 24)) == 0) {
        j += 32;
      }
      while (j + 8 <= n && load_u64(b + j) == 0) j += 8;
      while (j < n && b[j] == 0) ++j;
      h_ *= fnv_prime_pow(j - i);
      i = j;
    }
  }
  template <typename T>
  void pod(T v) {
    bytes(&v, sizeof(v));
  }
  void str(const std::string& s) {
    pod(static_cast<std::uint64_t>(s.size()));
    bytes(s.data(), s.size());
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = kFnvOffset;
};

// ------------------------------------------------------------ shape rules
// Shared by the writer and the reader, so save_dvr refuses exactly the
// runs whose files DvrFile would reject.

/// a * b, saturating at 2^64 - 1 (header fields are attacker-controlled).
std::uint64_t sat_mul(std::uint64_t a, std::uint64_t b) {
  if (a != 0 && b > std::numeric_limits<std::uint64_t>::max() / a) {
    return std::numeric_limits<std::uint64_t>::max();
  }
  return a * b;
}

/// Entity counts fit the header topology: at most a - 1 local links,
/// h global links, p terminals and one tally row per router. Dragonfly
/// runs meet the bounds exactly; fat-tree runs (pods as groups) under them.
bool entity_counts_fit(std::uint64_t groups, std::uint64_t a,
                       std::uint64_t p, std::uint64_t h, std::uint64_t local,
                       std::uint64_t global, std::uint64_t terminals,
                       std::uint64_t tallies) {
  const std::uint64_t routers = sat_mul(groups, a);
  return local <= sat_mul(routers, a > 0 ? a - 1 : 0) &&
         global <= sat_mul(routers, h) && terminals <= sat_mul(routers, p) &&
         tallies <= routers;
}

/// A sampled run holds at most ceil(end_time / sample_dt) + 1 frames: the
/// samplers tick every sample_dt until end_time. False for NaN fields.
bool frames_fit(std::uint64_t frames, double end_time, double sample_dt) {
  return static_cast<double>(frames) <=
         std::ceil(end_time / sample_dt) + 1.0;
}

// ----------------------------------------------------------------- writer

template <typename T>
DvrType dvr_type_of() {
  if constexpr (std::is_same_v<T, double>) return DvrType::kF64;
  if constexpr (std::is_same_v<T, float>) return DvrType::kF32;
  if constexpr (std::is_same_v<T, std::uint32_t>) return DvrType::kU32;
  if constexpr (std::is_same_v<T, std::uint64_t>) return DvrType::kU64;
  return DvrType::kI32;
}

template <typename T>
void zone_map(const T* v, std::size_t n, double& zmin, double& zmax) {
  zmin = zmax = 0.0;
  if (n == 0) return;
  if constexpr (std::is_same_v<T, double>) {
    kernels::minmax_f64(v, n, zmin, zmax);
  } else if constexpr (std::is_same_v<T, float>) {
    float lo = 0.0f, hi = 0.0f;
    kernels::minmax_f32(v, n, lo, hi);
    zmin = lo;
    zmax = hi;
  } else {
    T lo = v[0], hi = v[0];
    for (std::size_t i = 0; i < n; ++i) {
      lo = v[i] < lo ? v[i] : lo;
      hi = v[i] > hi ? v[i] : hi;
    }
    zmin = static_cast<double>(lo);
    zmax = static_cast<double>(hi);
  }
}

/// One chunk of the file being written: its directory entry (offset filled
/// in by the layout pass) and the encoder that writes exactly `meta.bytes`
/// payload bytes at an 8-byte aligned destination, completing the zone map
/// where it is cheaper to build from the output.
struct ChunkPlan {
  DvrChunk meta;
  std::function<void(unsigned char*, DvrChunk&)> encode;
};

DvrChunk chunk_meta(DvrSection section, std::uint16_t column, DvrType dtype,
                    std::uint64_t rows, std::uint64_t bytes,
                    std::uint64_t row0 = 0) {
  DvrChunk c;
  c.section = static_cast<std::uint16_t>(section);
  c.column = column;
  c.dtype = static_cast<std::uint16_t>(dtype);
  c.rows = rows;
  c.bytes = bytes;
  c.row0 = row0;
  return c;
}

/// Plans one record column: `field` of every record, gathered straight
/// into the output buffer.
template <typename Rec, typename T>
void plan_field(std::vector<ChunkPlan>& plan, DvrSection s,
                std::uint16_t column, const std::vector<Rec>& recs,
                T Rec::*field) {
  plan.push_back({chunk_meta(s, column, dvr_type_of<T>(), recs.size(),
                             recs.size() * sizeof(T)),
                  [&recs, field](unsigned char* dst, DvrChunk& meta) {
                    auto* out = reinterpret_cast<T*>(dst);
                    for (std::size_t i = 0; i < recs.size(); ++i) {
                      out[i] = recs[i].*field;
                    }
                    zone_map(out, recs.size(), meta.zmin, meta.zmax);
                  }});
}

/// Plans a plain typed column (router tallies).
template <typename T>
void plan_values(std::vector<ChunkPlan>& plan, DvrSection s,
                 std::uint16_t column, const std::vector<T>& values) {
  plan.push_back({chunk_meta(s, column, dvr_type_of<T>(), values.size(),
                             values.size() * sizeof(T)),
                  [&values](unsigned char* dst, DvrChunk& meta) {
                    if (!values.empty()) {
                      std::memcpy(dst, values.data(),
                                  values.size() * sizeof(T));
                    }
                    zone_map(values.data(), values.size(), meta.zmin,
                             meta.zmax);
                  }});
}

void plan_links(std::vector<ChunkPlan>& plan, DvrSection s,
                const std::vector<LinkMetrics>& links) {
  using L = LinkMetrics;
  plan_field(plan, s, 0, links, &L::src_router);
  plan_field(plan, s, 1, links, &L::src_port);
  plan_field(plan, s, 2, links, &L::dst_router);
  plan_field(plan, s, 3, links, &L::dst_port);
  plan_field(plan, s, 4, links, &L::traffic);
  plan_field(plan, s, 5, links, &L::sat_time);
  plan_field(plan, s, 6, links, &L::downtime);
  plan_field(plan, s, 7, links, &L::retries);
  plan_field(plan, s, 8, links, &L::pkts_dropped);
}

void plan_terminals(std::vector<ChunkPlan>& plan,
                    const std::vector<TerminalMetrics>& terms) {
  using T = TerminalMetrics;
  const auto s = DvrSection::kTerminals;
  plan_field(plan, s, 0, terms, &T::router);
  plan_field(plan, s, 1, terms, &T::port);
  plan_field(plan, s, 2, terms, &T::data_size);
  plan_field(plan, s, 3, terms, &T::sat_time);
  plan_field(plan, s, 4, terms, &T::packets_finished);
  plan_field(plan, s, 5, terms, &T::sum_latency);
  plan_field(plan, s, 6, terms, &T::sum_hops);
  plan_field(plan, s, 7, terms, &T::job);
  plan_field(plan, s, 8, terms, &T::packets_rerouted);
  plan_field(plan, s, 9, terms, &T::packets_dropped);
  plan_field(plan, s, 10, terms, &T::downtime);
}

const SampledSeries* series_of(const RunMetrics& run, std::size_t id) {
  switch (id) {
    case 0: return &run.local_traffic_ts;
    case 1: return &run.local_sat_ts;
    case 2: return &run.global_traffic_ts;
    case 3: return &run.global_sat_ts;
    case 4: return &run.term_traffic_ts;
    case 5: return &run.term_sat_ts;
  }
  return nullptr;
}

std::size_t series_record_count(const RunMetrics& run, std::size_t id) {
  return id < 2   ? run.local_links.size()
         : id < 4 ? run.global_links.size()
                  : run.terminals.size();
}

DvrSection series_section(std::size_t id) {
  return static_cast<DvrSection>(
      static_cast<std::uint16_t>(DvrSection::kSeriesBase) + id);
}

/// Writes the nonzero bit patterns of vals[0, n) as `nnz` ascending u32
/// offsets followed by their f32 bits.
void encode_sparse(const float* vals, std::size_t n, std::size_t nnz,
                   unsigned char* dst) {
  unsigned char* offs = dst;
  unsigned char* bits = dst + nnz * sizeof(std::uint32_t);
  std::size_t k = 0;
  auto emit = [&](std::size_t i) {
    std::uint32_t b;
    std::memcpy(&b, vals + i, sizeof(b));
    if (b == 0) return;
    const auto off = static_cast<std::uint32_t>(i);
    std::memcpy(offs + k * sizeof(off), &off, sizeof(off));
    std::memcpy(bits + k * sizeof(b), &b, sizeof(b));
    ++k;
  };
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    std::uint64_t pair;  // two floats at once: most pairs are all-zero
    std::memcpy(&pair, vals + i, sizeof(pair));
    if (pair == 0) continue;
    emit(i);
    emit(i + 1);
  }
  if (i < n) emit(i);
  DV_CHECK(k == nnz, "sparse chunk nonzero count changed while encoding");
}

/// Plans one series as 256-frame chunks, each stored sparse when fewer than
/// half of its values have nonzero bits and dense otherwise.
void plan_series(std::vector<ChunkPlan>& plan, std::size_t id,
                 const SampledSeries& s) {
  const DvrSection section = series_section(id);
  const std::size_t entities = s.entities();
  const std::size_t frames = s.frames();
  std::uint16_t ordinal = 0;
  for (std::size_t f0 = 0; f0 < frames; f0 += kDvrSeriesChunkFrames) {
    const std::size_t n =
        std::min(kDvrSeriesChunkFrames, frames - f0) * entities;
    const float* vals = s.data() + f0 * entities;
    const std::size_t nnz = kernels::count_nonzero_bits_f32(vals, n);
    // u32 offsets address at most 2^32 values per chunk.
    const bool sparse = 2 * nnz < n && n <= (std::size_t{1} << 32);
    ChunkPlan c;
    if (sparse) {
      c.meta = chunk_meta(section, ordinal++, DvrType::kSparseF32, n,
                          nnz * dvr_type_size(DvrType::kSparseF32), f0);
      c.encode = [vals, n, nnz](unsigned char* dst, DvrChunk&) {
        encode_sparse(vals, n, nnz, dst);
      };
    } else {
      c.meta = chunk_meta(section, ordinal++, DvrType::kF32, n,
                          n * sizeof(float), f0);
      c.encode = [vals, n](unsigned char* dst, DvrChunk&) {
        std::memcpy(dst, vals, n * sizeof(float));
      };
    }
    zone_map(vals, n, c.meta.zmin, c.meta.zmax);
    plan.push_back(std::move(c));
  }
  // A sampled-but-empty series (entities > 0, no frames yet) still needs
  // its shape recorded; an explicit empty chunk does that.
  if (frames == 0 && entities > 0) {
    plan.push_back({chunk_meta(section, 0, DvrType::kF32, 0, 0),
                    [](unsigned char*, DvrChunk&) {}});
  }
}

}  // namespace

std::size_t dvr_type_size(DvrType t) {
  switch (t) {
    case DvrType::kF64: return 8;
    case DvrType::kF32: return 4;
    case DvrType::kU32: return 4;
    case DvrType::kU64: return 8;
    case DvrType::kI32: return 4;
    case DvrType::kSparseF32: return 8;
  }
  throw Error("unknown .dvr dtype");
}

// ----------------------------------------------------------- content uid

std::uint64_t run_content_uid(const RunMetrics& run) {
  // FNV-1a over a canonical byte stream of every field, column-major in
  // the same order the writer emits chunks, so uid computation and file
  // layout can never drift apart silently.
  Fnv1a h;
  h.pod(run.groups);
  h.pod(run.routers_per_group);
  h.pod(run.terminals_per_router);
  h.pod(run.global_per_router);
  h.str(run.workload);
  h.str(run.routing);
  h.str(run.placement);
  h.pod(run.seed);
  h.pod(run.end_time);
  h.pod(static_cast<std::uint64_t>(run.job_names.size()));
  for (const auto& n : run.job_names) h.str(n);
  auto links = [&h](const std::vector<LinkMetrics>& ls) {
    h.pod(static_cast<std::uint64_t>(ls.size()));
    for (const auto& l : ls) {
      h.pod(l.src_router);
      h.pod(l.src_port);
      h.pod(l.dst_router);
      h.pod(l.dst_port);
      h.pod(l.traffic);
      h.pod(l.sat_time);
      h.pod(l.downtime);
      h.pod(l.retries);
      h.pod(l.pkts_dropped);
    }
  };
  links(run.local_links);
  links(run.global_links);
  h.pod(static_cast<std::uint64_t>(run.terminals.size()));
  for (const auto& t : run.terminals) {
    h.pod(t.router);
    h.pod(t.port);
    h.pod(t.data_size);
    h.pod(t.sat_time);
    h.pod(t.packets_finished);
    h.pod(t.sum_latency);
    h.pod(t.sum_hops);
    h.pod(t.job);
    h.pod(t.packets_rerouted);
    h.pod(t.packets_dropped);
    h.pod(t.downtime);
  }
  h.pod(static_cast<std::uint64_t>(run.router_downtime.size()));
  for (const double d : run.router_downtime) h.pod(d);
  h.pod(static_cast<std::uint64_t>(run.router_retries.size()));
  for (const std::uint64_t c : run.router_retries) h.pod(c);
  h.pod(static_cast<std::uint64_t>(run.router_drops.size()));
  for (const std::uint64_t c : run.router_drops) h.pod(c);
  h.pod(run.sample_dt);
  for (std::size_t id = 0; id < kDvrSeriesCount; ++id) {
    const SampledSeries& s = *series_of(run, id);
    h.pod(static_cast<std::uint64_t>(s.entities()));
    h.pod(static_cast<std::uint64_t>(s.frames()));
    h.bytes(s.data(), s.frames() * s.entities() * sizeof(float));
  }
  return h.value();
}

// ----------------------------------------------------------------- writer

std::uint64_t save_dvr(const RunMetrics& run, const std::string& path) {
  DV_REQUIRE(entity_counts_fit(run.groups, run.routers_per_group,
                               run.terminals_per_router,
                               run.global_per_router, run.local_links.size(),
                               run.global_links.size(), run.terminals.size(),
                               run.router_downtime.size()),
             "cannot pack " + path +
                 ": entity counts exceed the run's topology");
  DV_REQUIRE(run.router_retries.size() == run.router_downtime.size() &&
                 run.router_drops.size() == run.router_downtime.size(),
             "cannot pack " + path + ": router tallies differ in length");
  const std::uint64_t uid = run_content_uid(run);

  std::vector<ChunkPlan> plan;
  plan_links(plan, DvrSection::kLocalLinks, run.local_links);
  plan_links(plan, DvrSection::kGlobalLinks, run.global_links);
  plan_terminals(plan, run.terminals);
  if (!run.router_downtime.empty()) {
    plan_values(plan, DvrSection::kRouterTallies, 0, run.router_downtime);
  }
  if (!run.router_retries.empty()) {
    plan_values(plan, DvrSection::kRouterTallies, 1, run.router_retries);
  }
  if (!run.router_drops.empty()) {
    plan_values(plan, DvrSection::kRouterTallies, 2, run.router_drops);
  }
  if (run.has_time_series()) {
    for (std::size_t id = 0; id < kDvrSeriesCount; ++id) {
      const SampledSeries& s = *series_of(run, id);
      DV_REQUIRE(s.entities() == 0 ||
                     s.entities() == series_record_count(run, id),
                 "cannot pack " + path +
                     ": a sampled series disagrees with its entity count");
      DV_REQUIRE(frames_fit(s.frames(), run.end_time, run.sample_dt),
                 "cannot pack " + path + ": " + std::to_string(s.frames()) +
                     " sampled frames exceed end_time / sample_dt");
      plan_series(plan, id, s);
    }
  }

  // Layout: header + string table, each payload at the next 8-byte
  // boundary (mmap'd doubles stay naturally aligned), then the directory.
  std::uint64_t head = kFixedHeaderBytes + 3 * 4 + run.workload.size() +
                       run.routing.size() + run.placement.size() + 4;
  for (const auto& n : run.job_names) head += 4 + n.size();
  std::uint64_t at = head;
  for (auto& c : plan) {
    at = (at + 7) / 8 * 8;
    c.meta.offset = at;
    at += c.meta.bytes;
  }
  const std::uint64_t dir_offset = at;
  const std::uint64_t total = dir_offset + plan.size() * kDirEntryBytes;
  const auto buf = std::make_unique_for_overwrite<unsigned char[]>(total);

  ByteCursor w(buf.get(), total);
  w.raw(kMagic, sizeof(kMagic));
  w.pod(kDvrVersion);
  w.pod(uid);
  w.pod(run.groups);
  w.pod(run.routers_per_group);
  w.pod(run.terminals_per_router);
  w.pod(run.global_per_router);
  w.pod(run.seed);
  w.pod(run.end_time);
  w.pod(run.sample_dt);
  w.pod(static_cast<std::uint32_t>(run.local_links.size()));
  w.pod(static_cast<std::uint32_t>(run.global_links.size()));
  w.pod(static_cast<std::uint32_t>(run.terminals.size()));
  w.pod(static_cast<std::uint32_t>(run.router_downtime.size()));
  w.pod(static_cast<std::uint32_t>(plan.size()));
  w.pod(dir_offset);
  w.str(run.workload);
  w.str(run.routing);
  w.str(run.placement);
  w.pod(static_cast<std::uint32_t>(run.job_names.size()));
  for (const auto& n : run.job_names) w.str(n);
  DV_CHECK(w.at() == head, "dvr header size mismatch");

  for (auto& c : plan) {
    w.pad_to(c.meta.offset);
    c.encode(buf.get() + c.meta.offset, c.meta);
    w.skip(c.meta.bytes);
  }
  for (const auto& c : plan) {
    w.pod(c.meta.section);
    w.pod(c.meta.column);
    w.pod(c.meta.dtype);
    w.pod(static_cast<std::uint16_t>(0));  // reserved
    w.pod(c.meta.offset);
    w.pod(c.meta.bytes);
    w.pod(c.meta.rows);
    w.pod(c.meta.row0);
    w.pod(c.meta.zmin);
    w.pod(c.meta.zmax);
  }
  DV_CHECK(w.at() == total, "dvr file size mismatch");

  atomic_write_file(path, buf.get(), total);
  return uid;
}

void atomic_write_file(const std::string& path, const void* data,
                       std::size_t size) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  DV_REQUIRE(fd >= 0, "cannot open for writing: " + tmp);
  const auto* p = static_cast<const unsigned char*>(data);
  std::size_t put = 0;
  bool ok = true;
  while (ok && put < size) {
    const ssize_t n = ::write(fd, p + put, size - put);
    if (n < 0) {
      ok = false;
    } else {
      put += static_cast<std::size_t>(n);
    }
  }
  // Durability before visibility: without this fsync the rename below can
  // survive a power loss while the data does not, publishing a truncated
  // file under the final name on some filesystems.
  if (ok && ::fsync(fd) != 0) ok = false;
  ::close(fd);
  if (!ok) {
    ::unlink(tmp.c_str());
    throw Error("write failed: " + tmp);
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    throw Error("cannot rename " + tmp + " -> " + path);
  }
  // Best-effort: persist the directory entry too. Some filesystems refuse
  // to fsync a directory fd, so failures here are not fatal — the data
  // itself is already durable.
  std::string dir = std::filesystem::path(path).parent_path().string();
  if (dir.empty()) dir = ".";
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
}

bool is_dvr_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is.good()) return false;
  char magic[4] = {};
  is.read(magic, sizeof(magic));
  return is.gcount() == sizeof(magic) &&
         std::memcmp(magic, kMagic, sizeof(magic)) == 0;
}

RunMetrics load_dvr(const std::string& path) {
  return DvrFile(path).load_all();
}

// ----------------------------------------------------------------- reader

DvrStats dvr_stats() {
  DvrStats out;
  Stats& s = stats();
  out.opens = s.opens.load(std::memory_order_relaxed);
  out.bytes_mapped = s.bytes_mapped.load(std::memory_order_relaxed);
  out.chunks_read = s.chunks_read.load(std::memory_order_relaxed);
  out.chunk_bytes_read = s.chunk_bytes_read.load(std::memory_order_relaxed);
  out.chunks_pruned = s.chunks_pruned.load(std::memory_order_relaxed);
  return out;
}

void dvr_reset_stats() {
  Stats& s = stats();
  s.opens.store(0, std::memory_order_relaxed);
  s.bytes_mapped.store(0, std::memory_order_relaxed);
  s.chunks_read.store(0, std::memory_order_relaxed);
  s.chunk_bytes_read.store(0, std::memory_order_relaxed);
  s.chunks_pruned.store(0, std::memory_order_relaxed);
}

DvrFile::DvrFile(const std::string& path) : path_(path) {
  fd_ = ::open(path.c_str(), O_RDONLY);
  DV_REQUIRE(fd_ >= 0, "cannot open for reading: " + path);
  struct stat st = {};
  if (::fstat(fd_, &st) != 0 || st.st_size <= 0) {
    ::close(fd_);
    fd_ = -1;
    throw Error("cannot stat .dvr file: " + path);
  }
  size_ = static_cast<std::uint64_t>(st.st_size);
  void* m = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd_, 0);
  if (m != MAP_FAILED) {
    map_ = static_cast<const unsigned char*>(m);
  } else {
    // mmap can fail on exotic filesystems; fall back to a full read so
    // the format stays usable (at the cost of laziness).
    fallback_.resize(size_);
    std::uint64_t got = 0;
    while (got < size_) {
      const ssize_t r = ::read(fd_, fallback_.data() + got, size_ - got);
      if (r <= 0) {
        ::close(fd_);
        fd_ = -1;
        throw Error("cannot read .dvr file: " + path);
      }
      got += static_cast<std::uint64_t>(r);
    }
    map_ = fallback_.data();
  }
  stats().opens.fetch_add(1, std::memory_order_relaxed);
  stats().bytes_mapped.fetch_add(size_, std::memory_order_relaxed);
  DV_OBS_COUNT("metrics.dvr.opens", 1);

  try {
    ByteReader r(map_, size_, path);
    DV_REQUIRE(size_ >= sizeof(kMagic) &&
                   std::memcmp(map_, kMagic, sizeof(kMagic)) == 0,
               "not a .dvr file: " + path);
    r.seek(sizeof(kMagic));
    version_ = r.pod<std::uint32_t>();
    DV_REQUIRE(version_ >= kDvrMinVersion && version_ <= kDvrVersion,
               "unsupported .dvr version " + std::to_string(version_) +
                   " in " + path + " (reader supports " +
                   std::to_string(kDvrMinVersion) + ".." +
                   std::to_string(kDvrVersion) + ")");
    run_uid_ = r.pod<std::uint64_t>();
    groups_ = r.pod<std::uint32_t>();
    routers_per_group_ = r.pod<std::uint32_t>();
    terminals_per_router_ = r.pod<std::uint32_t>();
    global_per_router_ = r.pod<std::uint32_t>();
    seed_ = r.pod<std::uint64_t>();
    end_time_ = r.pod<double>();
    sample_dt_ = r.pod<double>();
    n_local_ = r.pod<std::uint32_t>();
    n_global_ = r.pod<std::uint32_t>();
    n_terminals_ = r.pod<std::uint32_t>();
    n_tallies_ = r.pod<std::uint32_t>();
    DV_REQUIRE(entity_counts_fit(groups_, routers_per_group_,
                                 terminals_per_router_, global_per_router_,
                                 n_local_, n_global_, n_terminals_,
                                 n_tallies_),
               "entity counts exceed the header topology in " + path);
    const auto n_chunks = r.pod<std::uint32_t>();
    const auto dir_offset = r.pod<std::uint64_t>();
    workload_ = r.str();
    routing_ = r.str();
    placement_ = r.str();
    const auto n_jobs = r.pod<std::uint32_t>();
    // Every job name costs at least its 4-byte length.
    DV_REQUIRE(n_jobs <= r.left() / 4, "truncated .dvr job table: " + path);
    job_names_.reserve(n_jobs);
    for (std::uint32_t i = 0; i < n_jobs; ++i) job_names_.push_back(r.str());

    r.seek(dir_offset);
    DV_REQUIRE(n_chunks <= r.left() / kDirEntryBytes,
               "chunk directory past end of .dvr file: " + path);
    chunks_.reserve(n_chunks);
    // Frames seen so far per series, and whether a short (final) chunk
    // has closed it.
    std::array<bool, kDvrSeriesCount> closed{};
    for (std::uint32_t i = 0; i < n_chunks; ++i) {
      DvrChunk c;
      c.section = r.pod<std::uint16_t>();
      c.column = r.pod<std::uint16_t>();
      c.dtype = r.pod<std::uint16_t>();
      r.pod<std::uint16_t>();  // reserved
      c.offset = r.pod<std::uint64_t>();
      c.bytes = r.pod<std::uint64_t>();
      c.rows = r.pod<std::uint64_t>();
      c.row0 = r.pod<std::uint64_t>();
      c.zmin = r.pod<double>();
      c.zmax = r.pod<double>();
      // Subtraction/division forms: the additive `offset + bytes <= size`
      // and multiplicative `bytes == rows * elem` checks both wrap on
      // crafted uint64 values and would admit out-of-range chunks.
      DV_REQUIRE(c.offset <= size_ && c.bytes <= size_ - c.offset,
                 "chunk past end of .dvr file: " + path);
      DV_REQUIRE(c.dtype >= static_cast<std::uint16_t>(DvrType::kF64) &&
                     c.dtype <= static_cast<std::uint16_t>(DvrType::kSparseF32),
                 "unknown chunk dtype " + std::to_string(c.dtype) + " in " +
                     path);
      const auto dtype = static_cast<DvrType>(c.dtype);
      const std::uint64_t elem = dvr_type_size(dtype);
      const bool sparse = dtype == DvrType::kSparseF32;
      if (sparse) {
        // (offset, bits) pairs: at most one per value of the chunk.
        DV_REQUIRE(c.bytes % elem == 0 && c.bytes / elem <= c.rows,
                   "sparse chunk size mismatch in " + path);
      } else {
        DV_REQUIRE(c.bytes % elem == 0 && c.rows == c.bytes / elem,
                   "chunk size/dtype mismatch in " + path);
      }
      const auto series_base =
          static_cast<std::uint16_t>(DvrSection::kSeriesBase);
      if (c.section < series_base ||
          c.section >= series_base + kDvrSeriesCount) {
        DV_REQUIRE(!sparse, "sparse chunk outside a series in " + path);
        chunks_.push_back(c);
        continue;
      }
      // Series chunks must tile a frames x entities slab as contiguous
      // 256-frame chunks in directory order, with no more frames than the
      // run's end_time / sample_dt allows. series() and series_range_sum
      // rely on exactly this shape; payload sizes cannot bound it, because
      // a sparse chunk may store nothing at all.
      const std::size_t id = c.section - series_base;
      const std::uint64_t entities = series_entities(id);
      std::uint64_t& frames = series_frames_[id];
      DV_REQUIRE(has_time_series(),
                 "series chunk in an unsampled run in " + path);
      DV_REQUIRE(c.dtype == static_cast<std::uint16_t>(DvrType::kF32) ||
                     sparse,
                 "series chunk dtype mismatch in " + path);
      DV_REQUIRE(!closed[id] && c.row0 == frames,
                 "series chunks not contiguous in " + path);
      if (c.rows == 0) {
        closed[id] = true;  // sampled-but-empty marker
        chunks_.push_back(c);
        continue;
      }
      DV_REQUIRE(entities > 0,
                 "series chunk for an empty entity class in " + path);
      DV_REQUIRE(c.rows % entities == 0,
                 "series chunk rows not a multiple of the entity count in " +
                     path);
      const std::uint64_t chunk_frames = c.rows / entities;
      DV_REQUIRE(chunk_frames <= kDvrSeriesChunkFrames,
                 "series chunk longer than " +
                     std::to_string(kDvrSeriesChunkFrames) + " frames in " +
                     path);
      closed[id] = chunk_frames < kDvrSeriesChunkFrames;
      frames += chunk_frames;
      DV_REQUIRE(frames_fit(frames, end_time_, sample_dt_),
                 "series chunk frames beyond end_time / sample_dt in " + path);
      // Keeps the frames x entities slab arithmetic overflow-free.
      DV_REQUIRE(frames <= std::numeric_limits<std::size_t>::max() /
                               sizeof(float) / entities,
                 "series too large to address in " + path);
      chunks_.push_back(c);
    }
  } catch (...) {
    if (map_ != nullptr && fallback_.empty()) {
      ::munmap(const_cast<unsigned char*>(map_), size_);
    }
    ::close(fd_);
    throw;
  }
}

DvrFile::~DvrFile() {
  if (map_ != nullptr && fallback_.empty()) {
    ::munmap(const_cast<unsigned char*>(map_), size_);
  }
  if (fd_ >= 0) ::close(fd_);
}

const unsigned char* DvrFile::payload(const DvrChunk& c) const {
  stats().chunks_read.fetch_add(1, std::memory_order_relaxed);
  stats().chunk_bytes_read.fetch_add(c.bytes, std::memory_order_relaxed);
  DV_OBS_COUNT("metrics.dvr.chunks_read", 1);
  return map_ + c.offset;
}

const DvrChunk* DvrFile::try_chunk(DvrSection s,
                                   std::uint16_t column) const {
  for (const auto& c : chunks_) {
    if (c.section == static_cast<std::uint16_t>(s) && c.column == column) {
      return &c;
    }
  }
  return nullptr;
}

const DvrChunk& DvrFile::find_chunk(DvrSection s,
                                    std::uint16_t column) const {
  const DvrChunk* c = try_chunk(s, column);
  DV_REQUIRE(c != nullptr, "missing chunk in " + path_ + " (section " +
                               std::to_string(static_cast<int>(s)) +
                               ", column " + std::to_string(column) + ")");
  return *c;
}

namespace {

/// Copies a record column out, checking its dtype and that it holds one
/// value per entity of its class.
template <typename T>
std::vector<T> read_column(const DvrFile& f, const DvrChunk& c,
                           const unsigned char* p, std::size_t n) {
  DV_REQUIRE(static_cast<DvrType>(c.dtype) == dvr_type_of<T>(),
             "chunk dtype mismatch in " + f.path());
  DV_REQUIRE(c.rows == n, "column row count mismatch in " + f.path());
  std::vector<T> out(n);
  if (n > 0) std::memcpy(out.data(), p, c.bytes);
  return out;
}

}  // namespace

RunMetrics DvrFile::load_all() const {
  RunMetrics m;
  m.groups = groups_;
  m.routers_per_group = routers_per_group_;
  m.terminals_per_router = terminals_per_router_;
  m.global_per_router = global_per_router_;
  m.workload = workload_;
  m.routing = routing_;
  m.placement = placement_;
  m.seed = seed_;
  m.end_time = end_time_;
  m.sample_dt = sample_dt_;
  m.job_names = job_names_;

  // One column of section s with n rows, typed by the tag argument.
  auto column = [this](DvrSection s, std::uint16_t id, std::size_t n,
                       auto tag) {
    const DvrChunk& c = find_chunk(s, id);
    return read_column<decltype(tag)>(*this, c, payload(c), n);
  };
  using u32 = std::uint32_t;
  using u64 = std::uint64_t;
  auto read_links = [&column](DvrSection s, std::uint32_t n) {
    std::vector<LinkMetrics> links(n);
    if (n == 0) return links;
    const auto sr = column(s, 0, n, u32{});
    const auto sp = column(s, 1, n, u32{});
    const auto dr = column(s, 2, n, u32{});
    const auto dp = column(s, 3, n, u32{});
    const auto tr = column(s, 4, n, double{});
    const auto sa = column(s, 5, n, double{});
    const auto dn = column(s, 6, n, double{});
    const auto re = column(s, 7, n, u64{});
    const auto pd = column(s, 8, n, u64{});
    for (std::uint32_t i = 0; i < n; ++i) {
      links[i].src_router = sr[i];
      links[i].src_port = sp[i];
      links[i].dst_router = dr[i];
      links[i].dst_port = dp[i];
      links[i].traffic = tr[i];
      links[i].sat_time = sa[i];
      links[i].downtime = dn[i];
      links[i].retries = re[i];
      links[i].pkts_dropped = pd[i];
    }
    return links;
  };
  m.local_links = read_links(DvrSection::kLocalLinks, n_local_);
  m.global_links = read_links(DvrSection::kGlobalLinks, n_global_);

  if (n_terminals_ > 0) {
    const auto s = DvrSection::kTerminals;
    const std::uint32_t n = n_terminals_;
    const auto ro = column(s, 0, n, u32{});
    const auto po = column(s, 1, n, u32{});
    const auto ds = column(s, 2, n, double{});
    const auto sa = column(s, 3, n, double{});
    const auto pf = column(s, 4, n, u64{});
    const auto sl = column(s, 5, n, double{});
    const auto sh = column(s, 6, n, double{});
    const auto jb = column(s, 7, n, std::int32_t{});
    const auto pr = column(s, 8, n, u64{});
    const auto pd = column(s, 9, n, u64{});
    const auto dn = column(s, 10, n, double{});
    m.terminals.resize(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      auto& t = m.terminals[i];
      t.router = ro[i];
      t.port = po[i];
      t.data_size = ds[i];
      t.sat_time = sa[i];
      t.packets_finished = pf[i];
      t.sum_latency = sl[i];
      t.sum_hops = sh[i];
      t.job = jb[i];
      t.packets_rerouted = pr[i];
      t.packets_dropped = pd[i];
      t.downtime = dn[i];
    }
  }

  if (n_tallies_ > 0) {
    const auto s = DvrSection::kRouterTallies;
    m.router_downtime = column(s, 0, n_tallies_, double{});
    m.router_retries = column(s, 1, n_tallies_, u64{});
    m.router_drops = column(s, 2, n_tallies_, u64{});
  }

  if (has_time_series()) {
    m.local_traffic_ts = series(0);
    m.local_sat_ts = series(1);
    m.global_traffic_ts = series(2);
    m.global_sat_ts = series(3);
    m.term_traffic_ts = series(4);
    m.term_sat_ts = series(5);
  }
  return m;
}

std::size_t DvrFile::series_entities(std::size_t id) const {
  switch (id) {
    case 0:
    case 1: return n_local_;
    case 2:
    case 3: return n_global_;
    case 4:
    case 5: return n_terminals_;
  }
  throw Error("bad series id");
}

std::size_t DvrFile::series_frames(std::size_t id) const {
  DV_REQUIRE(id < kDvrSeriesCount, "bad series id");
  return series_frames_[id];
}

namespace {

/// Visits (offset, bits) of every value a sparse chunk stores, checking
/// that offsets ascend strictly and stay below the chunk's row count.
template <typename F>
void for_each_sparse(const DvrChunk& c, const unsigned char* p,
                     const std::string& path, F&& visit) {
  const std::uint64_t nnz = c.bytes / dvr_type_size(DvrType::kSparseF32);
  const unsigned char* bits = p + nnz * sizeof(std::uint32_t);
  std::uint64_t next = 0;  // smallest admissible offset
  for (std::uint64_t k = 0; k < nnz; ++k) {
    std::uint32_t off, b;
    std::memcpy(&off, p + k * sizeof(off), sizeof(off));
    std::memcpy(&b, bits + k * sizeof(b), sizeof(b));
    DV_REQUIRE(off >= next && off < c.rows,
               "sparse chunk offset out of order or range in " + path);
    next = std::uint64_t{off} + 1;
    visit(off, b);
  }
}

bool is_sparse(const DvrChunk& c) {
  return c.dtype == static_cast<std::uint16_t>(DvrType::kSparseF32);
}

}  // namespace

SampledSeries DvrFile::series(std::size_t id) const {
  const std::size_t entities = series_entities(id);
  const std::size_t frames = series_frames(id);
  // Zero-filled: a sparse chunk writes only its nonzeros.
  std::vector<float> data(frames * entities);
  const auto section = static_cast<std::uint16_t>(series_section(id));
  for (const auto& c : chunks_) {
    if (c.section != section || c.rows == 0) continue;
    // The constructor admits only chunks whose frame range tiles the slab;
    // this invariant is what makes the raw copies below safe.
    DV_CHECK(c.row0 * entities + c.rows <= data.size(),
             "series chunk outside slab in " + path_);
    float* dst = data.data() + c.row0 * entities;
    if (is_sparse(c)) {
      for_each_sparse(c, payload(c), path_,
                      [dst](std::uint32_t off, std::uint32_t bits) {
                        std::memcpy(dst + off, &bits, sizeof(bits));
                      });
    } else {
      std::memcpy(dst, payload(c), c.bytes);
    }
  }
  return SampledSeries::adopt(entities, sample_dt_, std::move(data));
}

double DvrFile::series_range_sum(std::size_t id, std::size_t entity,
                                 std::size_t f0, std::size_t f1,
                                 bool prune) const {
  const std::size_t entities = series_entities(id);
  DV_REQUIRE(entity < entities, "entity out of range");
  DV_REQUIRE(f0 <= f1 && f1 <= series_frames(id), "bad frame range");
  const auto section = static_cast<std::uint16_t>(series_section(id));
  double acc = 0.0;
  // Frame-chunks are contiguous in directory order (checked at open), and
  // each one continues the running sum, so the accumulation order is the
  // scalar loop's.
  for (const auto& c : chunks_) {
    if (c.section != section || c.rows == 0) continue;
    const std::size_t cf0 = c.row0;
    const std::size_t cf1 = c.row0 + c.rows / entities;
    const std::size_t lo = std::max(f0, cf0);
    const std::size_t hi = std::min(f1, cf1);
    if (lo >= hi) continue;
    if (prune && c.zmin == 0.0 && c.zmax == 0.0) {
      // Zone map proves every value in the chunk is (+/-)0.0f; adding
      // zeros to an accumulator that starts at +0.0 never changes its
      // bits, so the skip is exact, not approximate.
      stats().chunks_pruned.fetch_add(1, std::memory_order_relaxed);
      DV_OBS_COUNT("metrics.dvr.chunks_pruned", 1);
      continue;
    }
    if (is_sparse(c)) {
      // Only the absent values are skipped, and those are +0.0.
      const std::uint64_t begin = (lo - cf0) * entities;
      const std::uint64_t end = (hi - cf0) * entities;
      for_each_sparse(c, payload(c), path_,
                      [&](std::uint32_t off, std::uint32_t bits) {
                        if (off >= begin && off < end &&
                            off % entities == entity) {
                          acc += static_cast<double>(
                              std::bit_cast<float>(bits));
                        }
                      });
    } else {
      const auto* vals = reinterpret_cast<const float*>(payload(c));
      acc = kernels::strided_sum(vals, entities, entity, lo - cf0, hi - cf0,
                                 acc);
    }
  }
  return acc;
}

}  // namespace dv::metrics
