// perfbench: the repository benchmark driver. Runs one workload against the
// simulator from the outside -- Testbed ctor/start/run, IorRunner::run and
// the client/DFS/DFuse/H5 file calls -- timing each call itself, reading layer
// counters only through public accessors, and checking every output.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// A run repeats the workload (fresh testbed, same seed) as often as fits in
// --seconds, at least three times, and reports the median of each metric over
// the repetitions. Simulated metrics must repeat exactly across repetitions.
// Host times are scaled to a reference host speed by timing a fixed
// calibration pass around each timed interval.
// --trace 1 additionally reruns the workload once with a TraceLog attached,
// reports the per-layer table, and checks that tracing perturbed nothing.
// The last stdout line is one JSON object (see README.md).
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "ior/ior.hpp"
#include "sim/random.hpp"
#include "sim/sync.hpp"

// ---------------------------------------------------------------------------
// Host allocation counter: the replaced global operator new/delete of this
// binary count every heap allocation the simulator makes.

namespace {

std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};

void* counted_alloc(std::size_t n, std::size_t align = 0) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  if (n == 0) n = 1;
  void* p = nullptr;
  if (align == 0) {
    p = std::malloc(n);
  } else {
    p = std::aligned_alloc(align, (n + align - 1) / align * align);
  }
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace {

using namespace daosim;
using Clock = std::chrono::steady_clock;
using Hist = telemetry::DurationHistogram::State;
using sim::CoTask;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Host counters from outside the library.

struct HostSample {
  double user_s = 0;
  double sys_s = 0;
  std::uint64_t minor_faults = 0;
  std::uint64_t allocs = 0;
  std::uint64_t alloc_bytes = 0;

  static HostSample now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    HostSample h;
    h.user_s = double(ru.ru_utime.tv_sec) + double(ru.ru_utime.tv_usec) * 1e-6;
    h.sys_s = double(ru.ru_stime.tv_sec) + double(ru.ru_stime.tv_usec) * 1e-6;
    h.minor_faults = std::uint64_t(ru.ru_minflt);
    h.allocs = g_allocs.load(std::memory_order_relaxed);
    h.alloc_bytes = g_alloc_bytes.load(std::memory_order_relaxed);
    return h;
  }

  /// What happened between two samples.
  HostSample operator-(const HostSample& b) const {
    return {user_s - b.user_s, sys_s - b.sys_s, minor_faults - b.minor_faults, allocs - b.allocs,
            alloc_bytes - b.alloc_bytes};
  }
  HostSample& operator+=(const HostSample& d) {
    user_s += d.user_s;
    sys_s += d.sys_s;
    minor_faults += d.minor_faults;
    allocs += d.allocs;
    alloc_bytes += d.alloc_bytes;
    return *this;
  }
};

// ---------------------------------------------------------------------------
// Host speed. The VM this benchmark was written on runs the same work up to
// 40 % slower for minutes at a time (see README.md). So a fixed calibration
// pass is timed right before and after every timed interval, and host times
// are reported scaled to a host on which one pass takes kCalRefS: measured
// seconds x kCalRefS / mean of the two passes. The pass does the
// simulator's two kinds of host work, random memory access and std::map
// churn with small allocations, and calls no daosim code, so a change to
// the simulator cannot move it.

constexpr double kCalRefS = 0.07;
std::atomic<std::uint64_t> g_cal_sink{0};

double calibrate() {
  static std::vector<std::uint64_t> mem(std::size_t(2) << 20);  // 16 MiB
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  std::uint64_t acc = 0;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  const auto t0 = Clock::now();
  for (int i = 0; i < 2'000'000; ++i) {
    std::uint64_t& m = mem[next() & (mem.size() - 1)];
    m += x;
    acc += m;
  }
  std::map<std::uint64_t, std::vector<char>> tree;
  for (int i = 0; i < 80'000; ++i) {
    const std::uint64_t k = next() & 0xFFFF;
    const auto it = tree.find(k);
    if (it == tree.end()) {
      tree.emplace(k, std::vector<char>(16 + (x >> 58)));
    } else {
      acc += it->second.size();
      tree.erase(it);
    }
  }
  tree.clear();
  const double s = seconds_since(t0);
  g_cal_sink.store(acc, std::memory_order_relaxed);  // keeps the work from being optimized away
  return s;
}

double scale_to_ref(double cal_before, double cal_after) {
  return kCalRefS / ((cal_before + cal_after) / 2);
}

/// Resets the process's resident-memory high-water mark (VmHWM) to its
/// current size, after handing freed heap back to the kernel, so the next
/// peak_rss_mb() covers only what runs after this call. False where the
/// kernel refuses; peak_rss_mb() then reads the whole process's peak.
bool reset_peak_rss() {
  malloc_trim(0);
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool wrote = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && wrote;
}

/// VmHWM from /proc/self/status, or ru_maxrss where that is unreadable.
double peak_rss_mb() {
  std::uint64_t kb = 0;
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %" SCNu64, &kb) == 1) break;
    }
    std::fclose(f);
  }
  if (kb == 0) {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    kb = std::uint64_t(ru.ru_maxrss);
  }
  return double(kb) / 1024.0;
}

// ---------------------------------------------------------------------------
// Layer counters, read through the testbed's public accessors.

std::uint64_t counter(const telemetry::Registry& r, const std::string& path) {
  const auto* c = r.find<telemetry::Counter>(path);
  return c != nullptr ? c->value() : 0;
}

Hist hist(const telemetry::Registry& r, const std::string& path) {
  const auto* h = r.find<telemetry::DurationHistogram>(path);
  return h != nullptr ? h->state() : Hist{};
}

bool has_prefix(const std::string& s, const char* prefix) { return s.rfind(prefix, 0) == 0; }

struct Layers {
  std::uint64_t events = 0;
  std::uint64_t updates = 0, fetches = 0, stream_misses = 0;
  vos::VosContainer::TreeStats vos;
  std::uint64_t agg_runs = 0, agg_retired = 0, agg_flattened = 0, agg_deferred = 0;
  std::uint64_t net_messages = 0, net_wire_bytes = 0;
  Hist net_queue;
  std::uint64_t rpcs_saved = 0, extents_coalesced = 0, retry_attempts = 0;
  Hist update_rpc, fetch_rpc;  // client-observed, summed over clients
  Hist svc_update, svc_fetch, update_extents;
  double queue_depth_sum = 0;
  std::uint64_t queue_depth_samples = 0;

  static Layers read(cluster::Testbed& tb) {
    Layers l;
    l.events = tb.sched().events_processed();
    for (std::uint32_t e = 0; e < tb.engine_count(); ++e) {
      engine::Engine& eng = tb.engine(e);
      l.updates += eng.updates_served();
      l.fetches += eng.fetches_served();
      l.stream_misses += eng.shard_cache_misses();
      for (std::uint32_t t = 0; t < eng.target_count(); ++t) l.vos += eng.vos_target(t).tree_stats();
    }
    for (const telemetry::Registry* r : tb.registries()) {
      const std::string& root = r->root();
      if (root == "fabric") {
        l.net_messages += counter(*r, "messages");
        l.net_queue += hist(*r, "queue_delay_ns");
        for (const auto& [path, node] : r->nodes()) {
          const auto* c = dynamic_cast<const telemetry::Counter*>(node.get());
          if (c != nullptr && has_prefix(path, "node/") && path.ends_with("/tx_bytes")) {
            l.net_wire_bytes += c->value();
          }
        }
      } else if (has_prefix(root, "engine/")) {
        l.agg_runs += counter(*r, "vos/agg/runs");
        l.agg_retired += counter(*r, "vos/agg/extents_retired");
        l.agg_flattened += counter(*r, "vos/agg/bytes_flattened");
        l.agg_deferred += counter(*r, "vos/agg/deferred_on_floor");
        l.svc_update += hist(*r, "svc/update/time_ns");
        l.svc_fetch += hist(*r, "svc/fetch/time_ns");
        l.update_extents += hist(*r, "rpc/obj_update/extents_per_rpc");
        for (const auto& [path, node] : r->nodes()) {
          const auto* g = dynamic_cast<const telemetry::StatGauge*>(node.get());
          if (g != nullptr && has_prefix(path, "target/")) {
            l.queue_depth_sum += g->stats().mean() * double(g->stats().count());
            l.queue_depth_samples += g->stats().count();
          }
        }
      } else if (has_prefix(root, "client/")) {
        l.rpcs_saved += counter(*r, "batch/rpcs_saved");
        l.extents_coalesced += counter(*r, "batch/extents_coalesced");
        l.retry_attempts += counter(*r, "retry/attempts");
      }
    }
    l.update_rpc = tb.client_rpc_latency("update");
    l.fetch_rpc = tb.client_rpc_latency("fetch");
    return l;
  }

  /// Work done between two readings.
  Layers operator-(const Layers& b) const {
    Layers d;
    d.events = events - b.events;
    d.updates = updates - b.updates;
    d.fetches = fetches - b.fetches;
    d.stream_misses = stream_misses - b.stream_misses;
    d.vos.lookups = vos.lookups - b.vos.lookups;
    d.vos.inserts = vos.inserts - b.vos.inserts;
    d.vos.extent_merges = vos.extent_merges - b.vos.extent_merges;
    d.vos.extent_probes = vos.extent_probes - b.vos.extent_probes;
    d.agg_runs = agg_runs - b.agg_runs;
    d.agg_retired = agg_retired - b.agg_retired;
    d.agg_flattened = agg_flattened - b.agg_flattened;
    d.agg_deferred = agg_deferred - b.agg_deferred;
    d.net_messages = net_messages - b.net_messages;
    d.net_wire_bytes = net_wire_bytes - b.net_wire_bytes;
    d.net_queue = net_queue - b.net_queue;
    d.rpcs_saved = rpcs_saved - b.rpcs_saved;
    d.extents_coalesced = extents_coalesced - b.extents_coalesced;
    d.retry_attempts = retry_attempts - b.retry_attempts;
    d.update_rpc = update_rpc - b.update_rpc;
    d.fetch_rpc = fetch_rpc - b.fetch_rpc;
    d.svc_update = svc_update - b.svc_update;
    d.svc_fetch = svc_fetch - b.svc_fetch;
    d.update_extents = update_extents - b.update_extents;
    d.queue_depth_sum = queue_depth_sum - b.queue_depth_sum;
    d.queue_depth_samples = queue_depth_samples - b.queue_depth_samples;
    return d;
  }
};

/// Bytes the engines' nodes received and sent on the fabric, from its
/// per-node counters.
struct EngineWire {
  std::uint64_t rx = 0, tx = 0;

  static EngineWire read(cluster::Testbed& tb) {
    EngineWire w;
    for (const telemetry::Registry* r : tb.registries()) {
      if (r->root() != "fabric") continue;
      for (std::uint32_t e = 0; e < tb.engine_count(); ++e) {
        const net::NodeId n = tb.engine(e).node();
        w.rx += counter(*r, strfmt("node/%u/rx_bytes", unsigned(n)));
        w.tx += counter(*r, strfmt("node/%u/tx_bytes", unsigned(n)));
      }
    }
    return w;
  }
};

std::uint64_t pool_commands_applied(cluster::Testbed& tb) {
  std::uint64_t n = 0;
  for (const telemetry::Registry* r : tb.registries()) {
    if (has_prefix(r->root(), "pool/")) n = std::max(n, counter(*r, "commands_applied"));
  }
  return n;
}

// ---------------------------------------------------------------------------
// Workloads.

enum class Iface : std::uint8_t { dfs, mpiio, hdf5, daos };
constexpr std::array<Iface, 4> kIfaces{Iface::dfs, Iface::mpiio, Iface::hdf5, Iface::daos};

const char* iface_name(Iface i) {
  switch (i) {
    case Iface::dfs: return "dfs";
    case Iface::mpiio: return "mpiio";
    case Iface::hdf5: return "hdf5";
    case Iface::daos: return "daos";
  }
  return "?";
}

ior::Api ior_api(Iface i) {
  switch (i) {
    case Iface::dfs: return ior::Api::dfs;
    case Iface::mpiio: return ior::Api::mpiio;
    case Iface::hdf5: return ior::Api::hdf5;
    case Iface::daos: return ior::Api::daos_array;
  }
  return ior::Api::dfs;
}

struct IorShape {
  std::uint64_t transfer = 0;
  std::uint64_t block = 0;
  bool file_per_process = true;
};

// Paper testbed (8 servers x 2 engines x 8 targets); IOR runs 8 client
// nodes x 16 ranks.
constexpr std::uint32_t kIorClientNodes = 8;
constexpr std::uint32_t kIorPpn = 16;

// overwrite_mixed shape: kOwNodes x kOwClientsPerNode closed-loop clients,
// each owning one kOwObject-byte object.
constexpr std::uint32_t kOwNodes = 4;
constexpr std::uint32_t kOwClientsPerNode = 4;
constexpr std::uint64_t kOwObject = 512 * kKiB;
constexpr std::uint64_t kOwPrefill = 64 * kKiB;
constexpr std::uint64_t kOwMinExtent = 4 * kKiB;
constexpr std::uint64_t kOwMaxExtent = 64 * kKiB;
constexpr std::uint32_t kOwOpsPerClient = 600;
// Idle simulated time at the end of set-up: ten aggregation ticks, longer
// than a first snap_list query plus its redirect to the leader.
constexpr sim::Time kOwSettle = 100 * sim::kMs;

struct Workload {
  std::string name;
  std::optional<IorShape> ior;  // empty: overwrite_mixed
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> w{
      {"ior_easy_8m", IorShape{8 * kMiB, 32 * kMiB, true}},
      {"ior_hard_16k", IorShape{16 * kKiB, 4 * kMiB, false}},
      {"overwrite_mixed", std::nullopt},
  };
  return w;
}

cluster::ClusterConfig cluster_config(const Workload& w, std::uint64_t seed) {
  cluster::ClusterConfig cfg;
  cfg.server_nodes = 8;
  cfg.engines_per_server = 2;
  cfg.targets_per_engine = 8;
  cfg.seed = seed;
  if (w.ior) {
    cfg.client_nodes = kIorClientNodes;
    cfg.payload = vos::PayloadMode::discard;
  } else {
    cfg.client_nodes = kOwNodes;
    cfg.payload = vos::PayloadMode::store;
    cfg.agg.enabled = true;
    cfg.agg.tick = 10 * sim::kMs;  // many passes within the simulated run
  }
  return cfg;
}

// ---------------------------------------------------------------------------
// One repetition of a workload.

struct JobResult {
  double run_s = 0;  // host seconds inside the job call, scaled to kCalRefS
  std::uint64_t transfers = 0;
  std::uint64_t failed = 0;
  double write_gibs = 0;
  double read_gibs = 0;
  std::uint64_t update_rpcs = 0;
  std::uint64_t fetch_rpcs = 0;
};

struct Rep {
  double wall_s = 0;      // host seconds inside the job calls, scaled to kCalRefS
  double wall_raw_s = 0;  // the same, as measured
  std::vector<double> cal_s;  // calibration passes, before and after each job
  double peak_rss_mb = 0;  // set-up and jobs of this repetition
  std::array<JobResult, kIfaces.size()> jobs;
  Layers layers;  // delta over the jobs
  HostSample host;  // summed over the job calls
  std::uint64_t trace_hash = 0;
  std::uint64_t commands_applied = 0;
  std::vector<std::string> errors;
  std::map<std::string, telemetry::TraceLog::OpProfile> profile;  // traced reps only

  std::uint64_t attempted() const {
    std::uint64_t n = 0;
    for (const JobResult& j : jobs) n += j.transfers;
    return n;
  }
  std::uint64_t failed() const {
    std::uint64_t n = 0;
    for (const JobResult& j : jobs) n += j.failed;
    return n;
  }
  void check(bool ok, std::string what) {
    if (!ok) errors.push_back(std::move(what));
  }
};

/// Runs `job` as one timed job of `rep` and returns its host seconds,
/// scaled to kCalRefS. With `traced`, a fresh TraceLog records it and its
/// per-op stage profile is added to the rep's.
template <typename F>
double timed_job(cluster::Testbed& tb, bool traced, Rep& rep, F&& job) {
  telemetry::TraceLog log;
  log.set_keep_unsampled(false);
  if (traced) tb.attach_trace(&log);
  if (rep.cal_s.empty()) rep.cal_s.push_back(calibrate());
  const HostSample h0 = HostSample::now();
  const auto t0 = Clock::now();
  job();
  const double raw = seconds_since(t0);
  rep.host += HostSample::now() - h0;
  rep.cal_s.push_back(calibrate());
  const double s = raw * scale_to_ref(rep.cal_s.end()[-2], rep.cal_s.back());
  rep.wall_raw_s += raw;
  rep.wall_s += s;
  if (traced) {
    tb.attach_trace(nullptr);
    for (const auto& [op, p] : log.profile_ops()) {
      auto& acc = rep.profile[op];
      acc.count += p.count;
      for (std::size_t st = 0; st < telemetry::TraceLog::kStages; ++st) {
        acc.stages.ns[st] += p.stages.ns[st];
      }
    }
  }
  return s;
}

// --- IOR workloads ---------------------------------------------------------

void run_ior(const IorShape& shape, cluster::Testbed& tb, ior::IorRunner& runner, bool traced,
             Rep& rep) {
  const std::uint64_t ranks = runner.ranks();
  const std::uint64_t phase_bytes = ranks * shape.block;
  for (std::size_t i = 0; i < kIfaces.size(); ++i) {
    const Iface iface = kIfaces[i];
    ior::IorConfig cfg;
    cfg.api = ior_api(iface);
    cfg.transfer_size = shape.transfer;
    cfg.block_size = shape.block;
    cfg.file_per_process = shape.file_per_process;
    const std::uint64_t u0 = tb.client_rpc_latency("update").count;
    const std::uint64_t f0 = tb.client_rpc_latency("fetch").count;
    const EngineWire w0 = EngineWire::read(tb);
    ior::IorResult r;
    JobResult& job = rep.jobs[i];
    job.run_s = timed_job(tb, traced, rep, [&] { r = runner.run(cfg); });
    job.update_rpcs = tb.client_rpc_latency("update").count - u0;
    job.fetch_rpcs = tb.client_rpc_latency("fetch").count - f0;
    const EngineWire w1 = EngineWire::read(tb);
    job.transfers = 2 * ranks * (shape.block / shape.transfer);
    job.failed = r.read_fill_errors + r.data_loss_events + r.verify_errors;
    job.write_gibs = r.write.gib_per_sec();
    job.read_gibs = r.read.gib_per_sec();
    const std::string n = iface_name(iface);
    rep.check(r.read_fill_errors == 0, n + ": short reads");
    rep.check(r.data_loss_events == 0, n + ": data_loss_events != 0");
    // Every written byte reached an engine and every read byte left one.
    rep.check(w1.rx - w0.rx >= phase_bytes, n + ": engines received < ranks x block bytes");
    rep.check(w1.tx - w0.tx >= phase_bytes, n + ": engines sent < ranks x block bytes");
    rep.check(r.write.seconds > 0 && r.read.seconds > 0, n + ": empty phase");
  }
}

// --- overwrite_mixed -------------------------------------------------------

/// One client's open object behind one interface.
struct OwFile {
  std::unique_ptr<client::ArrayObject> array;
  std::unique_ptr<dfs::File> dfs;
  posix::Vfs* vfs = nullptr;  // MPI-IO on a per-process file: ROMIO ufs over DFuse
  posix::Fd fd = -1;
  std::unique_ptr<h5::H5File> h5file;
  std::optional<h5::H5Dataset> h5dset;

  CoTask<Errno> write(std::uint64_t off, std::span<const std::byte> data) {
    if (array != nullptr) co_return co_await array->write(off, data.size(), data);
    if (dfs != nullptr) co_return co_await dfs->write(off, data.size(), data);
    if (vfs != nullptr) {
      auto rc = co_await vfs->pwrite(fd, off, data.size(), data);
      if (!rc.ok()) co_return rc.error();
      co_return *rc == data.size() ? Errno::ok : Errno::io;
    }
    if (h5dset.has_value()) co_return co_await h5dset->write(off, data.size(), data);
    co_return Errno::bad_fd;
  }

  CoTask<Result<std::uint64_t>> read(std::uint64_t off, std::span<std::byte> out) {
    if (array != nullptr) co_return co_await array->read(off, out);
    if (dfs != nullptr) co_return co_await dfs->read(off, out);
    if (vfs != nullptr) co_return co_await vfs->pread(fd, off, out);
    if (h5dset.has_value()) co_return co_await h5dset->read(off, out);
    co_return Errno::bad_fd;
  }

  CoTask<Errno> close() {
    if (vfs != nullptr) co_return co_await vfs->close(fd);
    if (h5file != nullptr) co_return co_await h5file->close();
    co_return Errno::ok;
  }
};

/// One client's object behind one interface, with the seeded streams that
/// drive it and a shadow image of what it last wrote.
struct OwClient {
  OwFile file;
  sim::Xoshiro256 ops;
  sim::Xoshiro256 bytes;
  std::vector<std::byte> shadow;
  std::vector<std::byte> buf;

  OwClient(std::uint64_t seed, std::uint32_t c)
      // The streams depend on the seed and the client only, so every
      // interface is measured on identical inputs.
      : ops(seed ^ (0x0E5E0000ULL + c)),
        bytes(seed ^ (0xB7E50000ULL + c)),
        shadow(kOwObject),
        buf(kOwMaxExtent) {}

  /// Writes `len` fresh seeded bytes at `off` and records them in the shadow.
  CoTask<Errno> write(std::uint64_t off, std::uint64_t len) {
    for (std::uint64_t i = 0; i < len; i += 8) {
      const std::uint64_t w = bytes();
      std::memcpy(buf.data() + i, &w, std::min<std::uint64_t>(8, len - i));
    }
    const Errno rc = co_await file.write(off, std::span<const std::byte>(buf.data(), len));
    if (rc == Errno::ok) std::memcpy(shadow.data() + off, buf.data(), len);
    co_return rc;
  }
};

/// Per-interface simulated op accounting over every client.
struct OwStats {
  std::uint64_t write_bytes = 0, read_bytes = 0;
  sim::Time write_ns = 0, read_ns = 0;  // summed per-op simulated latency
  std::uint64_t ops = 0, failed = 0;
};

/// overwrite_mixed: every client overwrites its own object with seeded
/// 4-64 KiB extents, 50/50 reads and writes, closed loop, and checks every
/// read against a shadow image of what it last wrote.
class Overwrite {
 public:
  Overwrite(cluster::Testbed& tb, std::uint64_t seed) : tb_(tb), seed_(seed) {}

  /// Set-up before the first timed transfer: container, DFS and DFuse
  /// mounts on every client node, and every client's object behind every
  /// interface, opened and prefilled so that later reads cover written
  /// bytes. It then idles for kOwSettle: every engine holding data runs
  /// aggregation passes, and on its first pass learns which pool-service
  /// replica leads. The timed jobs then start with aggregation in its
  /// steady state, whichever replica won the election.
  CoTask<void> setup() {
    auto created = co_await tb_.client(0).cont_create(cluster::kPoolUuid, {});
    DAOSIM_REQUIRE(created.ok(), "cont_create: %s", errno_name(created.error()));
    for (std::uint32_t n = 0; n < tb_.client_node_count(); ++n) {
      auto m = co_await dfs::DfsMount::mount(tb_.client(n), cluster::kPoolUuid);
      DAOSIM_REQUIRE(m.ok(), "dfs mount: %s", errno_name(m.error()));
      dfs_.push_back(std::move(*m));
      dfuse_.push_back(std::make_unique<posix::DfuseMount>(tb_.sched(), *dfs_.back()));
    }
    const Errno mk = co_await dfs_[0]->mkdir("/ow");
    DAOSIM_REQUIRE(mk == Errno::ok, "mkdir /ow: %s", errno_name(mk));
    auto base = co_await tb_.client(0).alloc_oids(cluster::kPoolUuid, clients());
    DAOSIM_REQUIRE(base.ok(), "alloc_oids: %s", errno_name(base.error()));
    oid_base_ = *base;
    sim::WaitGroup wg(tb_.sched());
    for (const Iface iface : kIfaces) {
      for (std::uint32_t c = 0; c < clients(); ++c) {
        clients_.push_back(std::make_unique<OwClient>(seed_, c));
        wg.spawn(open_and_prefill(iface, c, *clients_.back()));
      }
    }
    co_await wg.wait();
    co_await tb_.sched().delay(kOwSettle);
  }

  /// One interface's job: every client runs concurrently to completion.
  CoTask<void> job(Iface iface, OwStats* stats) {
    const std::size_t i = std::size_t(std::find(kIfaces.begin(), kIfaces.end(), iface) -
                                      kIfaces.begin());
    sim::WaitGroup wg(tb_.sched());
    for (std::uint32_t c = 0; c < clients(); ++c) {
      wg.spawn(mixed(*clients_[i * clients() + c], stats));
    }
    co_await wg.wait();
  }

  static std::uint32_t clients() { return kOwNodes * kOwClientsPerNode; }

 private:
  CoTask<void> open_and_prefill(Iface iface, std::uint32_t c, OwClient& cl) {
    auto opened = co_await open(iface, c);
    DAOSIM_REQUIRE(opened.ok(), "client %u: open %s: %s", c, iface_name(iface),
                   errno_name(opened.error()));
    cl.file = std::move(*opened);
    for (std::uint64_t off = 0; off < kOwObject; off += kOwPrefill) {
      const Errno rc = co_await cl.write(off, kOwPrefill);
      DAOSIM_REQUIRE(rc == Errno::ok, "client %u: prefill %s: %s", c, iface_name(iface),
                     errno_name(rc));
    }
  }

  CoTask<Result<OwFile>> open(Iface iface, std::uint32_t c) {
    const std::uint32_t node = c / kOwClientsPerNode;
    const std::string path = strfmt("/ow/%s.%u", iface_name(iface), c);
    OwFile f;
    switch (iface) {
      case Iface::daos:
        f.array = std::make_unique<client::ArrayObject>(
            tb_.client(node), cluster::kPoolUuid,
            client::make_oid(oid_base_ + c, client::ObjClass::SX), 1 * kMiB);
        break;
      case Iface::dfs: {
        dfs::OpenFlags flags;
        flags.create = true;
        auto r = co_await dfs_[node]->open(path, flags);
        if (!r.ok()) co_return r.error();
        f.dfs = std::make_unique<dfs::File>(std::move(*r));
        break;
      }
      case Iface::mpiio: {
        posix::VfsOpenFlags flags;
        flags.create = true;
        auto fd = co_await dfuse_[node]->open(path, flags);
        if (!fd.ok()) co_return fd.error();
        f.vfs = dfuse_[node].get();
        f.fd = *fd;
        break;
      }
      case Iface::hdf5: {
        auto h = co_await h5::H5File::create(*dfuse_[node], path, std::make_shared<h5::H5Meta>());
        if (!h.ok()) co_return h.error();
        f.h5file = std::move(*h);
        auto d = co_await f.h5file->create_dataset("data", kOwObject);
        if (!d.ok()) co_return d.error();
        f.h5dset = *d;
        break;
      }
    }
    co_return std::move(f);
  }

  /// The timed mixed phase of one client, then the close.
  CoTask<void> mixed(OwClient& cl, OwStats* stats) {
    std::vector<std::byte> out(kOwMaxExtent);
    for (std::uint32_t i = 0; i < kOwOpsPerClient; ++i) {
      const bool is_write = cl.ops.uniform(2) == 0;
      const std::uint64_t len = kOwMinExtent + cl.ops.uniform(kOwMaxExtent - kOwMinExtent + 1);
      const std::uint64_t off = cl.ops.uniform(kOwObject - len + 1);
      const sim::Time t0 = tb_.sched().now();
      ++stats->ops;
      if (is_write) {
        if (co_await cl.write(off, len) != Errno::ok) {
          ++stats->failed;
          continue;
        }
        stats->write_ns += tb_.sched().now() - t0;
        stats->write_bytes += len;
        continue;
      }
      auto got = co_await cl.file.read(off, std::span<std::byte>(out.data(), len));
      if (!got.ok() || *got != len ||
          std::memcmp(out.data(), cl.shadow.data() + off, len) != 0) {
        ++stats->failed;
        continue;
      }
      stats->read_ns += tb_.sched().now() - t0;
      stats->read_bytes += len;
    }
    const Errno rc = co_await cl.file.close();
    if (rc != Errno::ok) ++stats->failed;
  }

  cluster::Testbed& tb_;
  std::uint64_t seed_;
  std::vector<std::unique_ptr<dfs::DfsMount>> dfs_;
  std::vector<std::unique_ptr<posix::DfuseMount>> dfuse_;
  std::uint64_t oid_base_ = 0;
  std::vector<std::unique_ptr<OwClient>> clients_;  // interface-major, as kIfaces
};

void run_overwrite(cluster::Testbed& tb, Overwrite& ow, bool traced, Rep& rep) {
  for (std::size_t i = 0; i < kIfaces.size(); ++i) {
    const Iface iface = kIfaces[i];
    OwStats st;
    const std::uint64_t u0 = tb.client_rpc_latency("update").count;
    const std::uint64_t f0 = tb.client_rpc_latency("fetch").count;
    JobResult& job = rep.jobs[i];
    job.run_s = timed_job(tb, traced, rep, [&] { tb.run(ow.job(iface, &st)); });
    job.update_rpcs = tb.client_rpc_latency("update").count - u0;
    job.fetch_rpcs = tb.client_rpc_latency("fetch").count - f0;
    job.transfers = st.ops;
    job.failed = st.failed;
    // Closed-loop bandwidth per op kind: bytes over the simulated time the
    // clients spent in that kind of op, spread over the concurrent clients.
    const double clients = Overwrite::clients();
    if (st.write_ns > 0) {
      job.write_gibs = double(st.write_bytes) / double(kGiB) / (sim::to_seconds(st.write_ns) / clients);
    }
    if (st.read_ns > 0) {
      job.read_gibs = double(st.read_bytes) / double(kGiB) / (sim::to_seconds(st.read_ns) / clients);
    }
    const std::string n = iface_name(iface);
    rep.check(st.failed == 0, n + ": failed or mismatched ops");
    rep.check(st.read_bytes > 0 && st.write_bytes > 0, n + ": empty mixed phase");
  }
}

/// A testbed with the workload's set-up done: Raft leader elected, pool
/// connected, container and mounts created. Members die in reverse order,
/// so the runner and mounts go before the testbed they use.
struct Bed {
  std::unique_ptr<cluster::Testbed> tb;
  std::unique_ptr<ior::IorRunner> runner;
  std::unique_ptr<Overwrite> ow;
  double build_s = 0, start_s = 0, setup_s = 0;
};

void set_up(const Workload& w, std::uint64_t seed, Bed& bed) {
  const auto t0 = Clock::now();
  bed.tb = std::make_unique<cluster::Testbed>(cluster_config(w, seed));
  bed.build_s = seconds_since(t0);
  const auto t1 = Clock::now();
  bed.tb->start();
  bed.start_s = seconds_since(t1);
  if (w.ior) {
    bed.runner = std::make_unique<ior::IorRunner>(*bed.tb, kIorPpn);
    // A job with no phases creates the container, the DFS/DFuse mounts and
    // the MPI world, so the first timed job starts with set-up done.
    ior::IorConfig prime;
    prime.do_write = false;
    prime.do_read = false;
    bed.runner->run(prime);
  } else {
    bed.ow = std::make_unique<Overwrite>(*bed.tb, seed);
    bed.tb->run(bed.ow->setup());
  }
  bed.setup_s = seconds_since(t0);
}

/// One repetition on a fresh testbed. The caller resets the peak-RSS mark
/// before, so rep.peak_rss_mb covers this repetition alone.
Rep run_rep(const Workload& w, std::uint64_t seed, bool traced) {
  Rep rep;
  Bed bed;
  set_up(w, seed, bed);
  cluster::Testbed& tb = *bed.tb;

  const Layers before = Layers::read(tb);
  if (w.ior) {
    run_ior(*w.ior, tb, *bed.runner, traced, rep);
  } else {
    run_overwrite(tb, *bed.ow, traced, rep);
  }
  rep.layers = Layers::read(tb) - before;
  rep.trace_hash = tb.sched().trace_hash();
  rep.commands_applied = pool_commands_applied(tb);
  rep.peak_rss_mb = peak_rss_mb();
  return rep;
}

// ---------------------------------------------------------------------------
// Metrics.

struct Metric {
  double value = 0;
  std::string unit;
  bool exact = false;  // simulated: must repeat bit-for-bit at a fixed seed
};
using Metrics = std::map<std::string, Metric>;

double us(double ns) { return ns / 1e3; }

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}


/// End-to-end metrics of one rep; setup_s is sampled over the whole run and
/// added by the caller.
Metrics end_to_end(const Rep& r) {
  Metrics m;
  m["wall_s"] = {r.wall_s, "s"};
  m["peak_rss_mb"] = {r.peak_rss_mb, "MB"};
  for (std::size_t i = 0; i < kIfaces.size(); ++i) {
    const std::string n = iface_name(kIfaces[i]);
    m["sim_write_gibs." + n] = {r.jobs[i].write_gibs, "GiB/s", true};
    m["sim_read_gibs." + n] = {r.jobs[i].read_gibs, "GiB/s", true};
  }
  m["sim_update_rpc_p99_us"] = {us(r.layers.update_rpc.percentile_ns(99)), "sim_us", true};
  m["sim_fetch_rpc_p99_us"] = {us(r.layers.fetch_rpc.percentile_ns(99)), "sim_us", true};
  return m;
}

Metrics per_layer(const Rep& r) {
  const Layers& l = r.layers;
  const double transfers = double(std::max<std::uint64_t>(1, r.attempted()));
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  Metrics m;
  m["sim.events"] = {double(l.events), "count", true};
  m["sim.host_ns_per_event"] = {ratio(r.wall_s * 1e9, double(l.events)), "ns"};
  m["host.wall_raw_s"] = {r.wall_raw_s, "s"};
  m["host.calibration_s"] = {median(r.cal_s), "s"};
  m["host.user_s"] = {r.host.user_s, "s"};
  m["host.sys_s"] = {r.host.sys_s, "s"};
  m["host.minor_faults"] = {double(r.host.minor_faults), "count"};
  m["host.allocs_per_transfer"] = {double(r.host.allocs) / transfers, "allocs/transfer"};
  m["host.alloc_bytes_per_transfer"] = {double(r.host.alloc_bytes) / transfers, "B/transfer"};
  m["pool.commands_applied"] = {double(r.commands_applied), "count", true};
  for (std::size_t i = 0; i < kIfaces.size(); ++i) {
    const std::string n = iface_name(kIfaces[i]);
    const JobResult& j = r.jobs[i];
    m["ior.run_s." + n] = {j.run_s, "s"};
    m["ior.host_us_per_transfer." + n] = {ratio(j.run_s * 1e6, double(j.transfers)), "us"};
    m["client.update_rpcs." + n] = {double(j.update_rpcs), "count", true};
    m["client.fetch_rpcs." + n] = {double(j.fetch_rpcs), "count", true};
  }
  m["client.rpcs_saved"] = {double(l.rpcs_saved), "count", true};
  m["client.extents_coalesced"] = {double(l.extents_coalesced), "count", true};
  m["client.retry_attempts"] = {double(l.retry_attempts), "count", true};
  m["client.update_rpc_p50_us"] = {us(l.update_rpc.percentile_ns(50)), "sim_us", true};
  m["client.fetch_rpc_p50_us"] = {us(l.fetch_rpc.percentile_ns(50)), "sim_us", true};
  m["net.messages"] = {double(l.net_messages), "count", true};
  m["net.wire_bytes"] = {double(l.net_wire_bytes), "B", true};
  m["net.queue_delay_mean_us"] = {us(l.net_queue.mean_ns()), "sim_us", true};
  m["net.queue_delay_p99_us"] = {us(l.net_queue.percentile_ns(99)), "sim_us", true};
  m["engine.updates"] = {double(l.updates), "count", true};
  m["engine.fetches"] = {double(l.fetches), "count", true};
  m["engine.stream_misses"] = {double(l.stream_misses), "count", true};
  m["engine.svc_update_mean_us"] = {us(l.svc_update.mean_ns()), "sim_us", true};
  m["engine.svc_fetch_mean_us"] = {us(l.svc_fetch.mean_ns()), "sim_us", true};
  m["engine.queue_depth_mean"] = {ratio(l.queue_depth_sum, double(l.queue_depth_samples)),
                                  "requests", true};
  m["engine.extents_per_update_rpc"] = {l.update_extents.mean_ns(), "extents/rpc", true};
  m["vos.tree_lookups"] = {double(l.vos.lookups), "count", true};
  m["vos.tree_inserts"] = {double(l.vos.inserts), "count", true};
  m["vos.extent_probes"] = {double(l.vos.extent_probes), "count", true};
  m["vos.extent_merges"] = {double(l.vos.extent_merges), "count", true};
  m["vos.probes_per_fetch"] = {ratio(double(l.vos.extent_probes), double(l.fetches)),
                               "probes/fetch", true};
  m["agg.runs"] = {double(l.agg_runs), "count", true};
  m["agg.extents_retired"] = {double(l.agg_retired), "count", true};
  m["agg.bytes_flattened"] = {double(l.agg_flattened), "B", true};
  m["agg.deferred_on_floor"] = {double(l.agg_deferred), "count", true};
  return m;
}

/// trace.<op>.<stage>_us: mean simulated microseconds per sampled op.
void add_trace_metrics(const Rep& traced, Metrics& m) {
  for (const char* op : {"arr_write", "arr_read"}) {
    const auto it = traced.profile.find(op);
    for (std::size_t st = 0; st < telemetry::TraceLog::kStages; ++st) {
      double v = 0;
      if (it != traced.profile.end() && it->second.count > 0) {
        v = us(double(it->second.stages.ns[st]) / double(it->second.count));
      }
      m[strfmt("trace.%s.%s_us", op, telemetry::TraceLog::stage_name(st))] = {v, "sim_us", true};
    }
  }
}

/// Median over reps; exact metrics must agree across reps.
Metrics combine(const std::vector<Metrics>& reps, std::vector<std::string>& errors) {
  Metrics out;
  for (const auto& [name, first] : reps.front()) {
    std::vector<double> vals;
    for (const Metrics& r : reps) {
      const double v = r.at(name).value;
      if (first.exact && v != first.value) {
        errors.push_back(strfmt("%s differs between repetitions of one seed (%.17g vs %.17g)",
                                name.c_str(), first.value, v));
      }
      vals.push_back(v);
    }
    out[name] = {median(vals), first.unit, first.exact};
  }
  return out;
}

void print_table(const char* title, const Metrics& m) {
  std::printf("%s\n", title);
  for (const auto& [name, v] : m) {
    std::printf("  %-36s %16.6f %s\n", name.c_str(), v.value, v.unit.c_str());
  }
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> [--seed N] [--seconds S] "
               "[--trace 0|1]\nworkloads:",
               msg);
  for (const Workload& w : workloads()) std::fprintf(stderr, " %s", w.name.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

bool parse_u64(const char* s, std::uint64_t& out) {
  if (s == nullptr || *s == '\0' || *s == '-') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || *end != '\0') return false;
  out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name;
  std::uint64_t seed = 42;
  std::uint64_t seconds = 10;
  std::uint64_t trace = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    bool ok = v != nullptr;
    if (a == "--workload" && ok) {
      name = v;
    } else if (a == "--seed") {
      ok = ok && parse_u64(v, seed);
    } else if (a == "--seconds") {
      ok = ok && parse_u64(v, seconds) && seconds > 0;
    } else if (a == "--trace") {
      ok = ok && parse_u64(v, trace) && trace <= 1;
    } else {
      return usage(("unknown argument " + a).c_str());
    }
    if (!ok) return usage(("bad value for " + a).c_str());
    ++i;
  }
  const auto wit = std::find_if(workloads().begin(), workloads().end(),
                                [&](const Workload& w) { return w.name == name; });
  if (wit == workloads().end()) return usage(("unknown workload '" + name + "'").c_str());
  const Workload& w = *wit;

  std::vector<std::string> errors;
  std::vector<Rep> reps;
  try {
    constexpr std::size_t kMinReps = 3;
    constexpr std::size_t kMinSetups = 5;
    constexpr double kSetupShare = 0.1;
    constexpr double kLimitS = 120;
    // Set-up takes 1 ms (IOR) to 0.1 s (overwrite_mixed), so it is timed
    // apart from the jobs: after every repetition, fresh testbeds are set
    // up for a tenth of the time that repetition took, at least kMinSetups
    // times, and setup_s is the median over all of them. Host speed drifts
    // within a run; samples spread over the whole run keep one slow or fast
    // stretch from deciding the median. Each burst is scaled to kCalRefS by
    // the calibration passes just before and after it.
    std::vector<double> build_s, start_s, setup_s, setup_raw_s;
    auto sample_setups = [&](double budget_s, double cal_before) {
      std::vector<std::array<double, 3>> burst;  // build, start, whole set-up
      const auto t0 = Clock::now();
      for (std::size_t i = 0; i < kMinSetups || seconds_since(t0) < budget_s; ++i) {
        Bed bed;
        set_up(w, seed, bed);
        burst.push_back({bed.build_s, bed.start_s, bed.setup_s});
      }
      const double scale = scale_to_ref(cal_before, calibrate());
      for (const auto& [build, start, setup] : burst) {
        build_s.push_back(build * scale);
        start_s.push_back(start * scale);
        setup_s.push_back(setup * scale);
        setup_raw_s.push_back(setup);
      }
    };
    if (!reset_peak_rss()) {
      std::fprintf(stderr, "perfbench: cannot reset VmHWM; peak_rss_mb is the process's peak\n");
    }
    // At least kMinReps repetitions for a median; never start one that
    // would end past --seconds (or, for the minimum, past kLimitS).
    const auto run0 = Clock::now();
    for (;;) {
      reset_peak_rss();
      const auto rep0 = Clock::now();
      reps.push_back(run_rep(w, seed, false));
      const Rep& last = reps.back();
      sample_setups(kSetupShare * seconds_since(rep0), last.cal_s.back());
      std::fprintf(stderr,
                   "perfbench: %s repetition %zu: wall_s %.4f raw %.4f cpu %.4f calibration %.4f "
                   "peak_rss_mb %.1f\n",
                   w.name.c_str(), reps.size(), last.wall_s, last.wall_raw_s,
                   last.host.user_s + last.host.sys_s, median(last.cal_s), last.peak_rss_mb);
      const double elapsed = seconds_since(run0);
      const double per_rep = elapsed / double(reps.size());
      if (reps.size() >= kMinReps && elapsed + per_rep > double(seconds)) break;
      if (elapsed + per_rep > kLimitS) break;
    }
    std::fprintf(stderr, "perfbench: %zu set-ups: min %.6f median %.6f max %.6f s\n",
                 setup_s.size(), *std::min_element(setup_s.begin(), setup_s.end()),
                 median(setup_s), *std::max_element(setup_s.begin(), setup_s.end()));
    std::vector<Metrics> e2e_reps, layer_reps;
    for (const Rep& r : reps) {
      e2e_reps.push_back(end_to_end(r));
      layer_reps.push_back(per_layer(r));
      for (const std::string& e : r.errors) errors.push_back(e);
      if (r.trace_hash != reps.front().trace_hash) {
        errors.push_back("trace_hash differs between repetitions of one seed");
      }
    }
    Metrics e2e = combine(e2e_reps, errors);
    e2e["setup_s"] = {median(setup_s), "s"};
    Metrics layer = combine(layer_reps, errors);
    layer["cluster.build_s"] = {median(build_s), "s"};
    layer["cluster.start_s"] = {median(start_s), "s"};
    layer["host.setup_raw_s"] = {median(setup_raw_s), "s"};
    const Rep& base = reps.front();

    std::printf("workload %s  seed %" PRIu64 "  repetitions %zu  trace_hash 0x%016" PRIx64 "\n",
                w.name.c_str(), seed, reps.size(), base.trace_hash);
    std::printf("ops_attempted %" PRIu64 "  ops_failed %" PRIu64 "\n", base.attempted(),
                base.failed());
    std::printf("p99 samples: update %" PRIu64 "  fetch %" PRIu64 "\n",
                base.layers.update_rpc.count, base.layers.fetch_rpc.count);
    std::printf("per-transfer bases: transfers %" PRIu64 "  allocs %" PRIu64 "  alloc_bytes %" PRIu64
                "  (first repetition)\n",
                base.attempted(), base.host.allocs, base.host.alloc_bytes);
    print_table("end-to-end (median over repetitions):", e2e);

    Metrics reported = e2e;
    if (trace == 1) {
      reset_peak_rss();
      const Rep traced = run_rep(w, seed, true);
      for (const std::string& e : traced.errors) errors.push_back("traced: " + e);
      if (traced.trace_hash != base.trace_hash) {
        errors.push_back("tracing changed trace_hash");
      }
      // Zero perturbation: every simulated number equals the untraced one.
      auto compare = [&](const Metrics& with_trace, const Metrics& untraced) {
        for (const auto& [n, v] : with_trace) {
          if (v.exact && untraced.at(n).value != v.value) errors.push_back("tracing changed " + n);
        }
      };
      compare(end_to_end(traced), e2e);
      compare(per_layer(traced), layer);
      add_trace_metrics(traced, layer);
      layer["trace.overhead_s"] = {traced.wall_s - e2e.at("wall_s").value, "s"};
      std::printf("traced trace_hash 0x%016" PRIx64 " (%s)\n", traced.trace_hash,
                  traced.trace_hash == base.trace_hash ? "equal" : "DIFFERENT");
      print_table("per-layer (median over untraced repetitions; trace.* from the traced run):",
                  layer);
      reported = layer;
    }

    for (const std::string& e : errors) std::fprintf(stderr, "perfbench: check failed: %s\n", e.c_str());
    const bool correct = errors.empty() && base.failed() == 0;
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
                ", \"metrics\": {",
                correct ? "true" : "false", base.attempted(), base.failed());
    bool first = true;
    for (const auto& [n, v] : reported) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ", n.c_str(),
                  v.value, v.unit.c_str());
      first = false;
    }
    std::printf("}}\n");
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", w.name.c_str(), e.what());
    return 1;
  }
}
