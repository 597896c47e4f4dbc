// bench_sentinel: end-to-end and per-layer benchmark of the IoT Sentinel
// gateway on pre-generated fleet traffic. README.md next to this file gives
// the workloads, the metrics and how to run it.
//
// One invocation replays one workload (steady / onboarding / churn):
//
//   1. The workload's FleetSim trace is generated from --seed into a chunked
//      in-memory arena, untimed. The program under test only ever receives
//      those frames, so the generator is never part of a measurement.
//   2. The paper identifier is trained and the service and a gateway built
//      several times; the median build time is `setup_s`.
//   3. The trace is replayed through a fresh 2-shard ShardedGateway until
//      --seconds have elapsed, at least three times. Each replay is a closed
//      loop (one ingest thread submits back to back; `submit` blocks on a
//      full ring), pinned: ingest on the first allowed CPU, gateway threads
//      round-robin over the rest. A hardware instruction counter on every
//      thread of the replay gives its CPU work per frame; it also gives the
//      gateway's peak RSS per device, the wall-clock rates, the pipeline
//      counters and an identification multiset every replay must repeat.
//   4. The end-to-end metrics are the medians over the replays.
//
// Every replay executes in a child process forked from the single-threaded
// parent, so each one starts from the same heap.
//
// --trace replays a serial composition of the same public layer calls
// (SerialPipeline) with sampled spans around every call instead, separately,
// so timed numbers never include tracing. --check adds the enforcement
// auditor and requires the sharded and serial identification multisets to
// agree; --smoke runs small versions of everything in a few seconds.
//
// The last line on stdout is one JSON object:
//   {"correct": bool, "attempted": n, "failed": n,
//    "metrics": {name: {"value": v, "unit": u}}}
#include <linux/perf_event.h>
#include <malloc.h>
#include <sched.h>
#include <sys/ioctl.h>
#include <sys/prctl.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <tuple>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/gateway_pool.hpp"
#include "core/security_gateway.hpp"
#include "core/vulnerability_db.hpp"
#include "net/crc32.hpp"
#include "net/hash_mix.hpp"
#include "net/parser.hpp"
#include "sdn/enforcement_audit.hpp"
#include "simnet/corpus.hpp"
#include "simnet/device_catalog.hpp"
#include "simnet/fleet_sim.hpp"

namespace {

using namespace iotsentinel;
using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kMinuteUs = 60'000'000;
/// Departure sweeps (churn) forget devices silent for this long.
constexpr std::uint64_t kSweepIdleUs = 2 * kMinuteUs;
constexpr std::uint64_t kDefaultSeed = 1;
/// Per-frame spans are recorded for one frame in this many.
constexpr std::uint32_t kSampleStride = 64;
/// Frames between idle-flow expiries in the serial composition (the
/// sharded worker's stride).
constexpr std::uint64_t kExpiryStride = 1024;
/// Fingerprints timed by the stage-1 / stage-2 probe.
constexpr std::size_t kProbeMax = 2048;
constexpr std::size_t kSetupBuilds = 7;
constexpr std::size_t kMinReps = 3;
constexpr std::size_t kMaxReps = 200;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --------------------------------------------------------------------------
// Workloads
// --------------------------------------------------------------------------

struct Workload {
  const char* name;
  std::size_t devices;
  std::uint64_t horizon_us;
  /// Initial joins are spread uniformly over this window.
  std::uint64_t join_window_us;
  /// Frames before this virtual time are replayed untimed.
  std::uint64_t warmup_us;
  /// Departure sweep period; 0 = no sweeps.
  std::uint64_t sweep_every_us;
};

// Sizes keep each trace between 1.3M and 2.7M frames (under 400 MiB of arena)
// so one replay takes about a second.
constexpr Workload kWorkloads[] = {
    {"steady", 8000, 180 * kMinuteUs, 30 * kMinuteUs, 45 * kMinuteUs, 0},
    {"onboarding", 16000, 60 * kMinuteUs, 60 * kMinuteUs, 0, 0},
    {"churn", 3000, 360 * kMinuteUs, 60 * kMinuteUs, 0, 5 * kMinuteUs},
};

constexpr Workload kSmokeWorkloads[] = {
    {"steady", 500, 60 * kMinuteUs, 15 * kMinuteUs, 20 * kMinuteUs, 0},
    {"onboarding", 500, 20 * kMinuteUs, 20 * kMinuteUs, 0, 0},
    {"churn", 300, 120 * kMinuteUs, 30 * kMinuteUs, 0, 5 * kMinuteUs},
};

/// Trace and identification digests pinned for the default seed. A change
/// to either means the program under test no longer receives, or no longer
/// decides, what the benchmark was defined on.
struct Expected {
  const char* workload;
  bool smoke;
  std::uint64_t stream_hash;
  std::uint64_t verdict_hash;
};
constexpr Expected kExpected[] = {
    {"steady", false, 0x96bd8c8bbc451077, 0x19e350b227d76d0f},
    {"onboarding", false, 0x93b419d876960535, 0xedfd144750768444},
    {"churn", false, 0x02dbf798f8e0a4bf, 0x54107a467ebe17b8},
    {"steady", true, 0x6612d9e5de53fdc5, 0x49dbe7fcc7b5e4eb},
    {"onboarding", true, 0x27b5b6b28b37cb06, 0x49dbe7fcc7b5e4eb},
    {"churn", true, 0x15ea47db7953df3b, 0xce25d8e8f60318f2},
};

// --------------------------------------------------------------------------
// Pre-generated trace
// --------------------------------------------------------------------------

/// One replay step: a frame, or (data == nullptr) a departure sweep at
/// `timestamp_us`.
struct Record {
  const std::uint8_t* data = nullptr;
  std::uint32_t size = 0;
  std::uint64_t timestamp_us = 0;
};

class Trace {
 public:
  std::vector<Record> records;
  /// Index of the first timed record.
  std::size_t warm_end = 0;
  std::size_t frames = 0;
  std::size_t timed_frames = 0;
  std::size_t sweeps = 0;
  /// (record index, device id) of every device's first frame, in order.
  std::vector<std::pair<std::size_t, std::uint32_t>> first_frames;
  /// Roster type index of each device id.
  std::vector<std::size_t> type_of;
  /// Device id by MAC (`MacAddress::to_u64`).
  std::unordered_map<std::uint64_t, std::uint32_t> device_of;
  std::uint64_t stream_hash = 0;

  [[nodiscard]] std::size_t devices() const { return type_of.size(); }
  [[nodiscard]] std::size_t devices_seen() const { return first_frames.size(); }
  [[nodiscard]] std::size_t arena_bytes() const {
    return chunks_.size() * kChunkBytes + records.capacity() * sizeof(Record);
  }

  std::uint8_t* alloc(std::size_t n) {
    if (chunks_.empty() || used_ + n > kChunkBytes) {
      chunks_.push_back(std::make_unique<std::uint8_t[]>(kChunkBytes));
      used_ = 0;
    }
    std::uint8_t* p = chunks_.back().get() + used_;
    used_ += n;
    return p;
  }

 private:
  static constexpr std::size_t kChunkBytes = std::size_t{16} << 20;
  std::vector<std::unique_ptr<std::uint8_t[]>> chunks_;
  std::size_t used_ = 0;
};

Trace generate_trace(const Workload& w, std::uint64_t seed,
                     const sim::Roster& roster) {
  sim::FleetConfig config;
  config.seed = seed;
  config.sim_end_us = w.horizon_us;
  config.join_window_us = w.join_window_us;
  sim::FleetSim fleet(roster, w.devices, config);

  Trace t;
  t.type_of.resize(w.devices);
  std::vector<bool> seen(w.devices, false);
  std::uint64_t next_sweep =
      w.sweep_every_us > 0 ? w.sweep_every_us : ~std::uint64_t{0};
  while (auto event = fleet.next()) {
    const std::uint64_t ts = event->frame.timestamp_us;
    while (ts >= next_sweep) {
      t.records.push_back({nullptr, 0, next_sweep});
      t.stream_hash = net::mix64(t.stream_hash ^ next_sweep ^ (1ULL << 63));
      ++t.sweeps;
      next_sweep += w.sweep_every_us;
    }
    const net::Bytes& bytes = event->frame.frame;
    std::uint8_t* data = t.alloc(bytes.size());
    std::memcpy(data, bytes.data(), bytes.size());
    const std::uint32_t dev = event->device_id;
    if (!seen[dev]) {
      seen[dev] = true;
      t.first_frames.emplace_back(t.records.size(), dev);
      t.type_of[dev] = sim::FleetSim::type_index_of(roster, dev);
      t.device_of.emplace(net::MacAddress({bytes[6], bytes[7], bytes[8],
                                           bytes[9], bytes[10], bytes[11]})
                              .to_u64(),
                          dev);
    }
    t.records.push_back({data, static_cast<std::uint32_t>(bytes.size()), ts});
    t.stream_hash = net::mix64(t.stream_hash ^ ts);
    t.stream_hash = net::mix64(t.stream_hash ^ net::crc32c(bytes));
    ++t.frames;
  }
  t.records.shrink_to_fit();
  t.warm_end = static_cast<std::size_t>(
      std::partition_point(t.records.begin(), t.records.end(),
                           [&](const Record& r) {
                             return r.timestamp_us < w.warmup_us;
                           }) -
      t.records.begin());
  for (std::size_t i = t.warm_end; i < t.records.size(); ++i) {
    if (t.records[i].data != nullptr) ++t.timed_frames;
  }
  return t;
}

// --------------------------------------------------------------------------
// Platform: pinning, resident memory, isolated repetitions
// --------------------------------------------------------------------------

pid_t current_tid() { return static_cast<pid_t>(::syscall(SYS_gettid)); }

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (::sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  if (cpus.empty()) cpus.push_back(0);
  return cpus;
}

bool pin(pid_t tid, std::span<const int> cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  return ::sched_setaffinity(tid, sizeof set, &set) == 0;
}

/// Threads of this process other than `self`, in tid order (= creation
/// order for the gateway's shard workers and classifier).
std::vector<pid_t> other_threads(pid_t self) {
  std::vector<pid_t> tids;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task", ec)) {
    const auto tid = static_cast<pid_t>(
        std::strtol(entry.path().filename().c_str(), nullptr, 10));
    if (tid > 0 && tid != self) tids.push_back(tid);
  }
  std::sort(tids.begin(), tids.end());
  return tids;
}

/// Where each thread of the sharded run ran (trivially copyable: it crosses
/// the pipe from the run's child process).
struct Pinning {
  int ingest = -1;
  std::array<int, 16> gateway{};  // tid order
  std::size_t threads = 0;
  bool ok = true;
};

/// Pins the calling (ingest) thread to the first allowed CPU and `others`
/// round-robin over the remaining ones.
Pinning pin_threads(std::span<const pid_t> others, std::span<const int> cpus) {
  Pinning p;
  const std::span<const int> rest =
      cpus.size() > 1 ? cpus.subspan(1) : cpus.first(1);
  std::size_t next = 0;
  for (const pid_t tid : others) {
    const int cpu = rest[next++ % rest.size()];
    p.ok = pin(tid, std::span<const int>(&cpu, 1)) && p.ok;
    if (p.threads < p.gateway.size()) p.gateway[p.threads++] = cpu;
  }
  p.ingest = cpus.front();
  p.ok = pin(current_tid(), cpus.first(1)) && p.ok;
  return p;
}

/// One "VmHWM:  123 kB"-style field of /proc/self/status, in KiB.
std::uint64_t status_kib(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return 0;
  std::uint64_t value = 0;
  char line[256];
  const std::size_t key_len = std::strlen(key);
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, key, key_len) == 0) {
      value = std::strtoull(line + key_len, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return value;
}

/// Returns freed heap to the kernel and restarts the peak-RSS counter at the
/// current RSS (clear_refs value 5 resets VmHWM).
void reset_peak_rss() {
  ::malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

/// Runs `fn` in a child process forked from this (single-threaded) process
/// and returns its result; a default Result (whose `ran` is false) when the
/// child died. Every repetition thus starts from the same heap. Without it,
/// later repetitions reuse the malloc arenas earlier ones left behind, which
/// moves both the peak-RSS reading and throughput between repetitions.
template <typename Result, typename Fn>
Result run_isolated(Fn&& fn) {
  static_assert(std::is_trivially_copyable_v<Result>);
  Result result{};
  int fds[2];
  if (::pipe(fds) != 0) return result;
  std::fflush(nullptr);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return result;
  }
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the harness
    if (::getppid() != parent) ::_exit(1);
    ::close(fds[0]);
    const Result out = fn();
    const auto* bytes = reinterpret_cast<const char*>(&out);
    std::size_t sent = 0;
    while (sent < sizeof out) {
      const ssize_t n = ::write(fds[1], bytes + sent, sizeof out - sent);
      if (n <= 0) ::_exit(1);
      sent += static_cast<std::size_t>(n);
    }
    ::_exit(0);
  }
  ::close(fds[1]);
  auto* bytes = reinterpret_cast<char*>(&result);
  std::size_t got = 0;
  while (got < sizeof result) {
    const ssize_t n = ::read(fds[0], bytes + got, sizeof result - got);
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
  }
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (got != sizeof result || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    result = Result{};
  }
  return result;
}

// --------------------------------------------------------------------------
// Statistics
// --------------------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Linear-interpolated percentile, p in [0, 1].
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// Quartiles as Python's statistics.quantiles(v, n=4) gives them.
std::array<double, 3> quartiles(std::vector<double> v) {
  if (v.empty()) return {0.0, 0.0, 0.0};
  std::sort(v.begin(), v.end());
  const long n = static_cast<long>(v.size());
  if (n == 1) return {v[0], v[0], v[0]};
  std::array<double, 3> q{};
  const long m = n + 1;
  for (long i = 1; i <= 3; ++i) {
    const long j = std::clamp(i * m / 4, 1L, n - 1);
    const long delta = i * m - j * 4;
    q[static_cast<std::size_t>(i - 1)] =
        (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
         v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
        4.0;
  }
  return q;
}

/// Quantile of a power-of-two-bucket histogram, interpolated linearly
/// inside the bucket the rank falls in.
double histogram_quantile(const telemetry::Snapshot::Hist& h, double q) {
  if (h.count == 0) return 0.0;
  const double rank = q * static_cast<double>(h.count);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < h.buckets.size(); ++i) {
    const std::uint64_t prev = cum;
    cum += h.buckets[i];
    if (h.buckets[i] == 0 || static_cast<double>(cum) < rank) continue;
    const double lo =
        i == 0 ? 0.0
               : static_cast<double>(telemetry::Histogram::bucket_bound(i - 1));
    const double hi =
        i + 1 < h.buckets.size()
            ? static_cast<double>(telemetry::Histogram::bucket_bound(i))
            : 2.0 * lo;
    return lo + (hi - lo) * (rank - static_cast<double>(prev)) /
                    static_cast<double>(h.buckets[i]);
  }
  return 0.0;
}

// --------------------------------------------------------------------------
// System under test: set-up, identification digests, time-to-enforcement
// --------------------------------------------------------------------------

core::ShardedGatewayConfig gateway_config() {
  core::ShardedGatewayConfig config;
  config.num_shards = 2;
  // bench_fleet's value: fleet connections last under a second, and the
  // 60 s default only bloats the tier-2 scan with dead flows.
  config.controller.flow_idle_timeout_us = 5'000'000;
  return config;
}

std::unique_ptr<core::IoTSecurityService> build_service() {
  sim::FingerprintCorpus corpus =
      sim::generate_corpus(/*runs_per_type=*/20, /*seed=*/42);
  core::IdentifierConfig config;
  config.bank.accept_threshold = core::kPaperCalibratedAcceptThreshold;
  core::DeviceIdentifier identifier(config);
  identifier.train(corpus.type_names, corpus.by_type);
  return std::make_unique<core::IoTSecurityService>(
      std::move(identifier), core::VulnerabilityDb::with_sample_data());
}

/// Builds the service and a gateway `builds` times; returns the build times
/// (gateway teardown excluded) and keeps the last service in `service`.
std::vector<double> timed_setups(
    std::size_t builds, std::unique_ptr<core::IoTSecurityService>& service) {
  std::vector<double> times;
  for (std::size_t i = 0; i < builds; ++i) {
    const auto t0 = Clock::now();
    auto built = build_service();
    {
      core::ShardedGateway gw(*built, gateway_config());
      times.push_back(seconds_since(t0));
    }
    service = std::move(built);
  }
  return times;
}

/// One identification: (device MAC, type, isolation level).
using Ident = std::tuple<std::uint64_t, std::string, sdn::IsolationLevel>;

/// What the checks and `misid_rate` need from a run's identifications.
struct IdentSummary {
  std::uint64_t count = 0;
  /// Order-independent digest of the (mac, type, level) multiset.
  std::uint64_t verdict_hash = 0;
  /// Devices that sent frames but appear in no identification.
  std::uint64_t unidentified = 0;
  /// Share whose type is not the device's roster type ("unknown" counts
  /// as wrong).
  double misid_rate = 0.0;
};

IdentSummary summarize(std::vector<Ident> idents, const Trace& trace,
                       const sim::Roster& roster) {
  IdentSummary s;
  s.count = idents.size();
  std::unordered_set<std::uint64_t> identified;
  std::size_t wrong = 0;
  for (const auto& [mac, type, level] : idents) {
    identified.insert(mac);
    const auto it = trace.device_of.find(mac);
    if (it == trace.device_of.end() ||
        roster.entries[trace.type_of[it->second]].profile.name != type) {
      ++wrong;
    }
  }
  for (const auto& entry : trace.device_of) {
    if (!identified.contains(entry.first)) ++s.unidentified;
  }
  s.misid_rate = idents.empty() ? 0.0
                                : static_cast<double>(wrong) /
                                      static_cast<double>(idents.size());
  std::sort(idents.begin(), idents.end());
  s.verdict_hash = net::mix64(idents.size());
  for (const auto& [mac, type, level] : idents) {
    s.verdict_hash = net::mix64(s.verdict_hash ^ mac);
    s.verdict_hash = net::mix64(
        s.verdict_hash ^
        net::crc32c(std::span<const std::uint8_t>(
            reinterpret_cast<const std::uint8_t*>(type.data()), type.size())));
    s.verdict_hash =
        net::mix64(s.verdict_hash ^ static_cast<std::uint64_t>(level));
  }
  return s;
}

/// Wall-clock time-to-enforcement per device: from the `submit` of its first
/// frame to its first identification event.
class TteClock {
 public:
  explicit TteClock(const Trace& trace)
      : trace_(trace), first_ns_(trace.devices(), -1),
        ident_ns_(trace.devices(), -1) {}

  /// Call before handing record `i` to the gateway.
  void before_record(std::size_t i) {
    const auto& firsts = trace_.first_frames;
    if (next_ < firsts.size() && firsts[next_].first == i) {
      first_ns_[firsts[next_].second] = now_ns();
      ++next_;
    }
  }
  void identified(const net::MacAddress& mac) {
    const auto it = trace_.device_of.find(mac.to_u64());
    if (it != trace_.device_of.end() && ident_ns_[it->second] < 0) {
      ident_ns_[it->second] = now_ns();
    }
  }

  /// p50 and p99 in ms over the devices identified.
  [[nodiscard]] std::pair<double, double> percentiles_ms() const {
    std::vector<double> ms;
    for (std::size_t d = 0; d < first_ns_.size(); ++d) {
      if (first_ns_[d] < 0 || ident_ns_[d] < 0) continue;
      ms.push_back(static_cast<double>(ident_ns_[d] - first_ns_[d]) / 1e6);
    }
    return {percentile(ms, 0.50), percentile(ms, 0.99)};
  }

 private:
  const Trace& trace_;
  std::vector<std::int64_t> first_ns_;
  std::vector<std::int64_t> ident_ns_;
  std::size_t next_ = 0;
};

/// One user-mode hardware counter of thread `tid` (0: the calling thread);
/// reads 0 where the machine exposes none. The count stays readable after
/// the thread has exited.
class PerfCounter {
 public:
  explicit PerfCounter(std::uint64_t config, pid_t tid = 0) {
    perf_event_attr attr;
    std::memset(&attr, 0, sizeof attr);
    attr.type = PERF_TYPE_HARDWARE;
    attr.size = sizeof attr;
    attr.config = config;
    attr.disabled = 1;
    attr.exclude_kernel = 1;
    attr.exclude_hv = 1;
    attr.read_format =
        PERF_FORMAT_TOTAL_TIME_ENABLED | PERF_FORMAT_TOTAL_TIME_RUNNING;
    fd_ = static_cast<int>(
        ::syscall(SYS_perf_event_open, &attr, tid, -1, -1, 0));
  }
  ~PerfCounter() {
    if (fd_ >= 0) ::close(fd_);
  }
  PerfCounter(const PerfCounter&) = delete;
  PerfCounter& operator=(const PerfCounter&) = delete;

  void start() {
    if (fd_ < 0) return;
    ::ioctl(fd_, PERF_EVENT_IOC_RESET, 0);
    ::ioctl(fd_, PERF_EVENT_IOC_ENABLE, 0);
  }
  /// The count, scaled up if the kernel multiplexed the counter.
  std::uint64_t stop() {
    if (fd_ < 0) return 0;
    ::ioctl(fd_, PERF_EVENT_IOC_DISABLE, 0);
    std::uint64_t v[3] = {0, 0, 0};  // value, time enabled, time running
    if (::read(fd_, v, sizeof v) != sizeof v || v[2] == 0) return 0;
    if (v[2] >= v[1]) return v[0];
    return static_cast<std::uint64_t>(static_cast<double>(v[0]) *
                                      static_cast<double>(v[1]) /
                                      static_cast<double>(v[2]));
  }

 private:
  int fd_ = -1;
};

// --------------------------------------------------------------------------
// Sharded run
// --------------------------------------------------------------------------

/// One sharded replay's results (trivially copyable: see run_isolated).
struct ShardedRep {
  bool ran = false;
  /// User-mode instructions retired by all threads of the replay over the
  /// timed window, per timed frame, and its split by thread.
  double instructions_per_frame = 0.0;
  /// Every thread's counter opened and counted.
  bool counters_ok = false;
  double ingest_ins_per_frame = 0.0;
  double worker_ins_per_frame = 0.0;
  double classifier_ins_per_frame = 0.0;
  double frames_per_s = 0.0;
  double tte_p50_ms = 0.0;
  double tte_p99_ms = 0.0;
  double rss_bytes_per_device = 0.0;
  std::uint64_t lost_frames = 0;
  IdentSummary idents;
  std::uint64_t audit_checked = 0;
  std::uint64_t audit_violations = 0;
  // Pipeline counters, read from the gateway's public stats and registry.
  double submit_stalls = 0.0;
  double ring_high_water = 0.0;
  double classifier_busy_share = 0.0;
  double batch_size_mean = 0.0;
  double batch_p99_us = 0.0;
  double switch_cache_entries = 0.0;
  double captures = 0.0;
  double peak_active = 0.0;
  Pinning pinning;
};

/// Closed loop: one ingest thread submits back to back; `submit` blocks
/// while the owning shard's ring is full.
ShardedRep run_sharded(const Trace& trace, const core::IoTSecurityService& service,
                       const sim::Roster& roster, std::span<const int> cpus,
                       bool audit) {
  TteClock tte(trace);
  ShardedRep rep;
  rep.ran = true;

  reset_peak_rss();
  const std::uint64_t base_kib = status_kib("VmRSS:");
  pin(current_tid(), cpus);  // gateway threads inherit the full mask
  std::optional<sdn::EnforcementAuditor> auditor;
  core::ShardedGateway gw(service, gateway_config());
  if (audit) {
    auditor.emplace(gw.controller());
    gw.set_audit(auditor->hook());
  }
  gw.on_device_identified(
      [&](const core::GatewayEvent& e) { tte.identified(e.device); });
  // The gateway's threads in tid order, i.e. creation order: the shard
  // workers, then the classifier.
  const std::vector<pid_t> threads = other_threads(current_tid());
  rep.pinning = pin_threads(threads, cpus);
  PerfCounter ingest_ins(PERF_COUNT_HW_INSTRUCTIONS);
  std::vector<std::unique_ptr<PerfCounter>> thread_ins;
  for (const pid_t tid : threads) {
    thread_ins.push_back(
        std::make_unique<PerfCounter>(PERF_COUNT_HW_INSTRUCTIONS, tid));
  }

  const std::vector<Record>& recs = trace.records;
  const auto ingest = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const Record& r = recs[i];
      if (r.data == nullptr) {
        gw.expire_departed(r.timestamp_us, kSweepIdleUs);
        continue;
      }
      tte.before_record(i);
      gw.submit(std::span<const std::uint8_t>(r.data, r.size), r.timestamp_us);
    }
  };
  const auto replay_start = Clock::now();
  ingest(0, trace.warm_end);
  for (auto& c : thread_ins) c->start();
  ingest_ins.start();
  const auto timed_start = Clock::now();
  ingest(trace.warm_end, recs.size());
  gw.finish();  // joins the gateway threads
  const double timed_s = seconds_since(timed_start);
  const double replay_s = seconds_since(replay_start);
  const auto frames = static_cast<double>(trace.timed_frames);
  const std::uint64_t ingest_count = ingest_ins.stop();
  rep.counters_ok = ingest_count > 0;
  rep.ingest_ins_per_frame = static_cast<double>(ingest_count) / frames;
  for (std::size_t i = 0; i < thread_ins.size(); ++i) {
    const std::uint64_t count = thread_ins[i]->stop();
    rep.counters_ok = rep.counters_ok && count > 0;
    (i + 1 < thread_ins.size() ? rep.worker_ins_per_frame
                               : rep.classifier_ins_per_frame) +=
        static_cast<double>(count) / frames;
  }
  rep.instructions_per_frame = rep.ingest_ins_per_frame +
                               rep.worker_ins_per_frame +
                               rep.classifier_ins_per_frame;
  const std::uint64_t peak_kib = status_kib("VmHWM:");

  rep.frames_per_s = frames / timed_s;
  std::tie(rep.tte_p50_ms, rep.tte_p99_ms) = tte.percentiles_ms();
  rep.rss_bytes_per_device =
      static_cast<double>(peak_kib > base_kib ? peak_kib - base_kib : 0) *
      1024.0 / static_cast<double>(trace.devices_seen());

  const core::ShardedGateway::Stats stats = gw.stats();
  rep.lost_frames = trace.frames - stats.frames_processed;
  std::vector<Ident> idents;
  for (const core::GatewayEvent& e : gw.events()) {
    idents.emplace_back(e.device.to_u64(), e.device_type, e.level);
  }
  rep.idents = summarize(std::move(idents), trace, roster);

  rep.submit_stalls = static_cast<double>(stats.submit_stalls);
  rep.peak_active = static_cast<double>(stats.extractor_peak_active);
  for (std::size_t s = 0; s < gw.num_shards(); ++s) {
    rep.ring_high_water = std::max(
        rep.ring_high_water, static_cast<double>(stats.shards[s].ring_high_water));
    rep.switch_cache_entries += static_cast<double>(gw.shard_rule_cache(s).size());
    rep.captures +=
        static_cast<double>(gw.shard_extractor(s).completed().size());
  }
  const telemetry::Snapshot snap = gw.registry().snapshot();
  double scored = 0.0;
  for (const auto& scalar : snap.scalars) {
    if (scalar.name == "classifier.fingerprints_scored") {
      scored = static_cast<double>(scalar.value);
    }
  }
  for (const auto& h : snap.histograms) {
    if (h.name != "classifier.batch_latency_us") continue;
    rep.classifier_busy_share = static_cast<double>(h.sum) / (replay_s * 1e6);
    rep.batch_size_mean =
        h.count > 0 ? scored / static_cast<double>(h.count) : 0.0;
    rep.batch_p99_us = histogram_quantile(h, 0.99);
  }
  if (auditor) {
    rep.audit_checked = auditor->checked();
    rep.audit_violations = auditor->violations();
  }
  return rep;
}
static_assert(std::is_trivially_copyable_v<ShardedRep>);

// --------------------------------------------------------------------------
// Spans
// --------------------------------------------------------------------------

enum Layer : std::uint8_t {
  kMalformed,
  kParse,
  kTracker,
  kExtract,
  kSwitchCached,
  kSwitchSlow,
  kSwitchFast,
  // Not per frame: recorded every time they run.
  kExpireFlows,
  kAssess,
  kApplyRule,
  kFlushDevice,
  kMarkIdentified,
  kExpireDeparted,
  kNumLayers
};
constexpr Layer kFirstUnsampledLayer = kExpireFlows;

constexpr const char* kLayerNames[kNumLayers] = {
    "core.malformed",      "net.parse",        "core.tracker",
    "fingerprint.extract", "sdn.cached",       "sdn.slow",
    "sdn.fast",            "sdn.expire_flows", "core.assess",
    "sdn.apply_rule",      "sdn.flush_device", "core.mark_identified",
    "core.expire_departed"};

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::uint32_t frame = 0;
  Layer layer = kParse;
};

/// Span recorder over a preallocated buffer. Spans nest: a span begun while
/// another is open becomes its child.
class Tracer {
 public:
  void reset(std::size_t capacity) {
    spans_.clear();
    spans_.reserve(capacity);
    open_ = -1;
  }
  std::int32_t begin(Layer layer, std::uint32_t frame) {
    const auto idx = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(Span{0, 0, open_, frame, layer});
    open_ = idx;
    spans_.back().start_ns = now_ns();
    return idx;
  }
  void end(std::int32_t idx) {
    const std::int64_t t = now_ns();
    Span& s = spans_[static_cast<std::size_t>(idx)];
    s.end_ns = t;
    open_ = s.parent;
  }
  void relabel(std::int32_t idx, Layer layer) {
    spans_[static_cast<std::size_t>(idx)].layer = layer;
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::int32_t open_ = -1;
};

/// Cost of the tracer itself: `span_ns` is what an empty span measures,
/// `per_span_ns` what one begin/end pair adds to its parent's interval.
struct TimerCost {
  double span_ns = 0.0;
  double per_span_ns = 0.0;
};

TimerCost calibrate_tracer() {
  constexpr std::size_t kN = 200'000;
  Tracer t;
  TimerCost cost;
  for (int round = 0; round < 2; ++round) {  // the first round warms up
    t.reset(kN);
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < kN; ++i) t.end(t.begin(kParse, 0));
    const std::int64_t t1 = now_ns();
    std::vector<double> d;
    d.reserve(kN);
    for (const Span& s : t.spans()) {
      d.push_back(static_cast<double>(s.end_ns - s.start_ns));
    }
    cost.span_ns = median(std::move(d));
    cost.per_span_ns = static_cast<double>(t1 - t0) / static_cast<double>(kN);
  }
  return cost;
}

// --------------------------------------------------------------------------
// Serial composition
// --------------------------------------------------------------------------

/// The gateway's work as one thread of public calls: per frame what a
/// ShardedGateway worker does, and on each completed capture what the
/// classifier and the owning worker do, applied inline. Every layer call is
/// reachable for timing from outside. Used by --trace and --check only; the
/// timed runs measure the ShardedGateway itself.
class SerialPipeline {
 public:
  SerialPipeline(const Trace& trace, const core::IoTSecurityService& service,
                 Tracer& tracer, bool audit)
      : trace_(trace),
        service_(service),
        tracer_(tracer),
        controller_(gateway_config().controller),
        cache_(gateway_config().switch_cache_entries),
        switch_(controller_),
        extractor_(gateway_config().extractor) {
    controller_.attach_cache(&cache_);
    switch_.set_rule_cache(&cache_);
    if (audit) {
      auditor_.emplace(controller_);
      auditor_->attach(switch_);
    }
    extractor_.on_capture_complete(
        [this](const fp::DeviceCapture& c) { on_capture(c); });
  }
  SerialPipeline(const SerialPipeline&) = delete;
  SerialPipeline& operator=(const SerialPipeline&) = delete;

  /// Records capture, flow-expiry and sweep spans from now on, and keeps
  /// the captured fingerprints for the stage probe.
  void set_tracing(bool on) { tracing_ = on; }

  /// Replays records [begin, end). kSample also records the per-frame spans
  /// of every kSampleStride-th frame and the tier-2 population at each miss.
  template <bool kSample>
  void replay(std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const Record& r = trace_.records[i];
      frame_ = static_cast<std::uint32_t>(i);
      if (r.data == nullptr) {
        sweep(r.timestamp_us);
        continue;
      }
      const bool sampled = kSample && i % kSampleStride == 0;
      sampled_frames_ += sampled ? 1 : 0;
      const std::span<const std::uint8_t> bytes(r.data, r.size);
      bool malformed = false;
      timed<kSample>(sampled, kMalformed,
                     [&] { malformed = core::is_malformed_frame(bytes); });
      if (malformed) continue;
      net::ParsedPacket pkt;
      timed<kSample>(sampled, kParse, [&] {
        pkt = net::parse_ethernet_frame(bytes, r.timestamp_us);
      });
      timed<kSample>(sampled, kTracker, [&] { tracker_.observe(pkt, bytes); });
      timed<kSample>(sampled, kExtract, [&] { extractor_.observe(pkt); });
      if constexpr (kSample) {
        const std::size_t live_flows = switch_.table().size();
        sdn::SwitchResult result;
        if (sampled) {
          const std::int32_t s = tracer_.begin(kSwitchCached, frame_);
          result = switch_.process(pkt, r.timestamp_us);
          tracer_.end(s);
          tracer_.relabel(s, layer_of(result.path));
        } else {
          result = switch_.process(pkt, r.timestamp_us);
        }
        if (result.path == sdn::SwitchPath::kSlowPath) {
          miss_tier2_entries_ += live_flows;
          ++misses_;
        }
      } else {
        switch_.process(pkt, r.timestamp_us);
      }
      if (++since_expiry_ >= kExpiryStride) {
        since_expiry_ = 0;
        timed<true>(tracing_, kExpireFlows,
                    [&] { switch_.expire_flows(r.timestamp_us); });
      }
    }
  }

  /// Completes every open capture (the gateway's drain in finish()).
  void finish() {
    frame_ = static_cast<std::uint32_t>(trace_.records.size());
    extractor_.flush_all();
  }

  struct Counters {
    std::uint64_t cached = 0;
    std::uint64_t slow = 0;
    std::uint64_t fast = 0;
    std::uint64_t packet_ins = 0;
    std::uint64_t negative_hits = 0;
    std::uint64_t invalidations = 0;

    friend Counters operator-(const Counters& a, const Counters& b) {
      return {a.cached - b.cached,
              a.slow - b.slow,
              a.fast - b.fast,
              a.packet_ins - b.packet_ins,
              a.negative_hits - b.negative_hits,
              a.invalidations - b.invalidations};
    }
  };
  [[nodiscard]] Counters counters() const {
    return {switch_.cached_path_packets(),     switch_.slow_path_packets(),
            switch_.fast_path_packets(),       controller_.packet_ins(),
            controller_.negative_cache_hits(), controller_.invalidations_sent()};
  }
  [[nodiscard]] std::vector<Ident> take_idents() { return std::move(idents_); }
  [[nodiscard]] std::vector<fp::Fingerprint> take_fingerprints() {
    return std::move(fingerprints_);
  }
  [[nodiscard]] std::uint64_t sampled_frames() const { return sampled_frames_; }
  [[nodiscard]] double tier2_entries_per_miss() const {
    return misses_ > 0 ? static_cast<double>(miss_tier2_entries_) /
                             static_cast<double>(misses_)
                       : 0.0;
  }
  [[nodiscard]] std::uint64_t audit_violations() const {
    return auditor_ ? auditor_->violations() : 0;
  }

 private:
  template <bool kEnabled, typename Fn>
  void timed(bool record, Layer layer, Fn&& fn) {
    if constexpr (kEnabled) {
      if (record) {
        const std::int32_t s = tracer_.begin(layer, frame_);
        fn();
        tracer_.end(s);
        return;
      }
    }
    fn();
  }

  static Layer layer_of(sdn::SwitchPath path) {
    switch (path) {
      case sdn::SwitchPath::kCachedPath: return kSwitchCached;
      case sdn::SwitchPath::kSlowPath: return kSwitchSlow;
      case sdn::SwitchPath::kFastPath: break;
    }
    return kSwitchFast;
  }

  // The classifier's assessment and the worker's apply_verdict_msg.
  void on_capture(const fp::DeviceCapture& c) {
    core::ServiceVerdict verdict;
    timed<true>(tracing_, kAssess,
                [&] { verdict = service_.assess(c.fingerprint); });
    timed<true>(tracing_, kApplyRule, [&] {
      controller_.apply_rule(core::rule_for_verdict(verdict, c.mac, c.end_us),
                             c.end_us);
    });
    timed<true>(tracing_, kFlushDevice, [&] { switch_.flush_device(c.mac); });
    timed<true>(tracing_, kMarkIdentified, [&] {
      tracker_.mark_identified(c.mac, verdict.device_type, verdict.level);
    });
    idents_.emplace_back(c.mac.to_u64(), verdict.device_type, verdict.level);
    if (tracing_ && fingerprints_.size() < kProbeMax) {
      fingerprints_.push_back(c.fingerprint);
    }
  }

  // ShardedGateway::handle_expire's sweep.
  void sweep(std::uint64_t now_us) {
    timed<true>(tracing_, kExpireDeparted, [&] {
      tracker_.idle_devices_into(now_us, kSweepIdleUs, departed_);
      for (const net::MacAddress& mac : departed_) {
        controller_.remove_device(mac, now_us);
        switch_.flush_device(mac);
        extractor_.forget(mac);
        tracker_.forget(mac);
      }
    });
  }

  const Trace& trace_;
  const core::IoTSecurityService& service_;
  Tracer& tracer_;
  bool tracing_ = false;
  sdn::Controller controller_;
  // Declared before the switch it audits, so it is destroyed after it.
  std::optional<sdn::EnforcementAuditor> auditor_;
  sdn::SwitchRuleCache cache_;
  sdn::SoftwareSwitch switch_;
  fp::SetupCaptureExtractor extractor_;
  core::DeviceTracker tracker_;
  std::vector<net::MacAddress> departed_;
  std::vector<Ident> idents_;
  std::vector<fp::Fingerprint> fingerprints_;
  std::uint32_t frame_ = 0;
  std::uint64_t since_expiry_ = 0;
  std::uint64_t sampled_frames_ = 0;
  std::uint64_t miss_tier2_entries_ = 0;
  std::uint64_t misses_ = 0;
};

/// One serial pass. Timed over the same window as the sharded replay; the
/// warm-up is replayed untimed.
struct SerialStats {
  bool ran = false;
  double window_s = 0.0;
  double instructions_per_frame = 0.0;
  double cycles_per_frame = 0.0;
  IdentSummary idents;
  std::uint64_t audit_violations = 0;
  SerialPipeline::Counters window;  // counter deltas over the timed window
  std::uint64_t sampled_frames = 0;
  double tier2_entries_per_miss = 0.0;
};

struct SerialPass {
  SerialStats stats;
  std::vector<fp::Fingerprint> fingerprints;  // traced passes only
};

/// `traced` records spans into `tracer` (reset to `span_capacity`); an
/// untraced pass leaves it alone.
SerialPass run_serial(const Trace& trace, const core::IoTSecurityService& service,
                      const sim::Roster& roster, Tracer& tracer, bool traced,
                      bool audit, std::size_t span_capacity) {
  if (traced) tracer.reset(span_capacity);
  SerialPipeline pipe(trace, service, tracer, audit);
  pipe.set_tracing(traced);
  pipe.replay<false>(0, trace.warm_end);
  const SerialPipeline::Counters before = pipe.counters();
  PerfCounter instructions(PERF_COUNT_HW_INSTRUCTIONS);
  PerfCounter cycles(PERF_COUNT_HW_CPU_CYCLES);
  instructions.start();
  cycles.start();
  const auto t0 = Clock::now();
  if (traced) {
    pipe.replay<true>(trace.warm_end, trace.records.size());
  } else {
    pipe.replay<false>(trace.warm_end, trace.records.size());
  }
  pipe.finish();
  SerialPass pass;
  SerialStats& s = pass.stats;
  s.window_s = seconds_since(t0);
  const auto frames = static_cast<double>(trace.timed_frames);
  s.cycles_per_frame = static_cast<double>(cycles.stop()) / frames;
  s.instructions_per_frame = static_cast<double>(instructions.stop()) / frames;
  s.ran = true;
  s.window = pipe.counters() - before;
  s.idents = summarize(pipe.take_idents(), trace, roster);
  s.audit_violations = pipe.audit_violations();
  s.sampled_frames = pipe.sampled_frames();
  s.tier2_entries_per_miss = pipe.tier2_entries_per_miss();
  pass.fingerprints = pipe.take_fingerprints();
  return pass;
}

// --------------------------------------------------------------------------
// Per-layer analysis
// --------------------------------------------------------------------------

/// Self time of one layer.
struct LayerTime {
  std::uint64_t spans = 0;
  /// Sum of self times over the recorded spans.
  double self_ns = 0.0;
  /// Estimated self time inside the timed window: sampled per-frame spans
  /// scaled by frames / sampled frames, other spans summed as recorded.
  double window_ns = 0.0;

  [[nodiscard]] double mean_ns() const {
    return spans > 0 ? self_ns / static_cast<double>(spans) : 0.0;
  }
  LayerTime& operator+=(const LayerTime& other) {
    spans += other.spans;
    self_ns += other.self_ns;
    window_ns += other.window_ns;
    return *this;
  }
};

/// Self time = duration - tracer cost - what the child spans, with their
/// own tracer cost, cover.
std::array<LayerTime, kNumLayers> layer_times(const std::vector<Span>& spans,
                                              const TimerCost& cost,
                                              const Trace& trace,
                                              std::uint64_t sampled_frames) {
  std::vector<double> children(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    children[static_cast<std::size_t>(s.parent)] +=
        static_cast<double>(s.end_ns - s.start_ns) - cost.span_ns +
        cost.per_span_ns;
  }
  const double scale =
      sampled_frames > 0 ? static_cast<double>(trace.timed_frames) /
                               static_cast<double>(sampled_frames)
                         : 0.0;
  std::array<LayerTime, kNumLayers> out{};
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double self = static_cast<double>(s.end_ns - s.start_ns) -
                        cost.span_ns - children[i];
    LayerTime& lt = out[s.layer];
    ++lt.spans;
    lt.self_ns += self;
    if (s.layer < kFirstUnsampledLayer) {
      lt.window_ns += self * scale;
    } else if (s.frame >= trace.warm_end) {
      lt.window_ns += self;
    }
  }
  return out;
}

struct StageSplit {
  double stage1_ns = 0.0;
  double stage2_ns = 0.0;
  double stage2_share = 0.0;
};

/// Times stage 1 (F' + classifier bank) and stage 2 (edit-distance
/// discrimination, run when several types accept) per fingerprint; the
/// median of three rounds.
StageSplit probe_stages(const core::DeviceIdentifier& identifier,
                        const std::vector<fp::Fingerprint>& fingerprints,
                        const TimerCost& cost) {
  if (fingerprints.empty()) return {};
  std::vector<double> s1_rounds, s2_rounds;
  std::vector<std::size_t> candidates;
  for (int round = 0; round < 3; ++round) {
    double s1 = 0.0, s2 = 0.0;
    for (const fp::Fingerprint& f : fingerprints) {
      const std::int64_t t0 = now_ns();
      identifier.classify_into(f.to_fixed(identifier.config().fixed_prefix),
                               candidates);
      const std::int64_t t1 = now_ns();
      s1 += static_cast<double>(t1 - t0) - cost.span_ns;
      if (candidates.size() > 1) {
        (void)identifier.discriminate(f, candidates);
        s2 += static_cast<double>(now_ns() - t1) - cost.span_ns;
      }
    }
    const auto n = static_cast<double>(fingerprints.size());
    s1_rounds.push_back(s1 / n);
    s2_rounds.push_back(s2 / n);
  }
  StageSplit split;
  split.stage1_ns = median(s1_rounds);
  split.stage2_ns = median(s2_rounds);
  const double total = split.stage1_ns + split.stage2_ns;
  split.stage2_share = total > 0.0 ? split.stage2_ns / total : 0.0;
  return split;
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "bench_sentinel: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "layer\tstart_ns\tend_ns\tparent\tframe\n");
  const std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (const Span& s : spans) {
    std::fprintf(f, "%s\t%" PRId64 "\t%" PRId64 "\t%" PRId32 "\t%" PRIu32 "\n",
                 kLayerNames[s.layer], s.start_ns - origin, s.end_ns - origin,
                 s.parent, s.frame);
  }
  std::fclose(f);
}

// --------------------------------------------------------------------------
// Results and checks
// --------------------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  std::vector<double> values;  // one per repetition or pass
};

/// Appends a number as measured, with all its digits.
void append_number(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  out += buf;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;

  void require(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      problems.push_back(what);
    }
  }
};

/// Frames lost, devices never identified, enforcement violations, and
/// agreement with the reference identification multiset. A run counts its
/// frames and devices as attempted.
template <typename Run>
void check_run(const Run& run, std::uint64_t lost_frames,
               std::uint64_t reference_verdicts, const Trace& trace,
               const char* what, Outcome& o) {
  o.attempted += trace.frames + trace.devices_seen();
  if (!run.ran) {
    o.failed += trace.frames + trace.devices_seen();
    o.require(false, std::string(what) + ": the run's process failed");
    return;
  }
  o.failed += lost_frames + run.idents.unidentified;
  o.require(lost_frames == 0, std::string(what) + ": " +
                                  std::to_string(lost_frames) + " frames lost");
  o.require(run.idents.unidentified == 0,
            std::string(what) + ": " + std::to_string(run.idents.unidentified) +
                " devices never identified");
  o.require(run.audit_violations == 0,
            std::string(what) + ": " + std::to_string(run.audit_violations) +
                " enforcement violations");
  o.require(run.idents.verdict_hash == reference_verdicts,
            std::string(what) +
                ": identification multiset differs from the first sharded "
                "replay's");
}

/// Pinned digests for the default seed.
void check_expected(const Workload& w, bool smoke, std::uint64_t seed,
                    const Trace& trace, std::uint64_t verdicts, Outcome& o) {
  if (seed != kDefaultSeed) return;
  for (const Expected& e : kExpected) {
    if (e.smoke != smoke || std::strcmp(e.workload, w.name) != 0) continue;
    o.require(trace.stream_hash == e.stream_hash,
              "stream_hash " + hex(trace.stream_hash) + " != pinned " +
                  hex(e.stream_hash));
    o.require(verdicts == e.verdict_hash, "verdict_hash " + hex(verdicts) +
                                              " != pinned " +
                                              hex(e.verdict_hash));
  }
}

void report_problems(const char* workload, const Outcome& o) {
  for (const std::string& p : o.problems) {
    std::fprintf(stderr, "bench_sentinel: %s: %s\n", workload, p.c_str());
  }
}

/// The final stdout line.
void print_result(const Outcome& o, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += o.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(o.attempted);
  out += ", \"failed\": " + std::to_string(o.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i > 0 ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": ";
    append_number(out, median(metrics[i].values));
    out += ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

struct RunInfo {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  const char* mode = "";
  const Trace* trace = nullptr;
  std::uint64_t verdict_hash = 0;
  Pinning pinning;
  std::vector<int> cpus;
  std::string layers_json;  // --trace only
};

/// --json: every metric with its per-repetition values, median and
/// quartiles, plus the workload and machine blocks.
void write_json(const std::string& path, const RunInfo& info, const Outcome& o,
                const std::vector<Metric>& metrics) {
  const Workload& w = *info.workload;
  const Trace& t = *info.trace;
  std::string out = "{\n  \"benchmark\": \"bench_sentinel\",\n";
  out += "  \"mode\": \"" + std::string(info.mode) + "\",\n";
  out += "  \"workload\": {\"name\": \"" + std::string(w.name) +
         "\", \"seed\": " + std::to_string(info.seed) +
         ", \"devices\": " + std::to_string(w.devices) +
         ", \"horizon_s\": " + std::to_string(w.horizon_us / 1'000'000) +
         ", \"join_window_s\": " + std::to_string(w.join_window_us / 1'000'000) +
         ", \"warmup_s\": " + std::to_string(w.warmup_us / 1'000'000) +
         ", \"sweep_every_s\": " + std::to_string(w.sweep_every_us / 1'000'000) +
         ",\n               \"frames\": " + std::to_string(t.frames) +
         ", \"timed_frames\": " + std::to_string(t.timed_frames) +
         ", \"sweeps\": " + std::to_string(t.sweeps) +
         ", \"devices_seen\": " + std::to_string(t.devices_seen()) +
         ", \"stream_hash\": \"" + hex(t.stream_hash) +
         "\", \"verdict_hash\": \"" + hex(info.verdict_hash) + "\"},\n";
  out += "  \"machine\": {\"commit\": \"" BENCH_SENTINEL_COMMIT
         "\", \"compiler\": \"" __VERSION__
         "\", \"build_type\": \"" BENCH_SENTINEL_BUILD_TYPE
         "\", \"cpu_model\": \"" +
         cpu_model() + "\", \"nproc\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"allowed_cpus\": [";
  for (std::size_t i = 0; i < info.cpus.size(); ++i) {
    out += (i > 0 ? ", " : "") + std::to_string(info.cpus[i]);
  }
  out += "], \"pinning\": {\"ingest\": " + std::to_string(info.pinning.ingest) +
         ", \"gateway_threads\": [";
  for (std::size_t i = 0; i < info.pinning.threads; ++i) {
    out += (i > 0 ? ", " : "") + std::to_string(info.pinning.gateway[i]);
  }
  out += std::string("], \"ok\": ") + (info.pinning.ok ? "true" : "false") +
         "}, \"arena_bytes\": " + std::to_string(t.arena_bytes()) + "},\n";
  out += std::string("  \"correct\": ") + (o.correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(o.attempted) +
         ", \"failed\": " + std::to_string(o.failed) + ", \"fail_rate\": ";
  append_number(out, o.attempted > 0 ? static_cast<double>(o.failed) /
                                           static_cast<double>(o.attempted)
                                     : 0.0);
  out += ",\n  \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    const auto q = quartiles(m.values);
    out += (i > 0 ? ",\n    \"" : "\n    \"") + m.name + "\": {\"unit\": \"" +
           m.unit + "\", \"median\": ";
    append_number(out, median(m.values));
    out += ", \"q1\": ";
    append_number(out, q[0]);
    out += ", \"q3\": ";
    append_number(out, q[2]);
    out += ", \"values\": [";
    for (std::size_t k = 0; k < m.values.size(); ++k) {
      if (k > 0) out += ", ";
      append_number(out, m.values[k]);
    }
    out += "]}";
  }
  out += "\n  }";
  if (!info.layers_json.empty()) out += ",\n  \"layers\": " + info.layers_json;
  out += "\n}\n";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "bench_sentinel: cannot write %s\n", path.c_str());
    return;
  }
  std::fputs(out.c_str(), f);
  std::fclose(f);
}

// --------------------------------------------------------------------------
// Modes
// --------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 20.0;
  bool trace = false;
  bool check = false;
  bool smoke = false;
  std::string json_path;
  std::string trace_out;
};

/// What every mode shares: one workload's trace and a trained service.
struct Context {
  const Workload& workload;
  bool smoke;
  std::uint64_t seed;
  const sim::Roster& roster;
  std::vector<int> cpus;
  Trace trace;
  std::vector<double> setup_s;
  std::unique_ptr<core::IoTSecurityService> service;
};

Context make_context(const Workload& w, bool smoke, std::uint64_t seed,
                     std::size_t setup_builds) {
  Context ctx{w, smoke, seed, sim::device_roster(), allowed_cpus(), {}, {}, {}};
  // Generation, set-up and serial passes run on the CPU ingest will use.
  pin(current_tid(), std::span<const int>(ctx.cpus).first(1));
  const auto t0 = Clock::now();
  ctx.trace = generate_trace(w, seed, ctx.roster);
  std::fprintf(stderr,
               "bench_sentinel: %s%s seed %" PRIu64 ": %zu frames (%zu timed), "
               "%zu sweeps, %zu devices, %.1f MiB arena, generated in %.2f s\n",
               smoke ? "smoke " : "", w.name, seed, ctx.trace.frames,
               ctx.trace.timed_frames, ctx.trace.sweeps,
               ctx.trace.devices_seen(),
               static_cast<double>(ctx.trace.arena_bytes()) / (1 << 20),
               seconds_since(t0));
  ctx.setup_s = timed_setups(setup_builds, ctx.service);
  return ctx;
}

ShardedRep sharded_run(const Context& ctx, bool audit) {
  return run_isolated<ShardedRep>([&] {
    return run_sharded(ctx.trace, *ctx.service, ctx.roster, ctx.cpus, audit);
  });
}

/// The timed runs: sharded replays until `seconds` have elapsed, at least
/// kMinReps of them.
///
/// The bounded metrics are the ones this kind of machine can measure
/// steadily: CPU work per frame (hardware instruction counters on every
/// thread of the replay), peak RSS, accuracy and set-up time. Wall-clock
/// rates and time-to-enforcement on a shared host drift between runs by far
/// more than a regression bound (README.md, "Why the bounded metrics are
/// counts"); they are kept in the --json report for paired comparisons.
int run_timed(Context& ctx, const Options& opt) {
  std::vector<ShardedRep> reps;
  const auto start = Clock::now();
  while (reps.size() < kMinReps ||
         (seconds_since(start) < opt.seconds && reps.size() < kMaxReps)) {
    reps.push_back(sharded_run(ctx, /*audit=*/false));
  }
  const std::uint64_t reference = reps.front().idents.verdict_hash;

  Outcome o;
  for (const ShardedRep& r : reps) {
    check_run(r, r.lost_frames, reference, ctx.trace, "sharded", o);
    o.require(!r.ran || r.counters_ok,
              "no hardware instruction counter on every thread "
              "(perf_event_open)");
  }
  check_expected(ctx.workload, ctx.smoke, ctx.seed, ctx.trace, reference, o);
  report_problems(ctx.workload.name, o);

  std::vector<Metric> metrics = {
      {"instructions_per_frame", "ins/frame", {}},
      {"rss_bytes_per_device", "bytes", {}},
      {"misid_rate", "ratio", {}},
      {"setup_s", "s", ctx.setup_s}};
  std::vector<Metric> extra = {
      {"core.ingest_ins_per_frame", "ins/frame", {}},
      {"core.worker_ins_per_frame", "ins/frame", {}},
      {"core.classifier_ins_per_frame", "ins/frame", {}},
      {"sharded.frames_per_s", "1/s", {}},
      {"sharded.tte_p50_ms", "ms", {}},
      {"sharded.tte_p99_ms", "ms", {}},
      {"core.submit_stalls", "count", {}},
      {"core.ring_high_water", "count", {}}};
  for (const ShardedRep& r : reps) {
    if (!r.ran) continue;
    metrics[0].values.push_back(r.instructions_per_frame);
    metrics[1].values.push_back(r.rss_bytes_per_device);
    metrics[2].values.push_back(r.idents.misid_rate);
    const double per_rep[] = {r.ingest_ins_per_frame, r.worker_ins_per_frame,
                              r.classifier_ins_per_frame, r.frames_per_s,
                              r.tte_p50_ms, r.tte_p99_ms, r.submit_stalls,
                              r.ring_high_water};
    for (std::size_t i = 0; i < extra.size(); ++i) {
      extra[i].values.push_back(per_rep[i]);
    }
  }
  std::fprintf(stderr,
               "bench_sentinel: %zu sharded replays, median %.0f frames/s, "
               "%.1f instructions/frame\n",
               reps.size(), median(extra[3].values), median(metrics[0].values));
  if (!opt.json_path.empty()) {
    std::vector<Metric> all = metrics;
    all.insert(all.end(), extra.begin(), extra.end());
    const RunInfo info{&ctx.workload, ctx.seed, "timed", &ctx.trace, reference,
                       reps.front().pinning, ctx.cpus, {}};
    write_json(opt.json_path, info, o, all);
  }
  print_result(o, metrics);
  return o.correct ? 0 : 1;
}

/// --trace: the sharded run for the pipeline counters, then alternating
/// untraced and traced serial passes until `seconds` have elapsed.
int run_traced(Context& ctx, const Options& opt) {
  const Trace& trace = ctx.trace;
  const ShardedRep sharded = sharded_run(ctx, /*audit=*/false);
  const std::uint64_t reference = sharded.idents.verdict_hash;
  const TimerCost cost = calibrate_tracer();

  Tracer tracer;
  const std::size_t span_capacity =
      (trace.timed_frames / kSampleStride + 1) * 6 +
      trace.frames / kExpiryStride + trace.sweeps +
      4 * (sharded.idents.count + 1) + 64;
  std::vector<double> plain_s, traced_s, overhead, coverage, plain_ins,
      plain_cycles;
  SerialPass plain, traced;
  // Pairs of one untraced and one traced pass, in alternating order so that
  // drift of the machine's speed cancels; overhead and coverage are medians
  // of per-pair ratios, layer times are summed over all traced passes.
  std::array<LayerTime, kNumLayers> layers{};
  double plain_total_ns = 0.0;
  const auto start = Clock::now();
  while (plain_s.size() < kMinReps ||
         (seconds_since(start) < opt.seconds && plain_s.size() < kMaxReps)) {
    const auto run_plain = [&] {
      plain =
          run_serial(trace, *ctx.service, ctx.roster, tracer, false, false, 0);
    };
    const auto run_traced_pass = [&] {
      traced = run_serial(trace, *ctx.service, ctx.roster, tracer, true, false,
                          span_capacity);
    };
    if (plain_s.size() % 2 == 0) {
      run_plain();
      run_traced_pass();
    } else {
      run_traced_pass();
      run_plain();
    }
    plain_s.push_back(plain.stats.window_s);
    plain_ins.push_back(plain.stats.instructions_per_frame);
    plain_cycles.push_back(plain.stats.cycles_per_frame);
    traced_s.push_back(traced.stats.window_s);
    overhead.push_back(traced.stats.window_s / plain.stats.window_s - 1.0);
    plain_total_ns += plain.stats.window_s * 1e9;
    const auto pass = layer_times(tracer.spans(), cost, trace,
                                  traced.stats.sampled_frames);
    double pass_covered_ns = 0.0;
    for (std::size_t l = 0; l < kNumLayers; ++l) {
      layers[l] += pass[l];
      pass_covered_ns += pass[l].window_ns;
    }
    coverage.push_back(pass_covered_ns / (plain.stats.window_s * 1e9));
  }
  const double plain_ns = median(plain_s) * 1e9;
  const StageSplit stages =
      probe_stages(ctx.service->identifier(), traced.fingerprints, cost);
  if (!opt.trace_out.empty()) write_spans(opt.trace_out, tracer.spans());

  Outcome o;
  check_run(sharded, sharded.lost_frames, reference, trace, "sharded", o);
  check_run(plain.stats, 0, reference, trace, "serial", o);
  check_run(traced.stats, 0, reference, trace, "traced serial", o);
  check_expected(ctx.workload, ctx.smoke, ctx.seed, trace, reference, o);
  report_problems(ctx.workload.name, o);

  const SerialPipeline::Counters& c = plain.stats.window;
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  const std::vector<Metric> metrics = {
      {"net.parse_ns", "ns", {layers[kParse].mean_ns()}},
      {"core.malformed_ns", "ns", {layers[kMalformed].mean_ns()}},
      {"core.tracker_ns", "ns", {layers[kTracker].mean_ns()}},
      {"fingerprint.extract_ns", "ns", {layers[kExtract].mean_ns()}},
      {"sdn.cached_ns", "ns", {layers[kSwitchCached].mean_ns()}},
      {"sdn.cached_pkts", "count", {count(c.cached)}},
      {"sdn.cached_ratio", "ratio",
       {ratio(count(c.cached), count(c.cached + c.slow))}},
      {"sdn.slow_ns", "ns", {layers[kSwitchSlow].mean_ns()}},
      {"sdn.slow_pkts", "count", {count(c.slow)}},
      {"sdn.tier2_entries_per_miss", "count",
       {traced.stats.tier2_entries_per_miss}},
      {"sdn.neg_hit_ratio", "ratio",
       {ratio(count(c.negative_hits), count(c.packet_ins))}},
      {"sdn.fast_pkts", "count", {count(c.fast)}},
      {"core.assess_ns", "ns", {layers[kAssess].mean_ns()}},
      {"ml.stage1_ns", "ns", {stages.stage1_ns}},
      {"distance.stage2_ns", "ns", {stages.stage2_ns}},
      {"distance.stage2_share", "ratio", {stages.stage2_share}},
      {"sdn.apply_rule_ns", "ns", {layers[kApplyRule].mean_ns()}},
      {"sdn.flush_device_ns", "ns", {layers[kFlushDevice].mean_ns()}},
      {"core.mark_identified_ns", "ns", {layers[kMarkIdentified].mean_ns()}},
      {"sdn.expire_flows_ns", "ns", {layers[kExpireFlows].mean_ns()}},
      {"core.expire_departed_share", "ratio",
       {ratio(layers[kExpireDeparted].window_ns, plain_total_ns)}},
      {"sdn.invalidations_sent", "count", {count(c.invalidations)}},
      {"core.submit_stalls", "count", {sharded.submit_stalls}},
      {"core.ring_high_water", "count", {sharded.ring_high_water}},
      {"core.classifier_busy_share", "ratio", {sharded.classifier_busy_share}},
      {"core.batch_size_mean", "count", {sharded.batch_size_mean}},
      {"core.batch_p99_us", "us", {sharded.batch_p99_us}},
      {"sdn.switch_cache_entries", "count", {sharded.switch_cache_entries}},
      {"fingerprint.captures", "count", {sharded.captures}},
      {"fingerprint.peak_active", "count", {sharded.peak_active}},
      {"core.ingest_ins_per_frame", "ins/frame", {sharded.ingest_ins_per_frame}},
      {"core.worker_ins_per_frame", "ins/frame", {sharded.worker_ins_per_frame}},
      {"core.classifier_ins_per_frame", "ins/frame",
       {sharded.classifier_ins_per_frame}},
      {"sharded.frames_per_s", "1/s", {sharded.frames_per_s}},
      {"sharded.tte_p50_ms", "ms", {sharded.tte_p50_ms}},
      {"sharded.tte_p99_ms", "ms", {sharded.tte_p99_ms}},
      {"serial.frames_per_s", "1/s",
       {static_cast<double>(trace.timed_frames) * 1e9 / plain_ns}},
      {"serial.instructions_per_frame", "ins/frame", {median(plain_ins)}},
      {"serial.cycles_per_frame", "cycles", {median(plain_cycles)}},
      {"trace.coverage", "ratio", {median(coverage)}},
      {"trace.overhead", "ratio", {median(overhead)}},
  };

  if (!opt.json_path.empty()) {
    std::string layers_json = "[";
    for (std::size_t l = 0; l < kNumLayers; ++l) {
      layers_json += std::string(l > 0 ? ",\n    " : "\n    ") +
                     "{\"layer\": \"" + kLayerNames[l] +
                     "\", \"spans\": " + std::to_string(layers[l].spans) +
                     ", \"mean_self_ns\": ";
      append_number(layers_json, layers[l].mean_ns());
      layers_json += ", \"window_share\": ";
      append_number(layers_json, layers[l].window_ns / plain_total_ns);
      layers_json += "}";
    }
    layers_json += "\n  ]";
    const RunInfo info{&ctx.workload, ctx.seed, "trace", &trace, reference,
                       sharded.pinning, ctx.cpus, layers_json};
    std::vector<Metric> all = metrics;
    all.push_back({"serial.window_s", "s", plain_s});
    all.push_back({"serial.traced_window_s", "s", traced_s});
    all.push_back({"trace.span_ns", "ns", {cost.span_ns}});
    all.push_back({"trace.per_span_ns", "ns", {cost.per_span_ns}});
    write_json(opt.json_path, info, o, all);
  }
  print_result(o, metrics);
  return o.correct ? 0 : 1;
}

/// --check: sharded runs under the enforcement auditor and the serial
/// composition, also audited, must agree on every identification.
bool run_check(const Context& ctx, std::size_t sharded_runs) {
  Outcome o;
  std::uint64_t reference = 0;
  std::uint64_t checked = 0;
  for (std::size_t i = 0; i < sharded_runs; ++i) {
    const ShardedRep rep = sharded_run(ctx, /*audit=*/true);
    if (i == 0) reference = rep.idents.verdict_hash;
    check_run(rep, rep.lost_frames, reference, ctx.trace, "sharded", o);
    checked += rep.audit_checked;
  }
  Tracer unused;
  const SerialPass serial = run_serial(ctx.trace, *ctx.service, ctx.roster,
                                       unused, false, /*audit=*/true, 0);
  check_run(serial.stats, 0, reference, ctx.trace, "serial", o);
  check_expected(ctx.workload, ctx.smoke, ctx.seed, ctx.trace, reference, o);
  report_problems(ctx.workload.name, o);
  std::fprintf(stderr,
               "bench_sentinel: check %s%s seed %" PRIu64 ": %s (%" PRIu64
               " audited verdicts, %" PRIu64 " identifications, stream_hash "
               "%s, verdict_hash %s)\n",
               ctx.smoke ? "smoke " : "", ctx.workload.name, ctx.seed,
               o.correct ? "PASS" : "FAIL", checked, serial.stats.idents.count,
               hex(ctx.trace.stream_hash).c_str(), hex(reference).c_str());
  return o.correct;
}

/// --smoke: small versions of all three workloads with every check on, plus
/// one timed and one traced run.
int run_smoke() {
  bool ok = true;
  Options opt;
  opt.seconds = 0.0;
  for (const Workload& w : kSmokeWorkloads) {
    Context ctx = make_context(w, /*smoke=*/true, kDefaultSeed, 1);
    ok = run_check(ctx, 2) && ok;
    if (std::strcmp(w.name, "steady") == 0) ok = run_timed(ctx, opt) == 0 && ok;
    if (std::strcmp(w.name, "churn") == 0) ok = run_traced(ctx, opt) == 0 && ok;
  }
  std::fprintf(stderr, "bench_sentinel: smoke %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload steady|onboarding|churn [--seed N]\n"
               "          [--seconds S] [--trace [--trace-out PATH]] [--check]\n"
               "          [--json PATH]\n"
               "       %s --smoke\n",
               argv0, argv0);
}

bool parse_options(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = nullptr;
    if (arg == "--workload" || arg == "--seed" || arg == "--seconds" ||
        arg == "--json" || arg == "--trace-out") {
      if (i + 1 >= argc) return false;
      value = argv[++i];
    }
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(opt.seconds >= 0.0)) return false;
    } else if (arg == "--json") {
      opt.json_path = value;
    } else if (arg == "--trace-out") {
      opt.trace_out = value;
    } else if (arg == "--trace") {
      opt.trace = true;
    } else if (arg == "--check") {
      opt.check = true;
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_options(argc, argv, opt)) {
    usage(argv[0]);
    return 2;
  }
  if (opt.smoke) return run_smoke();
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (opt.workload == w.name) workload = &w;
  }
  if (workload == nullptr) {
    usage(argv[0]);
    return 2;
  }
  Context ctx = make_context(*workload, /*smoke=*/false, opt.seed,
                             opt.trace || opt.check ? 1 : kSetupBuilds);
  if (opt.check) return run_check(ctx, 1) ? 0 : 1;
  if (opt.trace) return run_traced(ctx, opt);
  return run_timed(ctx, opt);
}
