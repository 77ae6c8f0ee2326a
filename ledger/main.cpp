// topfull_ledger: one invocation = one workload run of the perf ledger.
//
//   topfull_ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--trace-out <file.json>]
//
// Prints notes, a machine-descriptor line, and as its last line one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. See
// README.md in this directory for the workloads and metrics.
#include <sched.h>
#include <sys/resource.h>

#include <cpuid.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <string>
#include <vector>

#include "ledger.hpp"

namespace ledger {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
  bool end_to_end;
};

// Names and units must match BENCHMARK.json (run.py checks the output).
constexpr MetricSpec kMetrics[] = {
    {"sim_speed", "s/s", true},
    {"setup_s", "s", true},
    {"peak_rss_mb", "MB", true},
    {"tick_p50_us", "us", true},
    {"goodput_rps", "1/s", true},
    {"slo_miss_frac", "fraction", true},
    {"admit_mops", "Mop/s", true},
    {"admit_p50_ns", "ns", true},
    {"admit_p99_ns", "ns", true},
    {"des.events", "count", false},
    {"des.events_cancelled", "count", false},
    {"des.events_scheduled", "count", false},
    {"des.events_per_s", "1/s", false},
    {"sim.requests", "count", false},
    {"sim.hop_attempts", "count", false},
    {"sim.retries", "count", false},
    {"sim.arena_slots", "count", false},
    {"sim.self_s", "s", false},
    {"sim.ns_per_event", "ns", false},
    {"admit.calls", "count", false},
    {"admit.admit_frac", "fraction", false},
    {"admit.busy_s", "s", false},
    {"admit.ns_per_call", "ns", false},
    {"admit.ns_per_call_1t", "ns", false},
    {"admit.contention_ratio", "ratio", false},
    {"admit.publishes", "count", false},
    {"admit.coalesced", "count", false},
    {"admit.publish_p50_us", "us", false},
    {"admit.bound_slack_min", "fraction", false},
    {"admit.lat_samples", "count", false},
    {"core.ticks", "count", false},
    {"core.tick_busy_s", "s", false},
    {"core.tick_p90_us", "us", false},
    {"core.tick_self_s", "s", false},
    {"core.decisions", "count", false},
    {"core.clusters_per_tick", "count", false},
    {"rl.infer_calls", "count", false},
    {"rl.infer_busy_s", "s", false},
    {"rl.infer_ns_per_call", "ns", false},
    {"obs.windows", "count", false},
    {"obs.window_busy_s", "s", false},
    {"obs.window_us_p50", "us", false},
    {"shard.rounds", "count", false},
    {"shard.msgs", "count", false},
    {"shard.blocked_frac", "fraction", false},
    {"shard.busy_max_s", "s", false},
    {"shard.busy_imbalance", "ratio", false},
    {"shard.threaded_speed", "s/s", false},
    {"setup.policy_load_s", "s", false},
    {"setup.make_app_s", "s", false},
    {"setup.attach_s", "s", false},
    {"trace.overhead_frac", "fraction", false},
    {"calib.admit_ns_1t", "ns", false},
    {"calib.timer_churn_ev_per_s", "1/s", false},
    {"calib.host_slowdown", "ratio", false},
};

int Usage() {
  std::fprintf(stderr,
               "usage: topfull_ledger --workload <boutique_overload|"
               "alibaba_sharded|boutique_split|gateway_contended> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file.json>]\n");
  return 2;
}

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

std::string CpuModel() {
  unsigned int regs[12] = {};
  for (unsigned int leaf = 0; leaf < 3; ++leaf) {
    if (__get_cpuid(0x80000002u + leaf, &regs[leaf * 4], &regs[leaf * 4 + 1],
                    &regs[leaf * 4 + 2], &regs[leaf * 4 + 3]) == 0) {
      return "unknown";
    }
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string model(brand);
  const auto first = model.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : model.substr(first);
}

bool SanitizerBuild() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#else
  return LEDGER_SANITIZE[0] != '\0';
#endif
}

/// JSON string escaping for the descriptor (quotes and backslashes only;
/// the inputs are compiler/CPU identification strings).
std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

}  // namespace

double PeakRssMb() {
  // VmHWM of this process image. getrusage's ru_maxrss would also count the
  // launcher's resident set from before exec (Linux folds it in).
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kb = -1;
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) break;
    }
    std::fclose(f);
    if (kb > 0) return static_cast<double>(kb) / 1024.0;
  }
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

namespace {

/// One pass of the reference kernel on the calling thread. The table is
/// allocated and written before the clock starts, so page faults stay out.
class ReferenceKernel {
 public:
  ReferenceKernel() : table_(std::size_t{1} << 20), heap_() {
    for (std::size_t i = 0; i < table_.size(); ++i) {
      table_[i] = static_cast<std::uint32_t>(i * 2654435761u);
    }
    heap_.reserve(kQueue + 1);
  }

  double Run() {
    std::uint64_t x = 88172645463325252ull;  // xorshift64
    const auto next = [&x] {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return x;
    };
    heap_.clear();
    for (std::size_t i = 0; i < kQueue; ++i) {
      heap_.push_back(next() & 0xffffffffull);
      std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
    }
    const std::size_t mask = table_.size() - 1;
    std::uint64_t acc = 0;
    const auto t0 = Clock::now();
    for (std::uint64_t k = 0; k < kOps; ++k) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
      const std::uint64_t t = heap_.back();
      heap_.pop_back();
      const std::size_t idx = static_cast<std::size_t>(t ^ acc) & mask;
      const std::uint32_t v = table_[idx];
      table_[(idx * 7 + 1) & mask] = v + 1;
      acc += v;
      heap_.push_back(t + 1 + (next() & 0xffff));
      std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
    }
    const double seconds = SecondsSince(t0);
    sink_ = acc;
    return seconds;
  }

 private:
  static constexpr std::size_t kQueue = 20'000;
  static constexpr std::uint64_t kOps = 300'000;
  std::vector<std::uint32_t> table_;
  std::vector<std::uint64_t> heap_;
  volatile std::uint64_t sink_ = 0;
};

}  // namespace

double ReferencePassSeconds() { return ReferenceKernel().Run(); }

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = q * static_cast<double>(samples.size());
  std::size_t idx = static_cast<std::size_t>(rank);
  if (static_cast<double>(idx) == rank && idx > 0) --idx;
  return samples[std::min(idx, samples.size() - 1)];
}

int Main(int argc, char** argv) {
  Options options;
  bool have_workload = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return Usage();
    } else if (key == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(options.seconds > 0.0)) {
        return Usage();
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return Usage();
      options.trace = value == "1";
      have_trace = true;
    } else if (key == "--trace-out") {
      options.trace_out = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || !have_workload || !have_trace) return Usage();
  const bool gateway = options.workload == "gateway_contended";
  if (!gateway && !IsSimWorkload(options.workload)) return Usage();

  if (SanitizerBuild()) {
    std::fprintf(stderr,
                 "topfull_ledger: refusing to report numbers from a "
                 "sanitizer build (TOPFULL_SANITIZE=%s)\n", LEDGER_SANITIZE);
    return 3;
  }
  // Telemetry exporters are driven by the environment; the ledger must
  // neither pay for them nor write their files.
  ::unsetenv("TOPFULL_TRACE_DIR");
  ::unsetenv("TOPFULL_TSDB");
  options.nproc = Nproc();

  const double calib_admit = CalibAdmitNs1t();
  const double calib_churn = CalibTimerChurnEventsPerSecond();
  Report report;
  try {
    report = gateway ? RunGatewayWorkload(options) : RunSimWorkload(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "topfull_ledger: %s\n", e.what());
    return 2;
  }
  if (report.values.count("peak_rss_mb") == 0) report.Set("peak_rss_mb", PeakRssMb());
  report.Set("calib.admit_ns_1t", calib_admit);
  report.Set("calib.timer_churn_ev_per_s", calib_churn);

  for (const std::string& note : report.notes) {
    std::printf("%s: %s\n", options.workload.c_str(), note.c_str());
  }
  std::printf(
      "{\"machine\": {\"nproc\": %d, \"cpu\": %s, \"compiler\": %s, "
      "\"build_type\": %s, \"sanitizer\": %s}, \"workload\": %s, \"seed\": "
      "%llu, \"calib.admit_ns_1t\": %.6g, \"calib.timer_churn_ev_per_s\": "
      "%.6g}\n",
      options.nproc, Quote(CpuModel()).c_str(), Quote("gcc " __VERSION__).c_str(),
      Quote(LEDGER_BUILD_TYPE).c_str(), Quote(LEDGER_SANITIZE).c_str(),
      Quote(options.workload).c_str(),
      static_cast<unsigned long long>(options.seed), calib_admit, calib_churn);

  std::string metrics;
  for (const MetricSpec& m : kMetrics) {
    if (m.end_to_end == options.trace) continue;
    const auto it = report.values.find(m.name);
    // Per-layer metrics a workload does not exercise read 0; every
    // end-to-end metric must be measured.
    if (it == report.values.end() && m.end_to_end) {
      report.Fail(std::string("end-to-end metric not measured: ") + m.name);
    }
    char buf[192];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", m.name,
                  it == report.values.end() ? 0.0 : it->second, m.unit);
    metrics += buf;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed), metrics.c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}

}  // namespace ledger

int main(int argc, char** argv) { return ledger::Main(argc, argv); }
