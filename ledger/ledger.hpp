// Shared types of the perf ledger: options, the per-invocation report and
// the small timing/statistics helpers every workload uses.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ledger {

using Clock = std::chrono::steady_clock;

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Chrome trace-event JSON written by traced sim runs (empty = none).
  std::string trace_out;
  /// Worker threads the machine offers (sched affinity); no workload runs
  /// more threads than this.
  int nproc = 1;
};

/// What one workload invocation measured. Metric names and units are fixed
/// by the table in main.cpp; a workload fills the ones that apply to it.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> values;
  /// Human-readable lines printed before the final JSON line.
  std::vector<std::string> notes;

  void Set(const std::string& name, double value) { values[name] = value; }
  void Note(const std::string& line) { notes.push_back(line); }
  void Fail(const std::string& why) {
    correct = false;
    ++failed;
    notes.push_back("FAIL: " + why);
  }
};

/// Interpolation-free order statistic: the sample at rank ceil(q*n) - 1.
double Percentile(std::vector<double> samples, double q);
inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

/// Latency histogram at 1 ns resolution (fixed memory, so the sample count
/// never shows up in peak RSS). The last bucket collects everything slower.
class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = std::size_t{1} << 16;

  LatencyHistogram() : counts_(kBuckets, 0) {}
  void Add(std::int64_t ns) {
    ++counts_[static_cast<std::size_t>(
        std::clamp<std::int64_t>(ns, 0, static_cast<std::int64_t>(kBuckets) - 1))];
    ++total_;
  }
  void Merge(const LatencyHistogram& other) {
    for (std::size_t b = 0; b < kBuckets; ++b) counts_[b] += other.counts_[b];
    total_ += other.total_;
  }
  std::uint64_t total() const { return total_; }
  /// The q-quantile, with the samples of a bucket spread evenly over its
  /// nanosecond (histogram_quantile's interpolation): clock readings are
  /// whole nanoseconds, and this keeps shifts smaller than one visible.
  double Quantile(double q) const {
    if (total_ == 0) return 0.0;
    const double target = q * static_cast<double>(total_);
    double seen = 0.0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      const auto n = static_cast<double>(counts_[b]);
      if (n > 0.0 && seen + n >= target) {
        return static_cast<double>(b) + (target - seen) / n;
      }
      seen += n;
    }
    return static_cast<double>(kBuckets - 1);
  }

 private:
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

/// Peak resident set size of the process so far, in MiB.
double PeakRssMb();

/// Host-speed reference. The end-to-end timings of a shared virtual
/// machine follow its neighbours: in episodes of seconds to minutes every
/// run of the same code gets 30-60 % slower. The ledger therefore runs a
/// fixed kernel that uses no repository code (a binary-heap event queue
/// with reads and writes at random over a 4 MiB table, the access pattern
/// of a DES) right before and after every timed single-threaded run, and
/// reports those timings as they would be on a host where one pass takes
/// kReferenceNominalS: a time is multiplied by kReferenceNominalS / pass
/// time, a rate divided. The constant is a typical pass on a shared
/// 4-vCPU Intel Xeon VM (passes there took 24-56 ms); it only fixes the
/// scale, and a change to the program cannot move it.
constexpr double kReferenceNominalS = 0.035;

/// Seconds of one reference pass on the calling thread.
double ReferencePassSeconds();

/// How much slower the host runs now than the nominal host: the reference
/// pass time over kReferenceNominalS. Divide a time by it, multiply a rate.
inline double HostSlowdown(double pass_s) { return pass_s / kReferenceNominalS; }

/// Same-run calibration rows (machine drift vs code change).
double CalibAdmitNs1t();
double CalibTimerChurnEventsPerSecond();

/// W1-W3: the simulated workloads (boutique_overload, alibaba_sharded,
/// boutique_split). Returns false when `name` is not one of them.
bool IsSimWorkload(const std::string& name);
Report RunSimWorkload(const Options& options);

/// W4: gateway_contended.
Report RunGatewayWorkload(const Options& options);

}  // namespace ledger
