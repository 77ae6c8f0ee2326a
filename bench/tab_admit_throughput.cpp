// Concurrent admission-plane throughput bench (DESIGN.md §15).
//
// Measures the gateway datapath the sim's entry limiter now runs on —
// CachedGate::TryAdmit through an AdmissionPlane slot backed by the
// lock-free AtomicTokenBucket — at 1/4/8/16/32 threads:
//
//   admit_heavy    rate far above the offered load: every op takes the CAS
//                  admit path (the worst-case write contention on one line)
//   reject_path    drained zero-rate bucket: every op takes the zero-RMW
//                  fast reject (should scale near-linearly with cores)
//   mixed          refill ~0.5 token/µs against multi-thread offered load:
//                  admits and rejects interleave
//   reconfig_storm admit_heavy while a control thread republishes the slot's
//                  (rate, burst) as fast as it can — every Configure resets
//                  the shared bucket in place (a CAS-loop store on the cell
//                  the admitters CAS); none builds a snapshot or moves the
//                  version the gates poll
//
// plus a single-threaded `token_bucket_ref` row (the historical sim-internal
// TokenBucket, the 4.9 ns/admit reference) through the same harness.
//
// Reported per row: ns/op, ops/sec (total and per thread), p99 admit latency
// (sampled every 128th op with steady_clock), admit-path heap allocations
// per op (thread-local operator-new hook, charged to the admit threads
// only), CAS-retry-bound rejects, and publishes (the storm's Configure
// calls).
//
// A row's workers are spawned first and wait on a start latch; its clock
// starts when the main thread opens the latch, so at t >= 2 every worker
// admits while the others do. Threads beyond the machine's cores
// oversubscribe; per-thread throughput and the p99 then include scheduler
// preemption. CI gates each row against a committed baseline recorded on
// a 4-core machine, with generous tolerance
// (bench/baselines/BENCH_admit_throughput.json): >30 % ops/sec drop or a
// >2x p99 blow-up fails, and the admit path must stay allocation-free.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <latch>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "admit/admitter.hpp"
#include "admit/atomic_token_bucket.hpp"
#include "admit/plane.hpp"
#include "support/token_bucket.hpp"

using namespace topfull;

// --- thread-local counting allocator hook ------------------------------------

#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

static thread_local std::uint64_t t_allocs = 0;

void* operator new(std::size_t size) {
  ++t_allocs;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void* operator new[](std::size_t size) {
  ++t_allocs;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kSamplePeriod = 128;  ///< p99 sampling stride

struct Row {
  std::string name;
  int threads = 1;
  std::uint64_t ops = 0;
  std::uint64_t admitted = 0;
  double wall_s = 0.0;
  double p99_ns = 0.0;
  std::uint64_t admit_allocs = 0;  // worker-thread allocations only
  std::uint64_t contention_rejects = 0;
  std::uint64_t publishes = 0;

  double OpsPerSec() const { return static_cast<double>(ops) / wall_s; }
  double NsPerOp() const { return 1e9 * wall_s / static_cast<double>(ops); }
  double AllocsPerOp() const {
    return static_cast<double>(admit_allocs) / static_cast<double>(ops);
  }
};

/// One worker's slice: `ops` admits against `fn(now)` with a private virtual
/// microsecond clock (`step_us` per op — reading a shared clock would
/// serialize the very threads we are measuring). Samples every 128th op.
/// The worker reports `ready` once its buffers are set up and starts only
/// when the main thread opens `start`, so every thread of a row runs at once.
template <typename Fn>
void Worker(Fn fn, std::uint64_t ops, SimTime step_us, std::latch& ready,
            std::latch& start, std::uint64_t* admitted_out,
            std::uint64_t* allocs_out, std::vector<double>* samples_out) {
  std::vector<double> samples;
  samples.reserve(ops / kSamplePeriod + 1);
  const std::uint64_t allocs0 = t_allocs;
  std::uint64_t admitted = 0;
  SimTime now = 0;
  ready.count_down();
  start.wait();
  for (std::uint64_t i = 0; i < ops; ++i) {
    now += step_us;
    if ((i & (kSamplePeriod - 1)) == 0) {
      const auto t0 = Clock::now();
      admitted += fn(now) ? 1 : 0;
      const auto t1 = Clock::now();
      samples.push_back(
          std::chrono::duration<double, std::nano>(t1 - t0).count());
    } else {
      admitted += fn(now) ? 1 : 0;
    }
  }
  *allocs_out = t_allocs - allocs0;
  *admitted_out = admitted;
  *samples_out = std::move(samples);
}

double Percentile99(std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  const std::size_t idx =
      std::min(samples.size() - 1,
               static_cast<std::size_t>(0.99 * static_cast<double>(samples.size())));
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(idx),
                   samples.end());
  return samples[idx];
}

/// Runs `threads` workers over `fn`, with an optional control-thread loop
/// (`storm`, called until the workers finish; return = publishes done).
template <typename Fn, typename Storm>
Row RunCase(const std::string& name, int threads, std::uint64_t ops_per_thread,
            SimTime step_us, Fn fn, Storm storm, bool with_storm) {
  Row row;
  row.name = name;
  row.threads = threads;
  row.ops = ops_per_thread * static_cast<std::uint64_t>(threads);

  std::vector<std::uint64_t> admitted(static_cast<std::size_t>(threads), 0);
  std::vector<std::uint64_t> allocs(static_cast<std::size_t>(threads), 0);
  std::vector<std::vector<double>> samples(static_cast<std::size_t>(threads));
  std::atomic<int> remaining{threads};
  std::latch ready(threads);
  std::latch start(1);

  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t]() {
      Worker(fn, ops_per_thread, step_us, ready, start,
             &admitted[static_cast<std::size_t>(t)],
             &allocs[static_cast<std::size_t>(t)],
             &samples[static_cast<std::size_t>(t)]);
      remaining.fetch_sub(1, std::memory_order_relaxed);
    });
  }
  // Time from the moment every worker is released, not from the first spawn.
  ready.wait();
  const auto t0 = Clock::now();
  start.count_down();
  if (with_storm) {
    // The bench main thread plays the control thread until the last worker
    // reports in.
    while (remaining.load(std::memory_order_relaxed) > 0) {
      row.publishes += storm();
    }
  }
  for (auto& th : pool) th.join();
  row.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();

  std::vector<double> all;
  for (int t = 0; t < threads; ++t) {
    row.admitted += admitted[static_cast<std::size_t>(t)];
    row.admit_allocs += allocs[static_cast<std::size_t>(t)];
    all.insert(all.end(), samples[static_cast<std::size_t>(t)].begin(),
               samples[static_cast<std::size_t>(t)].end());
  }
  row.p99_ns = Percentile99(all);
  return row;
}

std::uint64_t NoStorm() { return 0; }

void Print(const Row& r) {
  std::printf(
      "%-16s t=%2d  %7.2f ns/op  %12.0f ops/s  %11.0f ops/s/thread  "
      "p99 %8.0f ns  allocs/op %.4f  cas_rejects %llu  publishes %llu\n",
      r.name.c_str(), r.threads, r.NsPerOp(), r.OpsPerSec(),
      r.OpsPerSec() / r.threads, r.p99_ns, r.AllocsPerOp(),
      static_cast<unsigned long long>(r.contention_rejects),
      static_cast<unsigned long long>(r.publishes));
}

void WriteJson(const std::vector<Row>& rows, const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    std::exit(2);
  }
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "  {\"case\": \"%s\", \"threads\": %d, \"ops\": %llu, "
                 "\"wall_s\": %.4f, \"ops_per_sec\": %.1f, "
                 "\"ns_per_op\": %.3f, \"p99_ns\": %.1f, "
                 "\"allocs_per_op\": %.6f, \"admit_fraction\": %.4f, "
                 "\"contention_rejects\": %llu, \"publishes\": %llu}%s\n",
                 r.name.c_str(), r.threads,
                 static_cast<unsigned long long>(r.ops), r.wall_s,
                 r.OpsPerSec(), r.NsPerOp(), r.p99_ns, r.AllocsPerOp(),
                 static_cast<double>(r.admitted) / static_cast<double>(r.ops),
                 static_cast<unsigned long long>(r.contention_rejects),
                 static_cast<unsigned long long>(r.publishes),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  const char* out = argc > 1 ? argv[1] : "BENCH_admit_throughput.json";
  const std::vector<int> kThreadCounts = {1, 4, 8, 16, 32};
  // ~24M ops/case split across the workers, so every row runs long enough
  // to stabilize but the full table stays CI-sized.
  const auto ops_for = [](int threads) {
    return static_cast<std::uint64_t>(24'000'000 / threads);
  };
  std::vector<Row> rows;

  // Floor row: a dependent `lock cmpxchg16b` loop with no bucket logic at
  // all. Every admit must spend its token through exactly one such locked op
  // (conservation needs the RMW), so no admitter can beat this row. On bare
  // metal it is ~6 ns; virtualized hosts can push the bare instruction past
  // 2x the plain TokenBucket row, which is why the CI gate reads this row
  // instead of hard-coding an absolute bound.
  {
    admit::Packed128 cell{0.0, 0};
    admit::Packed128 expected{0.0, 0};
    Row r = RunCase(
        "cas16b_floor", 1, ops_for(1), 1,
        [&cell, &expected](SimTime now) {
          const admit::Packed128 want{expected.tokens + 1.0, now};
          if (admit::CompareExchange(&cell, expected, want)) expected = want;
          return true;
        },
        NoStorm, false);
    Print(r);
    rows.push_back(r);
  }
  // Single-threaded reference: the historical sim-internal TokenBucket.
  {
    TokenBucket bucket(1e9, 1e6);
    Row r = RunCase(
        "token_bucket_ref", 1, ops_for(1), 1,
        [&bucket](SimTime now) { return bucket.TryAdmit(now); }, NoStorm,
        false);
    Print(r);
    rows.push_back(r);
  }
  // Single-threaded AtomicTokenBucket, no plane: the acceptance criterion
  // is that this stays within 2x of token_bucket_ref.
  {
    admit::AtomicTokenBucket bucket(1e9, 1e6);
    Row r = RunCase(
        "atomic_bucket_1t", 1, ops_for(1), 1,
        [&bucket](SimTime now) { return bucket.TryAdmit(now); }, NoStorm,
        false);
    r.contention_rejects = bucket.contention_rejects();
    Print(r);
    rows.push_back(r);
  }

  for (const int threads : kThreadCounts) {
    // admit_heavy: rate >> offered, every op CASes the shared cell.
    {
      admit::AdmissionPlane plane;
      const int slot = plane.Register(
          "entry", "api", std::make_shared<admit::TokenBucketAdmitter>(1e9, 1e6));
      admit::AtomicTokenBucket& bucket =
          static_cast<admit::TokenBucketAdmitter&>(
              *plane.Snapshot()->slots[static_cast<std::size_t>(slot)])
              .bucket();
      Row r = RunCase(
          "admit_heavy", threads, ops_for(threads), 1,
          [&plane, slot](SimTime now) {
            thread_local admit::CachedGate gate;
            thread_local const admit::AdmissionPlane* bound = nullptr;
            if (bound != &plane) {
              gate = admit::CachedGate(&plane);
              bound = &plane;
            }
            admit::AdmitRequest req;
            req.now = now;
            return gate.TryAdmit(slot, req);
          },
          NoStorm, false);
      r.contention_rejects = bucket.contention_rejects();
      Print(r);
      rows.push_back(r);
    }
    // reject_path: drained zero-rate bucket — the zero-RMW fast reject.
    {
      admit::AdmissionPlane plane;
      const int slot = plane.Register(
          "entry", "api", std::make_shared<admit::TokenBucketAdmitter>(0.0, 1.0));
      {
        admit::AdmitRequest drain;
        drain.now = 0;
        plane.TryAdmit(slot, drain);  // spend the single token
      }
      Row r = RunCase(
          "reject_path", threads, ops_for(threads), 0,
          [&plane, slot](SimTime now) {
            thread_local admit::CachedGate gate;
            thread_local const admit::AdmissionPlane* bound = nullptr;
            if (bound != &plane) {
              gate = admit::CachedGate(&plane);
              bound = &plane;
            }
            admit::AdmitRequest req;
            req.now = now;
            return gate.TryAdmit(slot, req);
          },
          NoStorm, false);
      Print(r);
      rows.push_back(r);
    }
    // mixed: ~0.5 token refilled per µs of per-thread virtual time, so the
    // admit fraction falls with the thread count and both paths interleave.
    {
      admit::AdmissionPlane plane;
      const int slot = plane.Register(
          "entry", "api",
          std::make_shared<admit::TokenBucketAdmitter>(5e5, 64.0));
      Row r = RunCase(
          "mixed", threads, ops_for(threads), 1,
          [&plane, slot](SimTime now) {
            thread_local admit::CachedGate gate;
            thread_local const admit::AdmissionPlane* bound = nullptr;
            if (bound != &plane) {
              gate = admit::CachedGate(&plane);
              bound = &plane;
            }
            admit::AdmitRequest req;
            req.now = now;
            return gate.TryAdmit(slot, req);
          },
          NoStorm, false);
      Print(r);
      rows.push_back(r);
    }
    // reconfig_storm: admit_heavy while the control thread republishes the
    // slot's limits as fast as it can (alternating values defeat the
    // coalescing, so every iteration is an applied rate change, made in
    // place on the bucket the workers admit through).
    {
      admit::AdmissionPlane plane;
      const int slot = plane.Register(
          "entry", "api", std::make_shared<admit::TokenBucketAdmitter>(1e9, 1e6));
      bool flip = false;
      auto storm = [&plane, slot, &flip]() -> std::uint64_t {
        flip = !flip;
        plane.Configure(slot, flip ? 1e9 : 9.9e8, 1e6);
        return 1;
      };
      Row r = RunCase(
          "reconfig_storm", threads, ops_for(threads), 1,
          [&plane, slot](SimTime now) {
            thread_local admit::CachedGate gate;
            thread_local const admit::AdmissionPlane* bound = nullptr;
            if (bound != &plane) {
              gate = admit::CachedGate(&plane);
              bound = &plane;
            }
            admit::AdmitRequest req;
            req.now = now;
            return gate.TryAdmit(slot, req);
          },
          storm, true);
      Print(r);
      rows.push_back(r);
    }
  }

  WriteJson(rows, out);
  std::printf("wrote %s\n", out);
  return 0;
}
