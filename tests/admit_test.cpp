// Tests for the concurrent admission plane (src/admit/, DESIGN.md §15).
//
// Four families:
//  * exact single-thread equivalence: AtomicTokenBucket is a drop-in twin of
//    common::TokenBucket — same decision stream AND the same bit pattern of
//    internal state over randomized admit/SetRate/Configure schedules;
//  * multi-thread safety properties: token conservation (admitted <=
//    rate·T + burst) under N hammering threads, with and without a
//    concurrent reconfiguration storm (runs under TSan in CI);
//  * AdmissionPlane semantics: slot registry, fail-open behaviour, rate
//    changes applied in place without a publish, CachedGate refresh on
//    topology changes, snapshot lifetime across Remove (use-after-free is
//    what the ASan job checks here);
//  * hot-path hygiene: the steady-state admit and a rate change allocate
//    nothing.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <thread>
#include <vector>

#include "admit/admitter.hpp"
#include "admit/atomic_token_bucket.hpp"
#include "admit/packed_atomic.hpp"
#include "admit/plane.hpp"
#include "common/rng.hpp"
#include "support/token_bucket.hpp"

// --- counting allocator hook (for the zero-allocation fast-path check) -------

#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

static std::atomic<std::uint64_t> g_allocs{0};

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void* operator new[](std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace topfull::admit {
namespace {

// --- Packed 16-byte atomic ---------------------------------------------------

TEST(PackedAtomicTest, StoreLoadRoundTrip) {
  Packed128 cell{};
  Store(&cell, Packed128{3.25, 17}, Packed128{});
  const Packed128 got = Load(&cell, Packed128{});
  EXPECT_EQ(got.tokens, 3.25);
  EXPECT_EQ(got.last, 17);
  // A wrong hint still returns the true value.
  const Packed128 got2 = Load(&cell, Packed128{-1.0, -1});
  EXPECT_EQ(got2.tokens, 3.25);
  EXPECT_EQ(got2.last, 17);
}

TEST(PackedAtomicTest, CompareExchangeContract) {
  Packed128 cell{};
  Store(&cell, Packed128{1.0, 1}, Packed128{});
  Packed128 expected{2.0, 2};  // wrong on purpose
  EXPECT_FALSE(CompareExchange(&cell, expected, Packed128{9.0, 9}));
  // Failure refreshed `expected` with the current value.
  EXPECT_EQ(expected.tokens, 1.0);
  EXPECT_EQ(expected.last, 1);
  EXPECT_TRUE(CompareExchange(&cell, expected, Packed128{9.0, 9}));
  const Packed128 got = Load(&cell, Packed128{});
  EXPECT_EQ(got.tokens, 9.0);
  EXPECT_EQ(got.last, 9);
}

// --- Single-thread equivalence vs common::TokenBucket ------------------------

/// Runs the same randomized schedule of admits, rate changes and resets
/// against both implementations and demands exact agreement of decisions
/// and observable state (PeekTokens must match bit for bit — both sides
/// execute the same double expressions in the same order).
void RunEquivalenceSchedule(std::uint64_t seed) {
  Rng rng(seed);
  const double rate0 = rng.Uniform(1.0, 2000.0);
  const double burst0 = rng.Uniform(0.5, 60.0);  // < 1 exercises the clamp
  TokenBucket reference(rate0, burst0);
  AtomicTokenBucket atomic(rate0, burst0);
  EXPECT_EQ(reference.rate(), atomic.rate());
  EXPECT_EQ(reference.burst(), atomic.burst());

  SimTime now = 0;
  for (int i = 0; i < 20000; ++i) {
    const double p = rng.Uniform(0.0, 1.0);
    if (p < 0.015) {
      // Rate change preserving the balance (TokenBucket::SetRate semantics).
      const double rate = rng.Uniform(0.0, 3000.0);
      reference.SetRate(rate);
      atomic.SetRate(rate);
    } else if (p < 0.02) {
      // Full reset — the controller's historical fresh-bucket assignment.
      const double rate = rng.Uniform(0.0, 3000.0);
      const double burst = rng.Uniform(0.5, 60.0);
      reference = TokenBucket(rate, burst);
      atomic.Configure(rate, burst);
    } else {
      // 0-µs steps cover same-instant bursts; occasional long gaps cover
      // the refill clamp at the full burst.
      const SimTime dt = rng.Bernoulli(0.05) ? rng.UniformInt(0, 5'000'000)
                                             : rng.UniformInt(0, 2000);
      now += dt;
      ASSERT_EQ(reference.TryAdmit(now), atomic.TryAdmit(now))
          << "decision diverged at step " << i << " t=" << now;
    }
    ASSERT_EQ(reference.PeekTokens(now), atomic.PeekTokens(now))
        << "state diverged at step " << i << " t=" << now;
    ASSERT_EQ(reference.rate(), atomic.rate());
    ASSERT_EQ(reference.burst(), atomic.burst());
  }
  // Sequential use never exhausts the CAS retry budget.
  EXPECT_EQ(atomic.contention_rejects(), 0u);
}

class AtomicBucketEquivalenceSweep
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AtomicBucketEquivalenceSweep, ExactTwinOfTokenBucket) {
  RunEquivalenceSchedule(GetParam() * 6361);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AtomicBucketEquivalenceSweep,
                         ::testing::Range<std::uint64_t>(1, 9));

TEST(AtomicBucketTest, ConfigureMatchesFreshBucketClamps) {
  AtomicTokenBucket bucket(-5.0, 0.25);  // clamps: rate >= 0, burst >= 1
  EXPECT_EQ(bucket.rate(), 0.0);
  EXPECT_EQ(bucket.burst(), 1.0);
  EXPECT_EQ(bucket.PeekTokens(0), 1.0);  // starts full
  EXPECT_TRUE(bucket.TryAdmit(0));       // spend the single token
  EXPECT_FALSE(bucket.TryAdmit(0));      // zero rate: never refills
  EXPECT_FALSE(bucket.TryAdmit(Seconds(3600)));
  bucket.Configure(10.0, 5.0);  // reset refills to the new burst at t=0
  EXPECT_EQ(bucket.PeekTokens(0), 5.0);
  EXPECT_TRUE(bucket.TryAdmit(0));
}

TEST(AtomicBucketTest, PeekTokensDoesNotMutate) {
  AtomicTokenBucket bucket(100.0, 10.0);
  ASSERT_TRUE(bucket.TryAdmit(1000));
  const double before = bucket.PeekTokens(500'000);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(bucket.PeekTokens(500'000), before);
  }
  // The preview looked half a second ahead, but the real state still refills
  // from the last admit instant, not from the previewed time.
  TokenBucket reference(100.0, 10.0);
  ASSERT_TRUE(reference.TryAdmit(1000));
  EXPECT_EQ(reference.TryAdmit(500'001), bucket.TryAdmit(500'001));
  EXPECT_EQ(reference.PeekTokens(500'001), bucket.PeekTokens(500'001));
}

// --- Multi-thread safety properties ------------------------------------------

/// N threads hammer one bucket; time is a shared monotonic microsecond
/// counter each op advances by `step_us`. Whatever the interleaving, total
/// admits can never exceed burst + rate * elapsed (token conservation: every
/// admit CASes the true cell, so overdraw is impossible).
void ConservationUnderContention(int threads, double rate, double burst,
                                 SimTime step_us, int ops_per_thread) {
  AtomicTokenBucket bucket(rate, burst);
  std::atomic<SimTime> clock{0};
  std::atomic<std::uint64_t> admitted{0};
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&]() {
      std::uint64_t local = 0;
      for (int i = 0; i < ops_per_thread; ++i) {
        const SimTime now =
            clock.fetch_add(step_us, std::memory_order_relaxed) + step_us;
        if (bucket.TryAdmit(now)) ++local;
      }
      admitted.fetch_add(local, std::memory_order_relaxed);
    });
  }
  for (auto& w : workers) w.join();
  const double elapsed_s = ToSeconds(clock.load());
  const double bound = burst + rate * elapsed_s;
  EXPECT_LE(static_cast<double>(admitted.load()), bound + 1e-6)
      << threads << " threads overdrew the bucket";
  // Sanity: with a non-trivial rate the bucket admits *something*.
  EXPECT_GT(admitted.load(), 0u);
  // And the final balance is still inside [0, burst].
  const double tokens = bucket.PeekTokens(clock.load());
  EXPECT_GE(tokens, 0.0);
  EXPECT_LE(tokens, burst);
}

TEST(AtomicBucketConcurrencyTest, ConservationUnderContention) {
  // Offered load far above the rate: most ops reject via the fast path.
  ConservationUnderContention(/*threads=*/8, /*rate=*/50'000.0, /*burst=*/64.0,
                              /*step_us=*/2, /*ops_per_thread=*/40'000);
}

TEST(AtomicBucketConcurrencyTest, ConservationWhenMostlyAdmitting) {
  // Rate above the offered load: nearly every op admits through the CAS.
  ConservationUnderContention(/*threads=*/4, /*rate=*/1e7, /*burst=*/16.0,
                              /*step_us=*/5, /*ops_per_thread=*/40'000);
}

TEST(AtomicBucketConcurrencyTest, ReconfigureWhileAdmittingStress) {
  AtomicTokenBucket bucket(1000.0, 32.0);
  std::atomic<SimTime> clock{0};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> admitted{0};

  constexpr int kWorkers = 4;
  constexpr double kMaxRate = 5000.0;
  constexpr double kMaxBurst = 64.0;
  std::vector<std::thread> workers;
  for (int t = 0; t < kWorkers; ++t) {
    workers.emplace_back([&]() {
      std::uint64_t local = 0;
      for (int i = 0; i < 60'000; ++i) {
        const SimTime now = clock.fetch_add(2, std::memory_order_relaxed) + 2;
        if (bucket.TryAdmit(now)) ++local;
      }
      admitted.fetch_add(local, std::memory_order_relaxed);
    });
  }
  // Control thread: a reconfiguration storm of rate updates and full resets.
  std::uint64_t resets = 0;
  {
    Rng rng(99);
    while (!stop.load(std::memory_order_relaxed)) {
      if (rng.Bernoulli(0.25)) {
        bucket.Configure(rng.Uniform(0.0, kMaxRate), rng.Uniform(1.0, kMaxBurst));
        ++resets;
      } else {
        bucket.SetRate(rng.Uniform(0.0, kMaxRate));
      }
      // Stop once the clock says the workers executed all their ops.
      if (clock.load(std::memory_order_relaxed) >= 2 * 60'000 * kWorkers) {
        stop.store(true, std::memory_order_relaxed);
      }
    }
  }
  for (auto& w : workers) w.join();
  // Every Configure can refill up to the max burst, so the conservation
  // bound gains one burst per reset — still linear, never unbounded.
  const double elapsed_s = ToSeconds(clock.load());
  const double bound =
      kMaxBurst * static_cast<double>(resets + 1) + kMaxRate * elapsed_s;
  EXPECT_LE(static_cast<double>(admitted.load()), bound + 1e-6);
  const double tokens = bucket.PeekTokens(clock.load());
  EXPECT_GE(tokens, 0.0);
  EXPECT_LE(tokens, bucket.burst());
}

// --- Admitter disciplines ----------------------------------------------------

TEST(AdmitterTest, PriorityThresholdAdmitsWithinThreshold) {
  PriorityThresholdAdmitter admitter(5);
  AdmitRequest req;
  req.priority = 5;
  EXPECT_TRUE(admitter.TryAdmit(req));
  req.priority = 6;
  EXPECT_FALSE(admitter.TryAdmit(req));
  admitter.Configure(/*rate=*/7.0, 0.0);  // threshold via the generic knob
  EXPECT_TRUE(admitter.TryAdmit(req));
  EXPECT_STREQ(admitter.kind(), "priority_threshold");
}

TEST(AdmitterTest, CreditPoolNeverOvercommits) {
  CreditAdmitter admitter(/*credits=*/3.0, /*cap=*/8.0);
  AdmitRequest req;
  int admitted = 0;
  for (int i = 0; i < 10; ++i) admitted += admitter.TryAdmit(req) ? 1 : 0;
  EXPECT_EQ(admitted, 3);
  admitter.Grant(100.0);  // clamped to the cap
  EXPECT_EQ(admitter.credits(), 8.0);
  admitted = 0;
  for (int i = 0; i < 10; ++i) admitted += admitter.TryAdmit(req) ? 1 : 0;
  EXPECT_EQ(admitted, 8);
  EXPECT_STREQ(admitter.kind(), "credit");
}

TEST(AdmitterTest, CreditPoolConservationUnderThreads) {
  CreditAdmitter admitter(/*credits=*/0.0, /*cap=*/1e9);
  std::atomic<std::uint64_t> admitted{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&]() {
      AdmitRequest req;
      std::uint64_t local = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        if (admitter.TryAdmit(req)) ++local;
      }
      admitted.fetch_add(local, std::memory_order_relaxed);
    });
  }
  constexpr int kGrants = 2000;
  for (int i = 0; i < kGrants; ++i) admitter.Grant(5.0);
  stop.store(true, std::memory_order_relaxed);
  for (auto& w : workers) w.join();
  // Total admits can never exceed total credits granted.
  EXPECT_LE(admitted.load(), static_cast<std::uint64_t>(kGrants) * 5u);
}

// --- AdmissionPlane ----------------------------------------------------------

TEST(AdmissionPlaneTest, RegisterConfigureFindAdmit) {
  AdmissionPlane plane;
  const int cart = plane.Register(
      "cart", "AddItem", std::make_shared<TokenBucketAdmitter>(100.0, 10.0));
  const int checkout = plane.Register(
      "checkout", "Place", std::make_shared<TokenBucketAdmitter>(50.0, 5.0));
  EXPECT_EQ(plane.FindSlot("cart", "AddItem"), cart);
  EXPECT_EQ(plane.FindSlot("checkout", "Place"), checkout);
  EXPECT_EQ(plane.FindSlot("cart", "Missing"), -1);

  AdmitRequest req;
  req.now = 0;
  EXPECT_TRUE(plane.TryAdmit(cart, req));   // bucket starts full
  EXPECT_TRUE(plane.TryAdmit(9999, req));   // unknown slot fails open
  EXPECT_TRUE(plane.TryAdmit(-1, req));

  // Configure applies + publishes; an identical republish is coalesced.
  EXPECT_EQ(plane.Configure(cart, 200.0, 20.0), ConfigureResult::kApplied);
  EXPECT_EQ(plane.Configure(cart, 200.0, 20.0), ConfigureResult::kCoalesced);
  EXPECT_EQ(plane.Configure(cart, 200.0, 21.0), ConfigureResult::kApplied);
  EXPECT_EQ(plane.Configure(12345, 1.0, 1.0), ConfigureResult::kInvalidSlot);
  const PlaneStats stats = plane.Stats();
  EXPECT_EQ(stats.reconfigs_applied, 2u);
  EXPECT_EQ(stats.reconfigs_coalesced, 1u);
}

TEST(AdmissionPlaneTest, CoalescedRepublishStillResetsTheBucket) {
  AdmissionPlane plane;
  auto admitter = std::make_shared<TokenBucketAdmitter>(1.0, 1.0);
  const int slot = plane.Register("svc", "m", admitter);
  ASSERT_EQ(plane.Configure(slot, 0.0, 4.0), ConfigureResult::kApplied);
  AdmitRequest req;
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(plane.TryAdmit(slot, req));
  EXPECT_FALSE(plane.TryAdmit(slot, req));  // drained, zero rate
  const std::uint64_t published = plane.Stats().snapshots_published;
  // Same-value republish: the bucket refills (historical per-SetRate reset
  // semantics) but no new snapshot is built.
  ASSERT_EQ(plane.Configure(slot, 0.0, 4.0), ConfigureResult::kCoalesced);
  EXPECT_EQ(plane.Stats().snapshots_published, published);
  EXPECT_TRUE(plane.TryAdmit(slot, req));
}

TEST(AdmissionPlaneTest, RemovedSlotFailsOpenAndVersionAdvances) {
  AdmissionPlane plane;
  const int slot = plane.Register(
      "svc", "m", std::make_shared<TokenBucketAdmitter>(0.0, 1.0));
  AdmitRequest req;
  EXPECT_TRUE(plane.TryAdmit(slot, req));   // the single token
  EXPECT_FALSE(plane.TryAdmit(slot, req));  // drained: rejects
  const std::uint64_t v = plane.version();
  plane.Remove(slot);
  EXPECT_GT(plane.version(), v);
  EXPECT_TRUE(plane.TryAdmit(slot, req));  // removed: fails open
  EXPECT_EQ(plane.Configure(slot, 1.0, 1.0), ConfigureResult::kInvalidSlot);
  plane.Remove(slot);  // idempotent
}

TEST(AdmissionPlaneTest, CachedGateTracksRepublishes) {
  AdmissionPlane plane;
  const int slot = plane.Register(
      "svc", "m", std::make_shared<TokenBucketAdmitter>(0.0, 2.0));
  CachedGate gate(&plane);
  AdmitRequest req;
  EXPECT_TRUE(gate.TryAdmit(slot, req));
  EXPECT_TRUE(gate.TryAdmit(slot, req));
  EXPECT_FALSE(gate.TryAdmit(slot, req));  // drained
  // First Configure after Register is always an applied change (the plane
  // has no shadow values yet); the identical republish coalesces.
  ASSERT_EQ(plane.Configure(slot, 0.0, 2.0), ConfigureResult::kApplied);
  EXPECT_TRUE(gate.TryAdmit(slot, req));  // reset applied in place
  EXPECT_TRUE(gate.TryAdmit(slot, req));
  EXPECT_FALSE(gate.TryAdmit(slot, req));  // drained again
  ASSERT_EQ(plane.Configure(slot, 0.0, 2.0), ConfigureResult::kCoalesced);
  EXPECT_TRUE(gate.TryAdmit(slot, req));  // in-place reset again
  plane.Remove(slot);
  EXPECT_TRUE(gate.TryAdmit(slot, req));  // gate refreshed: fails open
  // A default-constructed gate (no plane) always fails open.
  CachedGate detached;
  EXPECT_TRUE(detached.TryAdmit(0, req));
}

// A rate change is applied in place on the admitter the live snapshot
// already points at: no snapshot, no version bump, whether the limit
// changed or repeated. Only Register/Remove re-route readers.
TEST(AdmissionPlaneTest, ConfigureNeverPublishes) {
  AdmissionPlane plane;
  const int slot = plane.Register(
      "svc", "m", std::make_shared<TokenBucketAdmitter>(100.0, 10.0));
  const std::uint64_t version = plane.version();
  const std::uint64_t published = plane.Stats().snapshots_published;
  const auto snapshot = plane.Snapshot();
  ASSERT_EQ(plane.Configure(slot, 50.0, 5.0), ConfigureResult::kApplied);
  ASSERT_EQ(plane.Configure(slot, 50.0, 5.0), ConfigureResult::kCoalesced);
  ASSERT_EQ(plane.Configure(slot, 75.0, 5.0), ConfigureResult::kApplied);
  EXPECT_EQ(plane.version(), version);
  EXPECT_EQ(plane.Stats().snapshots_published, published);
  EXPECT_EQ(plane.Snapshot(), snapshot);
  EXPECT_EQ(snapshot->slots[static_cast<std::size_t>(slot)]->rate(), 75.0);

  // Topology changes still publish and bump the version.
  const int other = plane.Register(
      "svc", "other", std::make_shared<TokenBucketAdmitter>(1.0, 1.0));
  EXPECT_GT(plane.version(), version);
  EXPECT_EQ(plane.Stats().snapshots_published, published + 1);
  const std::uint64_t registered = plane.version();
  plane.Remove(other);
  EXPECT_GT(plane.version(), registered);
  EXPECT_EQ(plane.Stats().snapshots_published, published + 2);
}

TEST(AdmissionPlaneTest, GateOpenedBeforeConfigureSeesTheNewLimit) {
  AdmissionPlane plane;
  const int slot = plane.Register(
      "svc", "m", std::make_shared<TokenBucketAdmitter>(1e6, 1e5));
  CachedGate gate(&plane);
  AdmitRequest req;
  ASSERT_TRUE(gate.TryAdmit(slot, req));  // the gate caches the snapshot
  const AdmissionPlane::State* cached = gate.state().get();
  // Zero rate, three tokens: the very next calls see exactly three admits.
  ASSERT_EQ(plane.Configure(slot, 0.0, 3.0), ConfigureResult::kApplied);
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(gate.TryAdmit(slot, req)) << i;
  EXPECT_FALSE(gate.TryAdmit(slot, req));
  EXPECT_EQ(gate.state().get(), cached);  // no re-read was needed
}

TEST(AdmissionPlaneTest, SnapshotPinsRemovedAdmitters) {
  AdmissionPlane plane;
  auto admitter = std::make_shared<TokenBucketAdmitter>(1000.0, 8.0);
  std::weak_ptr<TokenBucketAdmitter> weak = admitter;
  const int slot = plane.Register("svc", "m", std::move(admitter));
  auto snapshot = plane.Snapshot();
  plane.Remove(slot);
  // The registry dropped it, but the pinned snapshot keeps it alive...
  ASSERT_FALSE(weak.expired());
  AdmitRequest req;
  req.now = Seconds(1);
  EXPECT_TRUE(snapshot->slots[static_cast<std::size_t>(slot)]->TryAdmit(req));
  // ...even after the caller's pin is gone, the RCU ring retains the last
  // few published States (that retention is what lets Publish never wait
  // for readers), so the admitter is freed only once later publishes
  // rotate the old State out of the ring.
  snapshot.reset();
  for (int i = 0; i < 8; ++i) {
    plane.Register("svc", std::string("fresh").append(std::to_string(i)),
                   std::make_shared<TokenBucketAdmitter>(1.0, 1.0));
  }
  EXPECT_TRUE(weak.expired());
}

/// A token bucket that counts what went through it, so a test can check
/// conservation per bucket behind the plane: admits, Configure calls and
/// the largest (rate, burst) it ever had. Configure runs on the plane's
/// serialized control path only.
class CountingBucketAdmitter final : public Admitter {
 public:
  CountingBucketAdmitter(double rate, double burst)
      : bucket_(rate, burst), max_rate_(rate), max_burst_(burst) {}

  bool TryAdmit(const AdmitRequest& req) override {
    if (!bucket_.TryAdmit(req)) return false;
    admitted_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  void Configure(double rate, double burst) override {
    bucket_.Configure(rate, burst);
    ++configures_;
    max_rate_ = std::max(max_rate_, rate);
    max_burst_ = std::max(max_burst_, burst);
  }
  double rate() const override { return bucket_.rate(); }
  const char* kind() const override { return "counting_token_bucket"; }

  /// Every reset can refill up to a whole burst, and a refill never runs
  /// faster than the largest rate the bucket had, over `elapsed_s`.
  double Bound(double elapsed_s) const {
    return max_rate_ * elapsed_s +
           max_burst_ * static_cast<double>(configures_ + 1);
  }
  std::uint64_t admitted() const {
    return admitted_.load(std::memory_order_relaxed);
  }

 private:
  TokenBucketAdmitter bucket_;
  std::atomic<std::uint64_t> admitted_{0};
  std::uint64_t configures_ = 0;
  double max_rate_;
  double max_burst_;
};

TEST(AdmissionPlaneTest, ReconfigureWhileAdmittingAcrossThreads) {
  AdmissionPlane plane;
  constexpr int kSlots = 4;
  // Every bucket the control thread ever registers, for the per-bucket
  // conservation check once the workers are done.
  std::vector<std::shared_ptr<CountingBucketAdmitter>> buckets;
  // Slot-id handoff between the control thread (which re-registers) and the
  // admit threads is itself concurrent, like a real gateway's routing table.
  std::array<std::atomic<int>, kSlots> slots;
  for (int i = 0; i < kSlots; ++i) {
    buckets.push_back(std::make_shared<CountingBucketAdmitter>(1000.0, 16.0));
    slots[static_cast<std::size_t>(i)].store(
        plane.Register("svc", std::string("m").append(std::to_string(i)),
                       buckets.back()),
        std::memory_order_relaxed);
  }
  std::atomic<bool> stop{false};
  std::atomic<SimTime> clock{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t]() {
      CachedGate gate(&plane);
      AdmitRequest req;
      std::uint64_t ops = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        req.now = clock.fetch_add(1, std::memory_order_relaxed);
        gate.TryAdmit(slots[static_cast<std::size_t>((t + ops) % kSlots)].load(
                          std::memory_order_relaxed),
                      req);
        ++ops;
      }
    });
  }
  // Control thread: republish, remove and re-register while admits fly.
  // Each round waits for 64 more admits, so every round lands while the
  // workers run: a rate change is O(1), and an unpaced loop could finish
  // before the first worker starts.
  Rng rng(4242);
  std::uint64_t topology_changes = 0;
  for (int round = 0; round < 400; ++round) {
    while (clock.load(std::memory_order_relaxed) < SimTime{64} * (round + 1)) {
      std::this_thread::yield();
    }
    const int i = static_cast<int>(rng.UniformInt(0, kSlots - 1));
    if (rng.Bernoulli(0.1)) {
      plane.Remove(slots[static_cast<std::size_t>(i)].load(
          std::memory_order_relaxed));
      buckets.push_back(std::make_shared<CountingBucketAdmitter>(
          rng.Uniform(10.0, 5000.0), 16.0));
      slots[static_cast<std::size_t>(i)].store(
          plane.Register("svc", std::string("m").append(std::to_string(i)),
                         buckets.back()),
          std::memory_order_relaxed);
      topology_changes += 2;
    } else {
      plane.Configure(slots[static_cast<std::size_t>(i)].load(
                          std::memory_order_relaxed),
                      rng.Uniform(10.0, 5000.0), rng.Uniform(1.0, 32.0));
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& w : workers) w.join();
  const double elapsed_s = ToSeconds(clock.load());
  std::uint64_t admitted = 0;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    admitted += buckets[b]->admitted();
    EXPECT_LE(static_cast<double>(buckets[b]->admitted()),
              buckets[b]->Bound(elapsed_s) + 1e-6)
        << "bucket " << b << " overdrew";
  }
  EXPECT_GT(admitted, 0u);
  const PlaneStats stats = plane.Stats();
  EXPECT_GT(stats.reconfigs_applied, 0u);
  // The constructor's empty snapshot, the initial registrations and each
  // Remove/Register pair; no Configure published anything.
  EXPECT_EQ(stats.snapshots_published, 1u + kSlots + topology_changes);
}

// --- Hot-path hygiene --------------------------------------------------------

TEST(AdmitHotPathTest, SteadyStateAdmitDoesNotAllocate) {
  AdmissionPlane plane;
  const int slot = plane.Register(
      "svc", "m", std::make_shared<TokenBucketAdmitter>(1e6, 1e5));
  CachedGate gate(&plane);
  AdmitRequest req;
  req.now = 0;
  (void)gate.TryAdmit(slot, req);  // warm the gate's snapshot cache
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  std::uint64_t admitted = 0;
  for (int i = 0; i < 200'000; ++i) {
    req.now += 10;
    admitted += gate.TryAdmit(slot, req) ? 1 : 0;
  }
  const std::uint64_t allocs =
      g_allocs.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(allocs, 0u) << "the admit fast path allocated";
  EXPECT_GT(admitted, 0u);
}

TEST(AdmitHotPathTest, ConfigureDoesNotAllocate) {
  AdmissionPlane plane;
  const int slot = plane.Register(
      "svc", "m", std::make_shared<TokenBucketAdmitter>(100.0, 10.0));
  ASSERT_EQ(plane.Configure(slot, 100.0, 10.0), ConfigureResult::kApplied);
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 10'000; ++i) {
    // Odd calls change the rate, even calls repeat it.
    const double rate = 100.0 + static_cast<double>((i + 1) / 2);
    (void)plane.Configure(slot, rate, 10.0);
  }
  EXPECT_EQ(g_allocs.load(std::memory_order_relaxed) - before, 0u)
      << "a rate change allocated";
  const PlaneStats stats = plane.Stats();
  EXPECT_EQ(stats.reconfigs_applied, 1u + 5'000u);
  EXPECT_EQ(stats.reconfigs_coalesced, 5'000u);
}

TEST(AdmitHotPathTest, RawBucketAdmitDoesNotAllocate) {
  AtomicTokenBucket bucket(1e6, 1e5);
  SimTime now = 0;
  (void)bucket.TryAdmit(now);
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 200'000; ++i) {
    now += 10;
    (void)bucket.TryAdmit(now);
  }
  EXPECT_EQ(g_allocs.load(std::memory_order_relaxed) - before, 0u);
}

}  // namespace
}  // namespace topfull::admit
