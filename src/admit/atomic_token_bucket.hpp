// Lock-free token bucket: the concurrent-ready twin of common/TokenBucket.
//
// The whole mutable hot state — {fractional tokens, last-refill time} — lives
// in one 16-byte cell updated with a bounded double-width-CAS loop, so any
// number of request threads can admit concurrently while a control thread
// republishes rates. Used sequentially (one thread, monotonic `now`) the
// decision stream AND the internal state evolution are bit-identical to
// TokenBucket: the same double operations execute in the same order, which is
// what lets the sim's entry limiter run on this class without perturbing a
// single golden digest (DESIGN.md §15).
//
// Fast paths:
//  * Reject without any RMW: each successful CAS mirrors the written value
//    into relaxed per-field atomics on a separate cache line. When the mirror
//    says "no token and no refill due", we reject on the spot. A stale mirror
//    can only make this *conservative* (at a fixed last-refill time the
//    balance only ever decreases, and a newer last-refill time would fail the
//    "no refill due" check), so the fast path may spuriously reject under
//    heavy contention but can never spuriously admit.
//  * Admits always CAS the true cell, so the conservation bound
//    (admitted <= rate·T + burst) holds regardless of mirror staleness.
//
// The mirror exists for speed, not just the fast reject: re-loading the CAS
// target line right after a lock-prefixed op stalls (~2x admit cost measured
// on this repo's reference machine); the mirror keeps the CAS "expected"
// hint warm on its own line.
//
// Cache-line layout, by write pattern (one 64-byte line each):
//  * the Packed128 CAS cell — written by every admit; the only line whose
//    plain loads TryAdmit avoids (it reaches it only via the locked op);
//  * the config {rate, burst, sat_elapsed, contention_rejects} — written
//    only by the control path (and by a CAS-bound reject), so every admit
//    reads it from a shared copy in its own core's cache;
//  * the CAS-hint mirror — rewritten after every successful CAS and loaded
//    at the start of every admit.
// Were the config on the CAS cell's line, each admit on another core would
// re-fetch it along with the contended cell.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "admit/packed_atomic.hpp"
#include "common/sim_time.hpp"

namespace topfull::admit {

class AtomicTokenBucket {
 public:
  /// Same contract as TokenBucket: `rate` in requests/second (clamped >= 0),
  /// `burst` is the bucket depth in tokens (clamped >= 1); starts full with
  /// last-refill at t=0.
  AtomicTokenBucket(double rate, double burst) {
    static_assert(offsetof(AtomicTokenBucket, state_) == 0 &&
                      offsetof(AtomicTokenBucket, rate_) == kLine &&
                      offsetof(AtomicTokenBucket, mirror_tokens_) == 2 * kLine,
                  "the CAS cell, the config and the mirror each start a line");
    Configure(rate, burst);
  }

  /// Movable so vectors of per-pod controls can grow. Moving is NOT
  /// thread-safe — it is for single-threaded container setup only.
  AtomicTokenBucket(AtomicTokenBucket&& other) noexcept { MoveFrom(other); }
  AtomicTokenBucket& operator=(AtomicTokenBucket&& other) noexcept {
    if (this != &other) MoveFrom(other);
    return *this;
  }
  AtomicTokenBucket(const AtomicTokenBucket&) = delete;
  AtomicTokenBucket& operator=(const AtomicTokenBucket&) = delete;

  /// Attempts to admit one request at time `now`; returns true on success.
  /// Lock-free; never allocates. Under contention the CAS loop is bounded:
  /// after kMaxCasRetries failed attempts the request is rejected (counted
  /// in contention_rejects) rather than spinning unboundedly.
  bool TryAdmit(SimTime now) {
    const double rate = rate_.load(std::memory_order_relaxed);
    const double burst = burst_.load(std::memory_order_relaxed);
    Packed128 cur{mirror_tokens_.load(std::memory_order_relaxed),
                  mirror_last_.load(std::memory_order_relaxed)};
    const std::int64_t sat_elapsed =
        sat_elapsed_.load(std::memory_order_relaxed);
    for (int attempt = 0; attempt < kMaxCasRetries; ++attempt) {
      Packed128 want = cur;
      if (now > want.last) {
        if (want.tokens >= burst - 1.0 && now - want.last >= sat_elapsed) {
          // Saturation shortcut — this IS the steady state of an uncongested
          // API (each admit leaves burst-1; the next refill tops it back up),
          // and it keeps the FP divide off the serial mirror->CAS chain that
          // the lock prefix makes latency-bound. Provably bit-identical to
          // the general expression below: sat_elapsed is the smallest
          // elapsed with refill = fl(fl(ToSeconds(e))*rate) >= 1.0 (refill
          // is monotone in e, precomputed on the control path), so here
          // tokens + refill >= (burst-1) + 1 = burst in exact arithmetic,
          // rounding-to-nearest cannot take a value >= burst below the
          // representable burst, and min(burst, .) then returns exactly
          // burst. A torn read against a concurrent SetRate/Configure can
          // overshoot by at most the sub-token gap (< 1 token, one-shot),
          // within the one-burst-per-reconfig slop Configure already has.
          want.tokens = burst;
          want.last = now;
        } else {
          // Exactly TokenBucket::Refill — same expression, same rounding.
          want.tokens =
              std::min(burst, want.tokens + ToSeconds(now - want.last) * rate);
          want.last = now;
        }
      }
      const bool admit = want.tokens >= 1.0;
      if (admit) {
        want.tokens -= 1.0;
      } else if (want.last == cur.last) {
        // No refill due and no token: nothing to publish. This is the
        // zero-RMW reject path (see header comment for why a stale `cur`
        // keeps this sound on the first iteration).
        return false;
      }
      if (CompareExchange(&state_, cur, want)) {
        mirror_tokens_.store(want.tokens, std::memory_order_relaxed);
        mirror_last_.store(want.last, std::memory_order_relaxed);
        return admit;
      }
      // `cur` now holds the real cell value; recompute against it.
    }
    contention_rejects_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  /// Updates the refill rate, preserving the token balance (TokenBucket::
  /// SetRate semantics). Takes effect atomically per-admit: a concurrent
  /// TryAdmit uses either the old rate or the new one, never a torn value.
  void SetRate(double rate) {
    const double r = std::max(0.0, rate);
    rate_.store(r, std::memory_order_relaxed);
    sat_elapsed_.store(
        SaturatingElapsed(r, burst_.load(std::memory_order_relaxed)),
        std::memory_order_relaxed);
  }

  /// Full reset — equivalent to assigning a fresh TokenBucket(rate, burst):
  /// clamps, refills to the new burst and rewinds last-refill to t=0.
  void Configure(double rate, double burst) {
    const double r = std::max(0.0, rate);
    const double b = std::max(1.0, burst);
    rate_.store(r, std::memory_order_relaxed);
    sat_elapsed_.store(SaturatingElapsed(r, b), std::memory_order_relaxed);
    burst_.store(b, std::memory_order_relaxed);
    const Packed128 fresh{b, 0};
    Store(&state_, fresh,
          Packed128{mirror_tokens_.load(std::memory_order_relaxed),
                    mirror_last_.load(std::memory_order_relaxed)});
    mirror_tokens_.store(fresh.tokens, std::memory_order_relaxed);
    mirror_last_.store(fresh.last, std::memory_order_relaxed);
  }

  double rate() const { return rate_.load(std::memory_order_relaxed); }
  double burst() const { return burst_.load(std::memory_order_relaxed); }

  /// Non-mutating preview of the balance a refill up to `now` would leave
  /// (the concurrent analogue of TokenBucket::PeekTokens). Reads the true
  /// cell untorn; sequentially it is exact.
  double PeekTokens(SimTime now) const {
    const Packed128 cur =
        Load(&state_, Packed128{mirror_tokens_.load(std::memory_order_relaxed),
                                mirror_last_.load(std::memory_order_relaxed)});
    if (now <= cur.last) return cur.tokens;
    return std::min(burst_.load(std::memory_order_relaxed),
                    cur.tokens + ToSeconds(now - cur.last) *
                                     rate_.load(std::memory_order_relaxed));
  }

  /// Requests rejected because the CAS retry bound was exhausted (only ever
  /// non-zero under extreme contention; each is a conservative shed).
  std::uint64_t contention_rejects() const {
    return contention_rejects_.load(std::memory_order_relaxed);
  }

  static constexpr int kMaxCasRetries = 64;

 private:
  /// Smallest elapsed time (µs) whose refill at `rate` is at least one whole
  /// token — i.e. the least e with fl(fl(ToSeconds(e)) * rate) >= 1.0, or
  /// INT64_MAX when no elapsed achieves it (rate == 0). The refill is
  /// monotone non-decreasing in e (rounding a monotone function stays
  /// monotone), so binary search over the exact hot-path expression finds
  /// the exact threshold. Control path only (~60 iterations with divides).
  /// Disabled (INT64_MAX) when burst > 2^53: past that, burst - 1.0 rounds
  /// and the shortcut's exactness proof no longer holds.
  static std::int64_t SaturatingElapsed(double rate, double burst) {
    const auto refill_ge_one = [rate](std::int64_t e) {
      return ToSeconds(e) * rate >= 1.0;
    };
    // Probe range: beyond ~292 years of µs the sim clock itself overflows.
    constexpr std::int64_t kMax = std::int64_t{1} << 62;
    constexpr double kExactBurstMax = 9007199254740992.0;  // 2^53
    if (!(rate > 0.0) || burst > kExactBurstMax || !refill_ge_one(kMax)) {
      return std::numeric_limits<std::int64_t>::max();
    }
    std::int64_t lo = 1, hi = kMax;  // invariant: refill_ge_one(hi)
    while (lo < hi) {
      const std::int64_t mid = lo + (hi - lo) / 2;
      if (refill_ge_one(mid)) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    return hi;
  }

  void MoveFrom(const AtomicTokenBucket& other) {
    rate_.store(other.rate_.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
    sat_elapsed_.store(other.sat_elapsed_.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
    burst_.store(other.burst_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
    const Packed128 v = Load(
        &other.state_,
        Packed128{other.mirror_tokens_.load(std::memory_order_relaxed),
                  other.mirror_last_.load(std::memory_order_relaxed)});
    Store(&state_, v, Packed128{});
    mirror_tokens_.store(v.tokens, std::memory_order_relaxed);
    mirror_last_.store(v.last, std::memory_order_relaxed);
    contention_rejects_.store(
        other.contention_rejects_.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
  }

  static constexpr std::size_t kLine = 64;

  // The three lines of the header comment's layout; the object itself is
  // 64-byte aligned, so each offset below starts a cache line.
  // mutable: cmpxchg16b rewrites the target bytes even when used as a pure
  // load (it stores the old value back), so const readers still "write".
  alignas(kLine) mutable Packed128 state_{};
  alignas(kLine) std::atomic<double> rate_{0.0};
  std::atomic<double> burst_{1.0};
  /// See SaturatingElapsed(); kept consistent with rate_ by the (serialized)
  /// control path.
  std::atomic<std::int64_t> sat_elapsed_{
      std::numeric_limits<std::int64_t>::max()};
  std::atomic<std::uint64_t> contention_rejects_{0};
  // CAS-expected hint on its own line: the admit loop seeds its CAS from
  // here instead of a plain load of the locked `state_` line.
  alignas(kLine) std::atomic<double> mirror_tokens_{0.0};
  std::atomic<std::int64_t> mirror_last_{0};
};

}  // namespace topfull::admit
