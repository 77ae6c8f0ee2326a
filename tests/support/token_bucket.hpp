// Sequential token-bucket rate limiter: the reference the lock-free
// admit::AtomicTokenBucket must match bit for bit (DESIGN.md §15).
//
// Tokens accrue continuously at `rate` per second up to `burst` tokens;
// each admitted request consumes one token. Rate changes take effect
// immediately and preserve the fractional token balance. No program code
// uses it: it is the oracle of the equivalence tests and the
// single-threaded reference row of the admission benches, so it lives with
// the tests and is linked only into those binaries.
#pragma once

#include "common/sim_time.hpp"

namespace topfull {

class TokenBucket {
 public:
  /// `rate` in requests/second; `burst` is the bucket depth in tokens.
  TokenBucket(double rate, double burst);

  /// Attempts to admit one request at time `now`; returns true on success.
  bool TryAdmit(SimTime now);

  /// Updates the refill rate (requests/second). Never negative.
  void SetRate(double rate);

  double rate() const { return rate_; }
  double burst() const { return burst_; }

  /// Non-mutating preview of the balance a refill up to `now` would leave
  /// (for tests/metrics). Pure read: the bucket state is untouched, so
  /// interleaving previews with TryAdmit cannot perturb the decision stream.
  double PeekTokens(SimTime now) const;

 private:
  void Refill(SimTime now);

  double rate_;
  double burst_;
  double tokens_;
  SimTime last_refill_ = 0;
};

}  // namespace topfull
