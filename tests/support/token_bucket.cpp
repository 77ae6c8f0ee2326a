#include "support/token_bucket.hpp"

#include <algorithm>

namespace topfull {

TokenBucket::TokenBucket(double rate, double burst)
    : rate_(std::max(0.0, rate)), burst_(std::max(1.0, burst)), tokens_(burst_) {}

void TokenBucket::Refill(SimTime now) {
  if (now <= last_refill_) return;
  const double elapsed = ToSeconds(now - last_refill_);
  tokens_ = std::min(burst_, tokens_ + elapsed * rate_);
  last_refill_ = now;
}

bool TokenBucket::TryAdmit(SimTime now) {
  Refill(now);
  if (tokens_ >= 1.0) {
    tokens_ -= 1.0;
    return true;
  }
  return false;
}

void TokenBucket::SetRate(double rate) { rate_ = std::max(0.0, rate); }

double TokenBucket::PeekTokens(SimTime now) const {
  if (now <= last_refill_) return tokens_;
  return std::min(burst_, tokens_ + ToSeconds(now - last_refill_) * rate_);
}

}  // namespace topfull
