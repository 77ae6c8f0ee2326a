#include "admit/plane.hpp"

namespace topfull::admit {

namespace {
std::string Key(const std::string& service, const std::string& method) {
  std::string key;
  key.reserve(service.size() + method.size() + 1);
  key.append(service);
  key.push_back('/');
  key.append(method);
  return key;
}
}  // namespace

AdmissionPlane::AdmissionPlane() {
  std::lock_guard<std::mutex> lock(mu_);
  PublishLocked();  // readers never see a null snapshot
}

void AdmissionPlane::PublishLocked() {
  auto state = std::make_shared<State>();
  state->version = ++next_version_;
  state->slots.reserve(entries_.size());
  for (int i = 0; i < static_cast<int>(entries_.size()); ++i) {
    const Entry& entry = entries_[static_cast<std::size_t>(i)];
    state->slots.push_back(entry.admitter);
    if (entry.admitter != nullptr) {
      state->index.emplace(Key(entry.service, entry.method), i);
    }
  }
  const std::uint64_t version = state->version;
  cell_.Publish(std::move(state));
  snapshots_published_.fetch_add(1, std::memory_order_relaxed);
  // Release so a reader that observes the new version also observes the
  // published snapshot through cell_.Read().
  version_.store(version, std::memory_order_release);
}

int AdmissionPlane::Register(const std::string& service,
                             const std::string& method,
                             std::shared_ptr<Admitter> admitter) {
  std::lock_guard<std::mutex> lock(mu_);
  const int slot = static_cast<int>(entries_.size());
  entries_.push_back(Entry{service, method, std::move(admitter)});
  PublishLocked();
  return slot;
}

void AdmissionPlane::Remove(int slot) {
  std::lock_guard<std::mutex> lock(mu_);
  if (slot < 0 || slot >= static_cast<int>(entries_.size())) return;
  Entry& entry = entries_[static_cast<std::size_t>(slot)];
  if (entry.admitter == nullptr) return;
  entry.admitter = nullptr;
  entry.configured = false;
  PublishLocked();
}

ConfigureResult AdmissionPlane::Configure(int slot, double rate, double burst) {
  std::lock_guard<std::mutex> lock(mu_);
  if (slot < 0 || slot >= static_cast<int>(entries_.size())) {
    return ConfigureResult::kInvalidSlot;
  }
  Entry& entry = entries_[static_cast<std::size_t>(slot)];
  if (entry.admitter == nullptr) return ConfigureResult::kInvalidSlot;
  // Always applied in place: disciplines that reset internal state on
  // reconfiguration (the token bucket refills to its burst) must do so even
  // for a same-value publish, or the sim's decision stream would diverge
  // from the historical per-SetRate bucket reset (DESIGN.md §15). The live
  // snapshot already points at this admitter, so no reader has to re-route
  // and nothing is published.
  entry.admitter->Configure(rate, burst);
  if (entry.configured && entry.rate == rate && entry.burst == burst) {
    reconfigs_coalesced_.fetch_add(1, std::memory_order_relaxed);
    return ConfigureResult::kCoalesced;
  }
  entry.configured = true;
  entry.rate = rate;
  entry.burst = burst;
  reconfigs_applied_.fetch_add(1, std::memory_order_relaxed);
  return ConfigureResult::kApplied;
}

bool AdmissionPlane::TryAdmit(int slot, const AdmitRequest& req) const {
  const std::shared_ptr<const State> state = Snapshot();
  if (state == nullptr || slot < 0 ||
      slot >= static_cast<int>(state->slots.size())) {
    return true;
  }
  Admitter* admitter = state->slots[static_cast<std::size_t>(slot)].get();
  if (admitter == nullptr) return true;
  return admitter->TryAdmit(req);
}

int AdmissionPlane::FindSlot(const std::string& service,
                             const std::string& method) const {
  const std::shared_ptr<const State> state = Snapshot();
  if (state == nullptr) return -1;
  const auto it = state->index.find(Key(service, method));
  return it == state->index.end() ? -1 : it->second;
}

PlaneStats AdmissionPlane::Stats() const {
  PlaneStats stats;
  stats.reconfigs_applied = reconfigs_applied_.load(std::memory_order_relaxed);
  stats.reconfigs_coalesced =
      reconfigs_coalesced_.load(std::memory_order_relaxed);
  stats.snapshots_published =
      snapshots_published_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace topfull::admit
