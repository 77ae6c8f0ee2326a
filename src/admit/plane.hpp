// AdmissionPlane: the concurrent admission registry (ytsaurus
// TOverloadController shape — see DESIGN.md §15).
//
// Read path: one atomic snapshot load maps (service, method) → admitter
// slot; admits never take a lock and never observe a torn reconfiguration.
// Control path: a single control thread (serialized by a mutex) registers /
// removes slots and republishes rates. Only topology changes (Register,
// Remove) build a fresh immutable State and release-publish it; a rate
// change is applied in place on the (stable, shared_ptr-held) admitter the
// live snapshot already points at, so it costs O(1), bumps no version and
// the read path picks it up on its next admit without re-reading anything.
//
// Snapshots are published through an RcuCell (common/rcu_cell.hpp), the
// same TSan-clean single-publisher/multi-reader exchange the live telemetry
// plane uses.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "admit/admitter.hpp"
#include "common/rcu_cell.hpp"

namespace topfull::admit {

/// Outcome of a control-path Configure.
enum class ConfigureResult {
  kApplied,      ///< limit actually changed (applied in place)
  kCoalesced,    ///< same (rate, burst) as already configured
  kInvalidSlot,  ///< unknown or removed slot
};

/// Control-plane counters (read with Stats(); all monotonic).
struct PlaneStats {
  std::uint64_t reconfigs_applied = 0;
  std::uint64_t reconfigs_coalesced = 0;
  std::uint64_t snapshots_published = 0;
};

class AdmissionPlane {
 public:
  /// The immutable snapshot the read path navigates. `slots` is dense by
  /// slot id (nullptr = removed slot, which fails open); `index` maps
  /// "service/method" to the slot id.
  struct State {
    std::uint64_t version = 0;
    std::vector<std::shared_ptr<Admitter>> slots;
    std::unordered_map<std::string, int> index;
  };

  AdmissionPlane();

  // --- Control path (thread-safe, serialized internally) --------------------
  /// Registers an admitter under (service, method); returns its stable slot
  /// id. Publishes a new snapshot.
  int Register(const std::string& service, const std::string& method,
               std::shared_ptr<Admitter> admitter);

  /// Removes a slot (subsequent admits on it fail open). The admitter stays
  /// alive for as long as any reader still holds a pinned snapshot.
  void Remove(int slot);

  /// Applies (rate, burst) to a slot's admitter, in place — a discipline
  /// like the token bucket resets its balance on every call, exactly like
  /// the sim's historical SetRate path. Never publishes a snapshot or bumps
  /// the version; allocation-free. The result only tells a changed limit
  /// from a repeat of the configured (rate, burst).
  ConfigureResult Configure(int slot, double rate, double burst);

  // --- Read path (lock-free) ------------------------------------------------
  /// Current snapshot; holding the returned pointer pins every admitter in
  /// it (safe across concurrent Remove).
  std::shared_ptr<const State> Snapshot() const { return cell_.Read(); }

  /// Snapshot version counter; bumps on every publish (Register/Remove).
  /// Cheap enough to poll per-admit: one acquire load of a line no control
  /// call but a publish writes.
  std::uint64_t version() const {
    return version_.load(std::memory_order_acquire);
  }

  /// One-shot admit through the current snapshot. Unknown/removed slots fail
  /// open (admit), matching "uncapped" semantics. Prefer CachedGate on hot
  /// paths: this copies the snapshot handle (two ref-count RMWs) per call.
  bool TryAdmit(int slot, const AdmitRequest& req) const;

  /// Slot id for (service, method), or -1.
  int FindSlot(const std::string& service, const std::string& method) const;

  PlaneStats Stats() const;

 private:
  struct Entry {
    std::string service;
    std::string method;
    std::shared_ptr<Admitter> admitter;  // nullptr once removed
    bool configured = false;             // has Configure ever been applied?
    double rate = 0.0;                   // last applied (rate, burst) —
    double burst = 0.0;                  // the coalescing shadow
  };

  /// Builds a State from entries_ and publishes it. Caller holds mu_.
  void PublishLocked();

  mutable std::mutex mu_;
  std::vector<Entry> entries_;
  std::uint64_t next_version_ = 0;

  RcuCell<State> cell_;
  // Own line: CachedGate polls it on every admit, and Configure's counter
  // increments below would otherwise invalidate it in every reader's cache.
  alignas(64) std::atomic<std::uint64_t> version_{0};
  alignas(64) std::atomic<std::uint64_t> reconfigs_applied_{0};
  std::atomic<std::uint64_t> reconfigs_coalesced_{0};
  std::atomic<std::uint64_t> snapshots_published_{0};
};

/// Per-caller read handle that only re-reads the plane snapshot when the
/// version moved (a slot was registered or removed; rate changes never move
/// it) — the steady-state admit is one acquire version load plus
/// the admitter's own decision, with zero shared_ptr ref-count traffic and
/// zero allocation.
class CachedGate {
 public:
  CachedGate() = default;
  explicit CachedGate(const AdmissionPlane* plane) : plane_(plane) {}

  bool TryAdmit(int slot, const AdmitRequest& req) {
    Refresh();
    if (state_ == nullptr || slot < 0 ||
        slot >= static_cast<int>(state_->slots.size())) {
      return true;  // fail open, uncapped semantics
    }
    Admitter* admitter = state_->slots[static_cast<std::size_t>(slot)].get();
    if (admitter == nullptr) return true;
    return admitter->TryAdmit(req);
  }

  /// The snapshot this gate currently navigates (tests/introspection).
  const std::shared_ptr<const AdmissionPlane::State>& state() {
    Refresh();
    return state_;
  }

 private:
  void Refresh() {
    if (plane_ == nullptr) return;
    const std::uint64_t v = plane_->version();
    if (v == seen_version_) return;
    state_ = plane_->Snapshot();
    seen_version_ = state_ != nullptr ? state_->version : v;
  }

  const AdmissionPlane* plane_ = nullptr;
  std::shared_ptr<const AdmissionPlane::State> state_;
  std::uint64_t seen_version_ = ~std::uint64_t{0};
};

}  // namespace topfull::admit
