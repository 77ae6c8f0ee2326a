// RcuCell: single-publisher / multi-reader exchange of an immutable value.
//
// Used wherever one control thread republishes a value that many threads
// read without locks: the admission plane's routing snapshot
// (admit/plane.hpp) and the live telemetry plane's metrics snapshot
// (obs/snapshot.hpp).
//
// Not std::atomic<std::shared_ptr>: libstdc++'s _Sp_atomic releases its
// internal spinlock from load() with a relaxed RMW, so there is no release
// edge from a reader's pointer read to the next store's pointer write and
// TSan (correctly, per the model) reports the pair as a data race. Instead
// the cell is a small hazard-style slot ring: Publish() fills a slot no
// reader has pinned and flips `current_`; Read() pins slots_[current_] with
// a reader count, re-validates `current_`, and copies the shared_ptr out.
// The seq_cst handshake (reader: pin then re-read current_; publisher: flip
// current_ then scan reader counts) guarantees the publisher never reuses a
// slot a reader is copying from: in the seq_cst total order either the
// publisher's scan sees the pin, or the reader's re-validation sees the
// flip and backs off. Readers never block each other or the publisher. The
// copied shared_ptr keeps a read value alive across later publishes, so
// there is no reclamation race; old values free when the last reader drops
// them.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>

namespace topfull {

template <typename T>
class RcuCell {
 public:
  /// Starts holding `initial` (null by default: Read() returns null until
  /// the first Publish).
  explicit RcuCell(std::shared_ptr<const T> initial = nullptr) {
    slots_[0].value = std::move(initial);
  }

  /// Publisher side; callers serialize publishers externally. Null values
  /// are ignored.
  void Publish(std::shared_ptr<const T> value) {
    if (value == nullptr) return;
    const std::uint32_t cur = current_.load(std::memory_order_relaxed);
    // Pick a slot no reader has pinned. A slot is pinned only for the
    // duration of one shared_ptr copy, so this scan terminates quickly.
    std::uint32_t next = cur;
    for (;;) {
      next = (next + 1) % kSlots;
      if (next == cur) continue;  // never overwrite the live slot
      if (slots_[next].readers.load(std::memory_order_seq_cst) == 0) break;
    }
    slots_[next].value = std::move(value);
    current_.store(next, std::memory_order_seq_cst);
  }

  /// Lock-free; the returned handle keeps the value alive for as long as
  /// the caller holds it.
  std::shared_ptr<const T> Read() const {
    for (;;) {
      const std::uint32_t i = current_.load(std::memory_order_seq_cst);
      Slot& slot = slots_[i];
      slot.readers.fetch_add(1, std::memory_order_seq_cst);
      if (current_.load(std::memory_order_seq_cst) == i) {
        std::shared_ptr<const T> out = slot.value;
        slot.readers.fetch_sub(1, std::memory_order_seq_cst);
        return out;
      }
      // The publisher flipped away from (and may be refilling) slot i
      // between our two loads; unpin and retry against the new current.
      slot.readers.fetch_sub(1, std::memory_order_seq_cst);
    }
  }

 private:
  // 4 slots: 1 live + up to 2 mid-Read stragglers + 1 the publisher is
  // filling. The publisher skips slots with pinned readers, so a reader's
  // copy always completes on an intact shared_ptr.
  static constexpr std::uint32_t kSlots = 4;

  struct Slot {
    std::shared_ptr<const T> value;
    std::atomic<std::uint32_t> readers{0};
  };

  mutable std::array<Slot, kSlots> slots_;
  std::atomic<std::uint32_t> current_{0};
};

}  // namespace topfull
