#include "des/simulation.hpp"

#include <cassert>
#include <stdexcept>
#include <utility>

namespace topfull::des {

// --- Slot pool ---------------------------------------------------------------

std::uint32_t Simulation::AllocSlot() {
  if (free_slots_.empty()) {
    const std::size_t base = slabs_.size() * kSlabSize;
    if (base + kSlabSize > kSlotLimit) {
      throw std::length_error(
          "des::Simulation: more than 2^24 timer slots pending at once");
    }
    slabs_.push_back(std::make_unique<Slot[]>(kSlabSize));
    pos_.resize(base + kSlabSize);
    free_slots_.reserve(base + kSlabSize);
    // Reverse order so slot ids are handed out ascending.
    for (std::size_t i = kSlabSize; i > 0; --i) {
      free_slots_.push_back(static_cast<std::uint32_t>(base + i - 1));
    }
  }
  const std::uint32_t id = free_slots_.back();
  free_slots_.pop_back();
  return id;
}

void Simulation::FreeSlot(std::uint32_t id) {
  Slot& s = SlotAt(id);
  s.fn = nullptr;
  ++s.gen;  // invalidate every outstanding handle to this slot
  free_slots_.push_back(id);
}

std::uint32_t Simulation::Resolve(TimerHandle handle) const {
  if (!handle.valid()) return kNoSlot;
  if (handle.slot >= slabs_.size() * kSlabSize) return kNoSlot;
  return SlotAt(handle.slot).gen == handle.gen ? handle.slot : kNoSlot;
}

std::uint64_t Simulation::TakeSeq() {
  if (next_seq_ >= kSeqLimit) {
    throw std::length_error(
        "des::Simulation: event sequence number reached 2^40");
  }
  return next_seq_++;
}

// --- 4-ary heap of keys ------------------------------------------------------
//
// Indices are positions in keys_: the root is kRoot, the parent of i is
// i/4 + 2 and its children are 4(i-2)..4(i-2)+3, one aligned line.

void Simulation::SiftUp(std::uint32_t pos) {
  Key* const h = keys_.data();
  const Key key = h[pos];
  while (pos > kRoot) {
    const std::uint32_t parent = (pos >> 2) + 2;
    if (!Earlier(key, h[parent])) break;
    h[pos] = h[parent];
    pos_[SlotOf(h[pos])] = pos;
    pos = parent;
  }
  h[pos] = key;
  pos_[SlotOf(key)] = pos;
}

void Simulation::SiftDown(std::uint32_t pos) {
  Key* const h = keys_.data();
  const auto n = static_cast<std::uint32_t>(keys_.size());
  const Key key = h[pos];
  while (true) {
    const std::uint32_t first = (pos - 2) << 2;
    if (first >= n) break;
    std::uint32_t best;
    if (first + 3 < n) {
      // Full group: a two-round tournament over one cache line.
      const std::uint32_t a = Earlier(h[first + 1], h[first]) ? first + 1 : first;
      const std::uint32_t b = Earlier(h[first + 3], h[first + 2]) ? first + 3 : first + 2;
      best = Earlier(h[b], h[a]) ? b : a;
    } else {
      best = first;
      for (std::uint32_t c = first + 1; c < n; ++c) {
        if (Earlier(h[c], h[best])) best = c;
      }
    }
    if (!Earlier(h[best], key)) break;
    h[pos] = h[best];
    pos_[SlotOf(h[pos])] = pos;
    pos = best;
  }
  h[pos] = key;
  pos_[SlotOf(key)] = pos;
}

void Simulation::HeapPush(Key key) {
  keys_.push_back(key);
  SiftUp(static_cast<std::uint32_t>(keys_.size() - 1));
}

void Simulation::HeapRemove(std::uint32_t pos) {
  const Key last = keys_.back();
  keys_.pop_back();
  if (pos == keys_.size()) return;  // removed the tail
  // The tail key may order either way relative to the hole's parent.
  keys_[pos] = last;
  if (pos > kRoot && Earlier(last, keys_[(pos >> 2) + 2])) {
    SiftUp(pos);
  } else {
    SiftDown(pos);
  }
}

// --- Scheduling --------------------------------------------------------------

Simulation::TimerHandle Simulation::ScheduleAt(SimTime when, Callback fn) {
  assert(when >= now_ && "cannot schedule in the past");
  const std::uint64_t seq = TakeSeq();
  const std::uint32_t id = AllocSlot();
  Slot& s = SlotAt(id);
  s.period = 0;
  s.fn = std::move(fn);
  HeapPush(Key{when < now_ ? now_ : when, seq << kSlotBits | id});
  ++events_scheduled_;
  return TimerHandle{id, s.gen};
}

Simulation::TimerHandle Simulation::SchedulePeriodic(SimTime start, SimTime period,
                                                     Callback fn) {
  assert(period > 0 && "periodic events need a positive period");
  TimerHandle handle = ScheduleAt(start, std::move(fn));
  SlotAt(handle.slot).period = period;
  return handle;
}

bool Simulation::Cancel(TimerHandle handle) {
  const std::uint32_t id = Resolve(handle);
  if (id == kNoSlot) return false;
  if (id == running_slot_) {
    // A periodic event cancelling itself mid-callback: suppress the re-arm;
    // RunFront frees the slot when the callback returns.
    if (running_cancelled_) return false;
    running_cancelled_ = true;
    ++events_cancelled_;
    return true;
  }
  HeapRemove(pos_[id]);
  FreeSlot(id);
  ++events_cancelled_;
  return true;
}

bool Simulation::Reschedule(TimerHandle handle, SimTime when) {
  const std::uint32_t id = Resolve(handle);
  if (id == kNoSlot || id == running_slot_) return false;
  const std::uint32_t pos = pos_[id];
  Key& key = keys_[pos];
  const Key moved{when < now_ ? now_ : when,
                  TakeSeq() << kSlotBits | id};  // as cancel + re-schedule
  const bool earlier = Earlier(moved, key);
  key = moved;
  if (earlier) {
    SiftUp(pos);
  } else {
    SiftDown(pos);
  }
  return true;
}

// --- Execution ---------------------------------------------------------------

void Simulation::RunFront() {
  const std::uint32_t id = SlotOf(keys_[kRoot]);
  Slot& s = SlotAt(id);
  now_ = keys_[kRoot].when;
  ++events_processed_;
  if (s.period == 0) {
    // One-shot: free the slot before running so the callback can observe a
    // consistent queue (its own handle is already dead, like the old
    // pop-then-run engine).
    InlineEvent fn = std::move(s.fn);
    HeapRemove(kRoot);
    FreeSlot(id);
    fn();
    return;
  }
  // Periodic: run, then re-arm the same slot in place. The fresh seq is
  // allocated AFTER the callback returns, matching the old self-re-arming
  // event's tie-break position relative to events the callback scheduled.
  running_slot_ = id;
  running_cancelled_ = false;
  s.fn();
  running_slot_ = kNoSlot;
  if (running_cancelled_) {
    running_cancelled_ = false;
    HeapRemove(pos_[id]);
    FreeSlot(id);
    return;
  }
  const std::uint32_t pos = pos_[id];
  keys_[pos] = Key{now_ + s.period, TakeSeq() << kSlotBits | id};
  // Only sift down: the re-armed event moved later in (when, seq) order.
  SiftDown(pos);
}

void Simulation::RunUntil(SimTime end) {
  while (keys_.size() > kRoot && keys_[kRoot].when <= end) RunFront();
  if (now_ < end) now_ = end;
}

bool Simulation::Step() {
  if (keys_.size() == kRoot) return false;
  RunFront();
  return true;
}

// --- Invariant check (tests) -------------------------------------------------

bool Simulation::CheckHeapInvariant() const {
  const std::size_t total = slabs_.size() * kSlabSize;
  if (keys_.size() < kRoot) return false;
  if (PendingEvents() + free_slots_.size() != total) return false;
  if (pos_.size() != total) return false;
  if (reinterpret_cast<std::uintptr_t>(keys_.data()) % 64 != 0) return false;
  for (std::uint32_t pos = kRoot; pos < keys_.size(); ++pos) {
    const Key& key = keys_[pos];
    const std::uint32_t id = SlotOf(key);
    if (id >= total) return false;
    if (pos_[id] != pos) return false;
    if (!SlotAt(id).fn) return false;
    if (pos > kRoot && Earlier(key, keys_[(pos >> 2) + 2])) return false;
  }
  return true;
}

}  // namespace topfull::des
