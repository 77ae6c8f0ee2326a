// Discrete-event simulation engine.
//
// A Simulation owns a time-ordered event queue. Components schedule
// callbacks at absolute or relative times; ties are broken by insertion
// order so runs are fully deterministic. The engine is single-threaded by
// design — determinism and reproducibility outrank parallel speed for the
// reproduction experiments.
//
// Every scheduled event has a pool slot whose address never moves (the
// callback lives there), and the queue is a 4-ary min-heap of 16-byte keys
// {when, seq << 24 | slot}. Sifting compares keys only and never touches
// slot storage: the heap array is 64-byte aligned and offset so the four
// children of a node fill one cache line, and each slot's heap position
// lives in a dense array beside the slots. Positions buy O(log n)
// cancellation — ScheduleAt returns a generation-counted TimerHandle, and
// Cancel/Reschedule find the key through its slot's position instead of
// leaving a dead event to fire as a no-op. Callbacks are InlineEvents
// (fixed inline storage, no heap), so scheduling costs zero allocations
// once the slot pool and heap have reached their high-water marks. Slot
// ids stay below 2^24 and sequence numbers below 2^40; passing either
// limit throws std::length_error.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include "common/inline_function.hpp"
#include "common/sim_time.hpp"

namespace topfull::des {

/// Event callback with guaranteed-inline capture storage. 112 bytes fits
/// the fattest sim-internal capture (a pod completion event carrying its
/// 64-byte DoneFn) with room for a std::function-based test callback;
/// anything larger is a compile error at the schedule site.
using InlineEvent = InlineFunction<void(), 112>;

class Simulation {
 public:
  using Callback = InlineEvent;

  /// Identity of a scheduled event, valid until it fires or is cancelled.
  /// Slot ids are reused; `gen` makes stale handles harmless (Cancel and
  /// Reschedule on a fired/cancelled handle return false — ABA-safe).
  struct TimerHandle {
    std::uint32_t slot = 0xffffffffu;
    std::uint32_t gen = 0;
    bool valid() const { return slot != 0xffffffffu; }
  };

  Simulation() : keys_(kRoot) {}

  /// Current simulation time.
  SimTime Now() const { return now_; }

  /// Schedules `fn` at absolute time `when` (>= Now()).
  TimerHandle ScheduleAt(SimTime when, Callback fn);

  /// Schedules `fn` after `delay` (>= 0) from now.
  TimerHandle ScheduleAfter(SimTime delay, Callback fn) {
    return ScheduleAt(now_ + delay, std::move(fn));
  }

  /// Schedules `fn` every `period` (> 0), starting at `start`, until the
  /// simulation ends or the handle is cancelled. The slot re-arms in place
  /// after each firing (no allocation, no new handle); the returned handle
  /// stays valid across firings.
  TimerHandle SchedulePeriodic(SimTime start, SimTime period, Callback fn);

  /// Cancels a pending event in O(log n). Returns false when the handle is
  /// stale (already fired, already cancelled, or one-shot currently
  /// executing). Cancelling a periodic event from inside its own callback
  /// is allowed and stops the re-arm.
  bool Cancel(TimerHandle handle);

  /// Moves a pending event to absolute time `when` (clamped to >= Now()),
  /// as if it had been cancelled and re-scheduled: the event goes to the
  /// back of the tie-break order at its new time. For a periodic event
  /// this shifts the next firing; the period is unchanged. Returns false
  /// for stale handles and for a periodic event currently executing.
  bool Reschedule(TimerHandle handle, SimTime when);

  /// Runs events until the queue is empty or time would exceed `end`.
  /// The clock is left at `end` afterwards.
  void RunUntil(SimTime end);

  /// Processes a single event; returns false if the queue is empty.
  bool Step();

  /// Number of events processed so far. Cancelled events never fire and
  /// are not counted here.
  std::uint64_t EventsProcessed() const { return events_processed_; }

  /// Number of events cancelled before firing.
  std::uint64_t EventsCancelled() const { return events_cancelled_; }

  /// Number of ScheduleAt/ScheduleAfter/SchedulePeriodic calls (periodic
  /// re-arms not included).
  std::uint64_t EventsScheduled() const { return events_scheduled_; }

  /// Pending event count (for tests).
  std::size_t PendingEvents() const { return keys_.size() - kRoot; }

  /// Timer slot slab pool occupancy (for the live telemetry plane): total
  /// slots ever carved from slabs, and how many are currently on the free
  /// list. In-use slots == SlotCapacity() - SlotsFree().
  std::size_t SlotCapacity() const { return slabs_.size() * kSlabSize; }
  std::size_t SlotsFree() const { return free_slots_.size(); }

  /// Verifies the 4-ary heap order, the key array's alignment, the slot
  /// positions, and the free-list accounting. O(n); for tests.
  bool CheckHeapInvariant() const;

 private:
  friend struct SimulationTestPeer;  ///< tests drive the engine to its limits

  struct Slot {
    SimTime period = 0;  ///< 0 = one-shot
    std::uint32_t gen = 0;
    InlineEvent fn;
  };

  /// Heap entry. `order` = seq << kSlotBits | slot; seq is unique, so
  /// ordering by (when, order) is exactly (when, seq) order.
  struct Key {
    SimTime when;
    std::uint64_t order;
  };
  static_assert(sizeof(Key) == 16, "four keys per 64-byte line");

  /// Allocator that hands out 64-byte-aligned storage, so the key array
  /// starts on a cache-line boundary.
  template <typename T>
  struct LineAllocator {
    using value_type = T;
    static constexpr std::align_val_t kAlign{64};
    LineAllocator() = default;
    template <typename U>
    LineAllocator(const LineAllocator<U>&) {}
    T* allocate(std::size_t n) {
      return static_cast<T*>(::operator new(n * sizeof(T), kAlign));
    }
    void deallocate(T* p, std::size_t) { ::operator delete(p, kAlign); }
    template <typename U>
    bool operator==(const LineAllocator<U>&) const { return true; }
  };

  static constexpr std::uint32_t kSlotBits = 24;
  static constexpr std::uint64_t kSlotLimit = std::uint64_t{1} << kSlotBits;
  static constexpr std::uint64_t kSeqLimit = std::uint64_t{1} << 40;
  /// Index of the root in keys_. Positions 0..2 are padding, so the
  /// children of node i, at 4(i-2)..4(i-2)+3, start on a multiple of 4:
  /// one aligned cache line.
  static constexpr std::uint32_t kRoot = 3;
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  static constexpr std::size_t kSlabShift = 8;  ///< 256 slots per slab
  static constexpr std::size_t kSlabSize = std::size_t{1} << kSlabShift;

  Slot& SlotAt(std::uint32_t id) {
    return slabs_[id >> kSlabShift][id & (kSlabSize - 1)];
  }
  const Slot& SlotAt(std::uint32_t id) const {
    return slabs_[id >> kSlabShift][id & (kSlabSize - 1)];
  }

  std::uint32_t AllocSlot();
  void FreeSlot(std::uint32_t id);
  /// Resolves a handle to a live slot id, or kNoSlot when stale.
  std::uint32_t Resolve(TimerHandle handle) const;

  /// Hands out the next sequence number; throws std::length_error at 2^40.
  std::uint64_t TakeSeq();
  static std::uint32_t SlotOf(const Key& k) {
    return static_cast<std::uint32_t>(k.order & (kSlotLimit - 1));
  }
  static bool Earlier(const Key& a, const Key& b) {
    return a.when < b.when || (a.when == b.when && a.order < b.order);
  }
  void HeapPush(Key key);
  void HeapRemove(std::uint32_t pos);
  void SiftUp(std::uint32_t pos);
  void SiftDown(std::uint32_t pos);

  /// Pops and runs the front event. Pre: heap non-empty.
  void RunFront();

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  std::uint64_t events_cancelled_ = 0;
  std::uint64_t events_scheduled_ = 0;
  std::vector<std::unique_ptr<Slot[]>> slabs_;  ///< stable slot storage
  std::vector<std::uint32_t> free_slots_;
  /// 4-ary min-heap of keys, root at kRoot; 64-byte aligned.
  std::vector<Key, LineAllocator<Key>> keys_;
  std::vector<std::uint32_t> pos_;  ///< slot id -> index in keys_
  /// Slot id of the periodic event currently executing (kNoSlot otherwise);
  /// lets Cancel/Reschedule from inside the callback interact with the
  /// re-arm correctly.
  std::uint32_t running_slot_ = kNoSlot;
  bool running_cancelled_ = false;
};

}  // namespace topfull::des
