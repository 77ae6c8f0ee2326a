// Unit tests for the discrete-event engine: ordering, determinism, periodic
// scheduling, run-until semantics, timer cancellation, the slot and sequence
// limits, and a randomized property test of the heap against a
// std::multimap reference model, at a handful and at 60k pending events.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "des/simulation.hpp"

namespace topfull::des {

// Puts an engine at its hard limits, which scheduling alone cannot reach in
// a test: 2^24 slots would take gigabytes and 2^40 events days.
struct SimulationTestPeer {
  static void SetNextSeq(Simulation& sim, std::uint64_t seq) { sim.next_seq_ = seq; }
  /// Marks every slot id below 2^24 as carved and in use (the slabs
  /// themselves stay unallocated; only the pool's bookkeeping is full).
  static void ExhaustSlotIds(Simulation& sim) {
    sim.slabs_.resize(Simulation::kSlotLimit / Simulation::kSlabSize);
  }
};

namespace {

TEST(SimulationTest, ProcessesEventsInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.ScheduleAt(Seconds(3), [&]() { order.push_back(3); });
  sim.ScheduleAt(Seconds(1), [&]() { order.push_back(1); });
  sim.ScheduleAt(Seconds(2), [&]() { order.push_back(2); });
  sim.RunUntil(Seconds(10));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.EventsProcessed(), 3u);
}

TEST(SimulationTest, TiesBreakByInsertionOrder) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.ScheduleAt(Seconds(1), [&order, i]() { order.push_back(i); });
  }
  sim.RunUntil(Seconds(2));
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(SimulationTest, ClockAdvancesToEventTime) {
  Simulation sim;
  SimTime seen = -1;
  sim.ScheduleAt(Millis(250), [&]() { seen = sim.Now(); });
  sim.RunUntil(Seconds(1));
  EXPECT_EQ(seen, Millis(250));
  EXPECT_EQ(sim.Now(), Seconds(1));  // clock lands on the horizon
}

TEST(SimulationTest, RunUntilDoesNotProcessLaterEvents) {
  Simulation sim;
  bool fired = false;
  sim.ScheduleAt(Seconds(5), [&]() { fired = true; });
  sim.RunUntil(Seconds(4));
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.PendingEvents(), 1u);
  sim.RunUntil(Seconds(6));
  EXPECT_TRUE(fired);
}

TEST(SimulationTest, ScheduleAfterIsRelative) {
  Simulation sim;
  SimTime when = 0;
  sim.ScheduleAt(Seconds(2), [&]() {
    sim.ScheduleAfter(Seconds(3), [&]() { when = sim.Now(); });
  });
  sim.RunUntil(Seconds(10));
  EXPECT_EQ(when, Seconds(5));
}

TEST(SimulationTest, EventsScheduledDuringRunAreProcessed) {
  Simulation sim;
  int count = 0;
  std::function<void()> chain = [&]() {
    ++count;
    if (count < 5) sim.ScheduleAfter(Seconds(1), chain);
  };
  sim.ScheduleAt(0, chain);
  sim.RunUntil(Seconds(10));
  EXPECT_EQ(count, 5);
}

TEST(SimulationTest, PeriodicFiresAtFixedCadence) {
  Simulation sim;
  std::vector<SimTime> fires;
  sim.SchedulePeriodic(Seconds(1), Seconds(1), [&]() { fires.push_back(sim.Now()); });
  sim.RunUntil(Seconds(5));
  ASSERT_EQ(fires.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(fires[static_cast<std::size_t>(i)], Seconds(i + 1));
}

TEST(SimulationTest, PeriodicCallbacksKeepRelativeOrder) {
  // Two periodic tasks at the same cadence keep their registration order at
  // every firing — the property the metrics-then-controllers pipeline
  // relies on.
  Simulation sim;
  std::vector<char> order;
  sim.SchedulePeriodic(Seconds(1), Seconds(1), [&]() { order.push_back('a'); });
  sim.SchedulePeriodic(Seconds(1), Seconds(1), [&]() { order.push_back('b'); });
  sim.RunUntil(Seconds(3));
  ASSERT_EQ(order.size(), 6u);
  for (std::size_t i = 0; i < order.size(); i += 2) {
    EXPECT_EQ(order[i], 'a');
    EXPECT_EQ(order[i + 1], 'b');
  }
}

TEST(SimulationTest, StepProcessesSingleEvent) {
  Simulation sim;
  int count = 0;
  sim.ScheduleAt(Seconds(1), [&]() { ++count; });
  sim.ScheduleAt(Seconds(2), [&]() { ++count; });
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(sim.Step());
}

// --- Cancellation / reschedule semantics ------------------------------------

TEST(TimerCancelTest, CancelRemovesPendingEvent) {
  Simulation sim;
  bool a = false, b = false;
  const auto ha = sim.ScheduleAt(Seconds(1), [&]() { a = true; });
  sim.ScheduleAt(Seconds(2), [&]() { b = true; });
  EXPECT_TRUE(sim.Cancel(ha));
  EXPECT_EQ(sim.PendingEvents(), 1u);
  sim.RunUntil(Seconds(3));
  EXPECT_FALSE(a);
  EXPECT_TRUE(b);
  EXPECT_EQ(sim.EventsProcessed(), 1u);  // cancelled events never fire
  EXPECT_EQ(sim.EventsCancelled(), 1u);
  EXPECT_EQ(sim.EventsScheduled(), 2u);
}

TEST(TimerCancelTest, CancelIsIdempotentAndStaleAfterFiring) {
  Simulation sim;
  const auto h = sim.ScheduleAt(Seconds(1), []() {});
  EXPECT_TRUE(sim.Cancel(h));
  EXPECT_FALSE(sim.Cancel(h));  // double cancel

  const auto h2 = sim.ScheduleAt(Seconds(1), []() {});
  sim.RunUntil(Seconds(2));
  EXPECT_FALSE(sim.Cancel(h2));  // already fired
  EXPECT_FALSE(sim.Cancel(Simulation::TimerHandle{}));  // never scheduled
}

TEST(TimerCancelTest, SlotReuseIsAbaSafe) {
  Simulation sim;
  bool old_fired = false, new_fired = false;
  const auto stale = sim.ScheduleAt(Seconds(1), [&]() { old_fired = true; });
  ASSERT_TRUE(sim.Cancel(stale));
  // The freed slot is reused immediately (LIFO free list); the stale handle
  // must not be able to touch the new occupant.
  const auto fresh = sim.ScheduleAt(Seconds(1), [&]() { new_fired = true; });
  EXPECT_EQ(fresh.slot, stale.slot);
  EXPECT_NE(fresh.gen, stale.gen);
  EXPECT_FALSE(sim.Cancel(stale));
  EXPECT_FALSE(sim.Reschedule(stale, Seconds(5)));
  sim.RunUntil(Seconds(2));
  EXPECT_FALSE(old_fired);
  EXPECT_TRUE(new_fired);
}

TEST(TimerCancelTest, RescheduleMovesEventToFreshTieBreakPosition) {
  Simulation sim;
  std::vector<char> order;
  const auto ha = sim.ScheduleAt(Seconds(1), [&]() { order.push_back('a'); });
  sim.ScheduleAt(Seconds(2), [&]() { order.push_back('b'); });
  // Moving 'a' onto 'b''s time slots it BEHIND 'b': a reschedule reads as
  // cancel + schedule, so the event goes to the back of the tie.
  EXPECT_TRUE(sim.Reschedule(ha, Seconds(2)));
  sim.RunUntil(Seconds(3));
  EXPECT_EQ(order, (std::vector<char>{'b', 'a'}));
}

TEST(TimerCancelTest, ReschedulePastClampsToNow) {
  Simulation sim;
  sim.ScheduleAt(Seconds(5), []() {});
  sim.RunUntil(Seconds(4));
  SimTime fired_at = -1;
  // Can't happen "yesterday"; fires at the current clock instead.
  const auto h = sim.ScheduleAt(Seconds(6), [&]() { fired_at = sim.Now(); });
  EXPECT_TRUE(sim.Reschedule(h, Seconds(1)));
  sim.RunUntil(Seconds(10));
  EXPECT_EQ(fired_at, Seconds(4));
}

TEST(TimerCancelTest, PeriodicCancelStopsFirings) {
  Simulation sim;
  int fires = 0;
  const auto h = sim.SchedulePeriodic(Seconds(1), Seconds(1), [&]() { ++fires; });
  sim.RunUntil(Seconds(3));
  EXPECT_EQ(fires, 3);
  EXPECT_TRUE(sim.Cancel(h));
  sim.RunUntil(Seconds(10));
  EXPECT_EQ(fires, 3);
  EXPECT_EQ(sim.PendingEvents(), 0u);
}

TEST(TimerCancelTest, PeriodicCanCancelItselfFromItsOwnCallback) {
  Simulation sim;
  int fires = 0;
  Simulation::TimerHandle h;
  h = sim.SchedulePeriodic(Seconds(1), Seconds(1), [&]() {
    if (++fires == 3) {
      EXPECT_TRUE(sim.Cancel(h));
      EXPECT_FALSE(sim.Cancel(h));  // second cancel inside the callback
    }
  });
  sim.RunUntil(Seconds(10));
  EXPECT_EQ(fires, 3);
  EXPECT_EQ(sim.PendingEvents(), 0u);
  EXPECT_FALSE(sim.Cancel(h));  // handle dead once the slot is freed
}

TEST(TimerCancelTest, PeriodicRescheduleShiftsNextFiringOnly) {
  Simulation sim;
  std::vector<SimTime> fires;
  const auto h = sim.SchedulePeriodic(Seconds(1), Seconds(1),
                                      [&]() { fires.push_back(sim.Now()); });
  // Delay the first firing to t=3; the period then resumes from there.
  EXPECT_TRUE(sim.Reschedule(h, Seconds(3)));
  sim.RunUntil(Seconds(5));
  EXPECT_EQ(fires, (std::vector<SimTime>{Seconds(3), Seconds(4), Seconds(5)}));
}

TEST(TimerCancelTest, HandleStaysValidAcrossPeriodicRearms) {
  Simulation sim;
  int fires = 0;
  const auto h = sim.SchedulePeriodic(Seconds(1), Seconds(1), [&]() { ++fires; });
  sim.RunUntil(Seconds(2));
  EXPECT_TRUE(sim.Cancel(h));  // same handle, two re-arms later
  sim.RunUntil(Seconds(10));
  EXPECT_EQ(fires, 2);
}

// --- Hard limits ---------------------------------------------------------------

template <typename Fn>
void ExpectLengthError(Fn fn, const std::string& limit) {
  try {
    fn();
    ADD_FAILURE() << "no std::length_error for the " << limit << " limit";
  } catch (const std::length_error& e) {
    EXPECT_NE(std::string(e.what()).find(limit), std::string::npos) << e.what();
  }
}

TEST(SimulationLimitsTest, SequenceNumbersStopBelow2To40) {
  Simulation sim;
  int fires = 0;
  const auto periodic =
      sim.SchedulePeriodic(Seconds(1), Seconds(1), [&]() { ++fires; });
  const auto later = sim.ScheduleAt(Seconds(5), []() {});
  SimulationTestPeer::SetNextSeq(sim, (std::uint64_t{1} << 40) - 1);
  EXPECT_TRUE(sim.ScheduleAt(Seconds(2), []() {}).valid());  // the last seq
  ExpectLengthError([&]() { sim.ScheduleAt(Seconds(3), []() {}); }, "2^40");
  ExpectLengthError([&]() { sim.Reschedule(later, Seconds(6)); }, "2^40");
  EXPECT_EQ(sim.PendingEvents(), 3u);
  EXPECT_TRUE(sim.CheckHeapInvariant());
  // The periodic event fires, then has no seq left for its re-arm. The
  // queue stays consistent: the event is still pending and cancellable.
  ExpectLengthError([&]() { sim.RunUntil(Seconds(1)); }, "2^40");
  EXPECT_EQ(fires, 1);
  EXPECT_TRUE(sim.CheckHeapInvariant());
  EXPECT_TRUE(sim.Cancel(periodic));
  EXPECT_EQ(sim.PendingEvents(), 2u);
}

TEST(SimulationLimitsTest, SlotIdsStopBelow2To24) {
  Simulation sim;
  SimulationTestPeer::ExhaustSlotIds(sim);
  ExpectLengthError([&]() { sim.ScheduleAt(Seconds(1), []() {}); }, "2^24");
  EXPECT_EQ(sim.PendingEvents(), 0u);
  EXPECT_EQ(sim.SlotsFree(), 0u);
}

// --- Property test: random interleavings vs a reference model ---------------

// The engine's pending set must behave exactly like a std::multimap keyed by
// (when, insertion order): schedule inserts at the back of its time's tie
// range, cancel erases, reschedule erases + re-inserts at the back, a
// periodic re-arm re-inserts after its callback, and RunUntil pops in key
// order. `ModelConfig` sets the scale: how many events are pending, how
// wide and how tied their times are, and how many are periodic.
struct ModelConfig {
  std::uint64_t seed = 0;
  int rounds = 0;
  int prefill = 0;              ///< events scheduled before round 0
  int max_ops = 0;              ///< mutations per round: 1..max_ops
  SimTime tie_span = 0;         ///< dense times: now + [0, tie_span] µs
  double wide_frac = 0.0;       ///< share of times drawn from the wide range
  SimTime wide_step = 0;        ///< wide times: now + wide_step * [0, wide_steps]
  std::int64_t wide_steps = 0;
  double periodic_frac = 0.0;   ///< share of schedules that are periodic
  SimTime max_period = 0;       ///< periods: [1, max_period] µs
  double spawn_frac = 0.0;      ///< share of one-shots that schedule a child
  SimTime max_horizon = 0;      ///< each round runs to now + [0, max_horizon]
  int check_every = 1;          ///< CheckHeapInvariant every n mutations
  std::size_t min_pending = 0;  ///< pending count required after each round
};

class ReferenceModel {
 public:
  explicit ReferenceModel(const ModelConfig& config)
      : config_(config), rng_(config.seed) {}

  void Run() {
    for (int i = 0; i < config_.prefill; ++i) Schedule();
    ASSERT_TRUE(sim_.CheckHeapInvariant());
    for (int round = 0; round < config_.rounds; ++round) {
      const int ops = static_cast<int>(rng_.UniformInt(1, config_.max_ops));
      for (int k = 0; k < ops; ++k) {
        const double u = rng_.NextDouble();
        if (u < 0.55 || live_.empty()) {
          Schedule();
        } else if (u < 0.8) {
          // Cancel a random live event.
          const std::size_t at = PickLive();
          const int token = live_[at];
          ASSERT_TRUE(sim_.Cancel(events_[token].handle));
          EXPECT_FALSE(sim_.Cancel(events_[token].handle));
          EraseFromModel(token);
          events_[token].alive = false;
          live_[at] = live_.back();
          live_.pop_back();
        } else {
          // Reschedule a random live event: same token, fresh tie position.
          const int token = live_[PickLive()];
          const SimTime when = DrawWhen();
          ASSERT_TRUE(sim_.Reschedule(events_[token].handle, when));
          EraseFromModel(token);
          Insert(token, when);
        }
        if ((k + 1) % config_.check_every == 0) {
          ASSERT_TRUE(sim_.CheckHeapInvariant()) << "round " << round;
        }
      }
      const SimTime horizon = sim_.Now() + rng_.UniformInt(0, config_.max_horizon);
      ASSERT_NO_FATAL_FAILURE(RunAndCompare(horizon)) << "round " << round;
      ASSERT_GE(sim_.PendingEvents(), config_.min_pending) << "round " << round;
    }
    // Drain whatever is left. Periodic events with no firing limit are
    // cancelled first and one-shots stop spawning, so the drain ends.
    config_.spawn_frac = 0.0;
    for (std::size_t i = 0; i < live_.size(); ++i) {
      const int token = live_[i];
      if (events_[token].fires_left < 0) {
        ASSERT_TRUE(sim_.Cancel(events_[token].handle));
        EraseFromModel(token);
        events_[token].alive = false;
      }
    }
    ASSERT_NO_FATAL_FAILURE(RunAndCompare(model_.empty()
                                              ? sim_.Now()
                                              : model_.rbegin()->first.first +
                                                    config_.max_period * 8));
    EXPECT_EQ(sim_.PendingEvents(), 0u);
    EXPECT_TRUE(model_.empty());
    ASSERT_TRUE(sim_.CheckHeapInvariant());
  }

 private:
  using Key = std::pair<SimTime, std::uint64_t>;
  struct Event {
    Simulation::TimerHandle handle;
    Key key;
    SimTime period = 0;  ///< 0 = one-shot
    int fires_left = 0;  ///< periodic: firings before it cancels itself; -1 = never
    bool alive = true;
  };

  SimTime DrawWhen() {
    if (rng_.NextDouble() < config_.wide_frac) {
      return sim_.Now() + config_.wide_step * rng_.UniformInt(0, config_.wide_steps);
    }
    return sim_.Now() + rng_.UniformInt(0, config_.tie_span);
  }

  std::size_t PickLive() {
    return static_cast<std::size_t>(
        rng_.UniformInt(0, static_cast<std::int64_t>(live_.size()) - 1));
  }

  void Insert(int token, SimTime when) {
    events_[token].key = Key{when, order_++};
    model_.emplace(events_[token].key, token);
  }

  void EraseFromModel(int token) {
    const auto it = model_.find(events_[token].key);
    ASSERT_TRUE(it != model_.end() && it->second == token);
    model_.erase(it);
  }

  void Schedule() {
    const SimTime when = DrawWhen();
    Event event;
    if (rng_.NextDouble() < config_.periodic_frac) {
      event.period = rng_.UniformInt(1, config_.max_period);
      event.fires_left = rng_.NextDouble() < 0.5
                             ? static_cast<int>(rng_.UniformInt(1, 8))
                             : -1;
    }
    Add(event, when);
  }

  /// Schedules `event` in the engine and the model (the model takes the
  /// same seq position: one per schedule call).
  void Add(Event event, SimTime when) {
    const int token = static_cast<int>(events_.size());
    auto fire = [this, token]() { Fire(token); };
    event.handle = event.period > 0 ? sim_.SchedulePeriodic(when, event.period, fire)
                                    : sim_.ScheduleAt(when, fire);
    events_.push_back(event);
    Insert(token, when);
    live_.push_back(token);
  }

  void Fire(int token) {
    fired_.push_back(token);
    Event& event = events_[token];
    if (event.period == 0) {
      event.alive = false;
      // Children are scheduled from inside the callback, so their seqs come
      // before any later periodic re-arm.
      if (rng_.NextDouble() < config_.spawn_frac) Add(Event{}, DrawWhen());
      return;
    }
    if (event.fires_left > 0 && --event.fires_left == 0) {
      EXPECT_TRUE(sim_.Cancel(event.handle));  // self-cancel stops the re-arm
      EXPECT_FALSE(sim_.Cancel(event.handle));
      EXPECT_FALSE(sim_.Reschedule(event.handle, sim_.Now()));
      event.alive = false;
      return;
    }
    // The engine re-arms after this callback returns, taking the next seq.
    Insert(token, sim_.Now() + event.period);
  }

  /// Runs to `horizon` and checks the fired tokens against the model's pop
  /// order (including re-arms and children added during the run).
  void RunAndCompare(SimTime horizon) {
    fired_.clear();
    sim_.RunUntil(horizon);
    ASSERT_TRUE(sim_.CheckHeapInvariant());
    std::vector<int> expected;
    while (!model_.empty() && model_.begin()->first.first <= horizon) {
      expected.push_back(model_.begin()->second);
      model_.erase(model_.begin());
    }
    ASSERT_EQ(fired_, expected);
    for (const int token : fired_) {
      if (!events_[token].alive) {
        EXPECT_FALSE(sim_.Cancel(events_[token].handle));  // stale once done
      }
    }
    DropDead();
    EXPECT_EQ(sim_.PendingEvents(), model_.size());
    EXPECT_EQ(live_.size(), model_.size());
  }

  void DropDead() {
    std::size_t kept = 0;
    for (const int token : live_) {
      if (events_[token].alive) live_[kept++] = token;
    }
    live_.resize(kept);
  }

  ModelConfig config_;
  Rng rng_;
  Simulation sim_;
  std::multimap<Key, int> model_;
  std::vector<Event> events_;  ///< by token
  std::vector<int> live_;      ///< tokens pending in the engine
  std::vector<int> fired_;
  std::uint64_t order_ = 0;  ///< mirrors the engine's seq allocation order
};

TEST(TimerQueueProperty, MatchesMultimapReferenceModel) {
  ModelConfig config;
  config.seed = 0x70F4;
  config.rounds = 300;
  config.max_ops = 8;
  config.tie_span = 200;  // small time range on purpose: dense tie collisions
  config.periodic_frac = 0.1;
  config.max_period = 50;
  config.spawn_frac = 0.2;
  config.max_horizon = 120;
  ReferenceModel(config).Run();
}

// The same model at the scale of a large closed-loop run: 60k+ pending
// events, so sifts cross many cache-line groups and go 8+ levels deep. Times
// mix a dense tied range with a wide range quantised to 1 ms steps (~3 ties
// per step), and periodic events re-arm, reschedule and cancel themselves.
TEST(TimerQueueProperty, MatchesReferenceModelAtScale) {
  ModelConfig config;
  config.seed = 0x5CA1E;
  config.rounds = 40;
  config.prefill = 60'000;
  config.max_ops = 4'000;
  config.tie_span = 200;
  config.wide_frac = 0.9;
  config.wide_step = Millis(1);
  config.wide_steps = 20'000;
  config.periodic_frac = 0.01;
  config.max_period = Millis(40);
  config.spawn_frac = 0.3;
  config.max_horizon = Millis(100);
  config.check_every = 500;
  config.min_pending = 50'000;
  ReferenceModel(config).Run();
}

}  // namespace
}  // namespace topfull::des
