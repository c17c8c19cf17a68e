#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"

#include "sim/simulation.h"

namespace cackle {
namespace {

TEST(SimulationTest, RunsEventsInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.ScheduleAt(300, [&] { order.push_back(3); });
  sim.ScheduleAt(100, [&] { order.push_back(1); });
  sim.ScheduleAt(200, [&] { order.push_back(2); });
  sim.RunToCompletion();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.NowMs(), 300);
}

TEST(SimulationTest, SimultaneousEventsRunInScheduleOrder) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.ScheduleAt(50, [&order, i] { order.push_back(i); });
  }
  sim.RunToCompletion();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(SimulationTest, EventsCanScheduleMoreEvents) {
  Simulation sim;
  int count = 0;
  std::function<void()> chain = [&] {
    ++count;
    if (count < 5) sim.ScheduleAfter(10, chain);
  };
  sim.ScheduleAt(0, chain);
  sim.RunToCompletion();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(sim.NowMs(), 40);
}

TEST(SimulationTest, CancelPreventsExecution) {
  Simulation sim;
  bool ran = false;
  const uint64_t id = sim.ScheduleAt(100, [&] { ran = true; });
  EXPECT_TRUE(sim.Cancel(id));
  EXPECT_FALSE(sim.Cancel(id));  // double-cancel reports failure
  sim.RunToCompletion();
  EXPECT_FALSE(ran);
}

TEST(SimulationTest, CancelAfterFireReturnsFalse) {
  Simulation sim;
  int ran = 0;
  const uint64_t id = sim.ScheduleAt(100, [&] { ++ran; });
  sim.RunToCompletion();
  EXPECT_EQ(ran, 1);
  // The handle is stale: the event already fired (and its arena slot may
  // have been recycled since).
  EXPECT_FALSE(sim.Cancel(id));
  EXPECT_EQ(ran, 1);
}

TEST(SimulationTest, StaleHandleAfterSlotReuseIsRejected) {
  Simulation sim;
  const uint64_t first = sim.ScheduleAt(10, [] {});
  sim.RunToCompletion();
  // Schedule more events; the scheduler will recycle the fired event's
  // arena slot. The old handle must not cancel the new occupant.
  bool second_ran = false;
  sim.ScheduleAt(20, [&] { second_ran = true; });
  EXPECT_FALSE(sim.Cancel(first));
  sim.RunToCompletion();
  EXPECT_TRUE(second_ran);
}

TEST(SimulationTest, RunUntilStopsAtBoundary) {
  Simulation sim;
  std::vector<SimTimeMs> fired;
  for (SimTimeMs t : {10, 20, 30, 40}) {
    sim.ScheduleAt(t, [&fired, &sim] { fired.push_back(sim.NowMs()); });
  }
  sim.RunUntil(25);
  EXPECT_EQ(fired, (std::vector<SimTimeMs>{10, 20}));
  EXPECT_FALSE(sim.empty());
  sim.RunToCompletion();
  EXPECT_EQ(fired.size(), 4u);
}

TEST(SimulationTest, RunUntilAdvancesClockWhenIdle) {
  Simulation sim;
  sim.RunUntil(5000);
  EXPECT_EQ(sim.NowMs(), 5000);
}

TEST(SimulationTest, ManyEventsStayDeterministic) {
  Simulation sim;
  int64_t sum = 0;
  for (int i = 0; i < 100000; ++i) {
    sim.ScheduleAt((i * 7919) % 1000, [&sum, i] { sum += i; });
  }
  sim.RunToCompletion();
  EXPECT_EQ(sum, 100000LL * 99999 / 2);
  EXPECT_EQ(sim.executed_events(), 100000);
}

TEST(SimulationTest, CancelInterleavedWithExecution) {
  Simulation sim;
  int ran = 0;
  std::vector<uint64_t> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(sim.ScheduleAt(i * 10, [&] { ++ran; }));
  }
  // Cancel every other event from inside an early event.
  sim.ScheduleAt(1, [&] {
    for (size_t i = 0; i < ids.size(); i += 2) sim.Cancel(ids[i]);
  });
  sim.RunToCompletion();
  // Event 0 ran before the cancel event at t=1; the 50 odd-indexed events
  // survive; even-indexed events 2..98 were cancelled.
  EXPECT_EQ(ran, 51);
}

TEST(SimulationTest, FarFutureEventsExecuteInOrder) {
  // Exercises the calendar overflow heap and wheel fast-forward: event
  // times span ten orders of magnitude, far beyond the initial horizon.
  Simulation sim;
  std::vector<SimTimeMs> fired;
  const std::vector<SimTimeMs> times = {
      5, 50'000'000'000, 1'000, 3'000'000'000'000, 70, 3'000'000'000'000,
      999'999'999};
  for (SimTimeMs t : times) {
    sim.ScheduleAt(t, [&fired, &sim] { fired.push_back(sim.NowMs()); });
  }
  sim.RunToCompletion();
  std::vector<SimTimeMs> expected = times;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(fired, expected);
  EXPECT_EQ(sim.NowMs(), 3'000'000'000'000);
}

// ---------------------------------------------------------------------------
// Tombstone accounting regressions: cancelled events must not distort
// executed_events(), keep empty() false, pin the clock, or grow the queue
// structures unboundedly.
// ---------------------------------------------------------------------------

TEST(SimulationTest, CancelledEventsDoNotDistortAccounting) {
  Simulation sim;
  std::vector<uint64_t> ids;
  for (int i = 0; i < 10; ++i) {
    ids.push_back(sim.ScheduleAt(100 + i, [] {}));
  }
  for (uint64_t id : ids) EXPECT_TRUE(sim.Cancel(id));
  // All events are cancelled: the simulation is logically empty even though
  // tombstones may still be resident in the queue structure.
  EXPECT_TRUE(sim.empty());
  sim.RunToCompletion();
  EXPECT_EQ(sim.executed_events(), 0);
  EXPECT_TRUE(sim.empty());
}

TEST(SimulationTest, TombstonesDoNotPinTheClock) {
  Simulation sim;
  const uint64_t id = sim.ScheduleAt(10'000, [] {});
  EXPECT_TRUE(sim.Cancel(id));
  // Only a tombstone remains; RunUntil owes the caller the full interval.
  sim.RunUntil(500);
  EXPECT_EQ(sim.NowMs(), 500);
}

TEST(SimulationTest, MassCancelTriggersLazyCompaction) {
  SimOptions opts;
  opts.min_compaction_tombstones = 256;
  Simulation sim(opts);
  // One survivor plus a large batch of victims.
  bool survivor_ran = false;
  sim.ScheduleAt(1'000'000, [&] { survivor_ran = true; });
  std::vector<uint64_t> ids;
  for (int i = 0; i < 20'000; ++i) {
    ids.push_back(sim.ScheduleAt(1'000 + i, [] {}));
  }
  for (uint64_t id : ids) EXPECT_TRUE(sim.Cancel(id));
  // The compaction threshold (max(min_compaction_tombstones, 2x live)) must
  // have swept the dead entries: with 1 live event, resident entries cannot
  // exceed the floor plus the live population.
  EXPECT_LE(sim.queue_entries(), opts.min_compaction_tombstones + 1);
  EXPECT_GT(sim.stats().compactions, 0);
  EXPECT_GT(sim.stats().tombstones_purged, 0);
  EXPECT_EQ(sim.stats().cancelled, 20'000);
  sim.RunToCompletion();
  EXPECT_TRUE(survivor_ran);
  EXPECT_EQ(sim.executed_events(), 1);
}

TEST(SimulationTest, RepeatedCancelWavesKeepQueueBounded) {
  SimOptions opts;
  opts.min_compaction_tombstones = 128;
  Simulation sim(opts);
  int64_t peak_entries = 0;
  for (int wave = 0; wave < 50; ++wave) {
    std::vector<uint64_t> ids;
    for (int i = 0; i < 1'000; ++i) {
      ids.push_back(sim.ScheduleAfter(10 + i, [] {}));
    }
    for (uint64_t id : ids) EXPECT_TRUE(sim.Cancel(id));
    peak_entries = std::max(peak_entries, sim.queue_entries());
  }
  // 50k schedule/cancel pairs total; resident entries must stay near the
  // per-wave population, not accumulate across waves.
  EXPECT_LE(peak_entries, 4'000);
  EXPECT_TRUE(sim.empty());
  sim.RunToCompletion();
  EXPECT_EQ(sim.executed_events(), 0);
}

// ---------------------------------------------------------------------------
// Sorted arrival stream: merged with the calendar queue by (when, seq), as if
// every entry had been a ScheduleAt call at the point the stream was taken.
// ---------------------------------------------------------------------------

TEST(SimulationStreamTest, MergesWithQueueInScheduleOrder) {
  Simulation sim;
  std::vector<std::string> order;
  const auto log = [&order](std::string tag) {
    return [&order, tag] { order.push_back(tag); };
  };
  sim.ScheduleAt(20, log("before@20"));  // seq before the stream: wins ties
  sim.ScheduleStream({{10, 0}, {20, 1}, {20, 2}, {30, 3}},
                     [&order](int64_t i) {
                       std::string tag = "s";
                       tag += std::to_string(i);
                       order.push_back(std::move(tag));
                     });
  sim.ScheduleAt(20, log("after@20"));  // seq after the stream: loses ties
  sim.ScheduleAt(15, log("after@15"));
  sim.RunToCompletion();
  EXPECT_EQ(order, (std::vector<std::string>{"s0", "after@15", "before@20",
                                             "s1", "s2", "after@20", "s3"}));
  EXPECT_EQ(sim.NowMs(), 30);
}

TEST(SimulationStreamTest, CountsAsScheduledAndExecuted) {
  Simulation sim;
  int64_t sum = 0;
  sim.ScheduleStream({{5, 1}, {5, 2}, {9, 4}},
                     [&sum](int64_t i) { sum += i; });
  EXPECT_FALSE(sim.empty());
  EXPECT_EQ(sim.stats().scheduled, 3);
  EXPECT_EQ(sim.queue_entries(), 3);
  EXPECT_EQ(sim.stats().peak_queue_entries, 3);
  // The boundary falls between stream entries; pending stream entries are
  // live, so the clock stops at the last one run.
  EXPECT_EQ(sim.RunUntil(7), 2);
  EXPECT_EQ(sim.NowMs(), 5);
  EXPECT_EQ(sim.queue_entries(), 1);
  EXPECT_EQ(sim.RunToCompletion(), 1);
  EXPECT_EQ(sum, 7);
  EXPECT_EQ(sim.executed_events(), 3);
  EXPECT_TRUE(sim.empty());
  EXPECT_EQ(sim.queue_entries(), 0);
}

TEST(SimulationStreamTest, HandlersScheduleEventsAndTheNextStream) {
  Simulation sim;
  std::vector<SimTimeMs> fired;
  sim.ScheduleStream({{100, 0}, {200, 1}}, [&](int64_t i) {
    fired.push_back(sim.NowMs());
    sim.ScheduleAfter(50, [&] { fired.push_back(sim.NowMs()); });
    if (i == 1) {
      // The last entry may hand over to a new stream.
      sim.ScheduleStream({{sim.NowMs(), 7}, {1'000'000, 8}},
                         [&](int64_t) { fired.push_back(-sim.NowMs()); });
    }
  });
  sim.RunToCompletion();
  EXPECT_EQ(fired, (std::vector<SimTimeMs>{100, 150, 200, -200, 250,
                                           -1'000'000}));
  EXPECT_EQ(sim.executed_events(), 6);
}

TEST(SimulationStreamTest, EmptyStreamIsANoOp) {
  Simulation sim;
  sim.ScheduleStream({}, [](int64_t) { FAIL(); });
  EXPECT_TRUE(sim.empty());
  EXPECT_EQ(sim.RunUntil(40), 0);
  EXPECT_EQ(sim.NowMs(), 40);
}

TEST(SimulationStreamDeathTest, RejectsUnsortedStream) {
  Simulation sim;
  EXPECT_DEATH(sim.ScheduleStream({{10, 0}, {30, 1}, {20, 2}},
                                  [](int64_t) {}),
               "stream out of time order");
}

TEST(SimulationStreamDeathTest, RejectsEntryBeforeNow) {
  Simulation sim;
  sim.RunUntil(100);
  EXPECT_DEATH(sim.ScheduleStream({{99, 0}, {200, 1}}, [](int64_t) {}),
               "stream entry before NowMs");
}

TEST(SimulationStreamDeathTest, RejectsSecondPendingStream) {
  Simulation sim;
  sim.ScheduleStream({{10, 0}}, [](int64_t) {});
  EXPECT_DEATH(sim.ScheduleStream({{20, 0}}, [](int64_t) {}),
               "still pending");
}

/// Property: under random scheduling, cancellation, and event-driven
/// re-scheduling, events execute exactly once, in non-decreasing time
/// order, and ties execute in scheduling order.
class SimulationPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SimulationPropertyTest, RandomScheduleExecutesInOrder) {
  Rng rng(GetParam());
  Simulation sim;
  struct Fired {
    SimTimeMs when;
    uint64_t seq;
  };
  std::vector<Fired> fired;
  std::vector<uint64_t> ids;
  std::vector<int> executed(1000, 0);
  for (int i = 0; i < 1000; ++i) {
    const SimTimeMs when = rng.NextInt(0, 5000);
    const uint64_t id = sim.ScheduleAt(when, [&fired, &executed, &sim, i] {
      fired.push_back(Fired{sim.NowMs(), static_cast<uint64_t>(i)});
      ++executed[static_cast<size_t>(i)];
    });
    ids.push_back(id);
  }
  // Cancel a random 20%.
  std::set<size_t> cancelled;
  for (int c = 0; c < 200; ++c) {
    const size_t idx = static_cast<size_t>(rng.NextBounded(ids.size()));
    if (sim.Cancel(ids[idx])) cancelled.insert(idx);
  }
  sim.RunToCompletion();
  EXPECT_EQ(fired.size(), 1000 - cancelled.size());
  for (size_t i = 0; i < executed.size(); ++i) {
    EXPECT_EQ(executed[i], cancelled.count(i) ? 0 : 1) << i;
  }
  for (size_t i = 1; i < fired.size(); ++i) {
    ASSERT_GE(fired[i].when, fired[i - 1].when);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimulationPropertyTest,
                         ::testing::Values(71, 72, 73, 74, 75));

TEST(MsConversionTest, RoundTrips) {
  EXPECT_EQ(SecondsToMs(1.5), 1500);
  EXPECT_DOUBLE_EQ(MsToSeconds(2500), 2.5);
  EXPECT_EQ(kMillisPerHour, 3600000);
}

}  // namespace
}  // namespace cackle
