// Differential fuzz of the Simulation event core against a naive reference
// model.
//
// The model is a flat vector of (when, seq) records — the simplest
// possible priority queue, obviously correct by inspection. Thousands of
// seeded random operation sequences (schedule at random/duplicate/current
// timestamps, far-future overflow times, cancel of live/fired/bogus
// handles, run-until random boundaries, sorted arrival streams) are applied
// to the Simulation and the model in lockstep; every divergence in
// execution order, Cancel() return value, clock value, or executed/empty
// accounting is a bug in the event core.
//
// A stream is, to the model, just one Schedule per entry at the point the
// stream was taken. Its entries tie with calendar events in both seq
// directions (scheduled before and after the stream), some streams start
// mid-run or are empty, and some entries cancel a calendar event or
// schedule one at the current instant when they fire, so cancels and
// schedules interleave with stream pops inside one RunUntil.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "common/rng.h"

#include "sim/simulation.h"

namespace cackle {
namespace {

/// Naive reference: every pending event as a (when, seq) record in a flat
/// vector, re-scanned on every operation. O(n) everywhere, trivially
/// correct.
class ReferenceModel {
 public:
  /// What a stream entry does when it fires: cancel an event (by model id)
  /// and/or schedule a new one at the current instant.
  struct OnFire {
    bool cancel = false;
    uint64_t cancel_id = 0;
    bool spawn = false;
  };

  uint64_t Schedule(SimTimeMs when) {
    const uint64_t id = next_id_++;
    pending_.push_back(Pending{when, id});
    return id;
  }

  /// Schedules an event that runs `action` when it fires.
  uint64_t Schedule(SimTimeMs when, OnFire action) {
    const uint64_t id = Schedule(when);
    on_fire_[id] = action;
    return id;
  }

  /// Cancel() results of the OnFire actions, in firing order.
  const std::vector<bool>& fire_cancel_results() const {
    return fire_cancel_results_;
  }

  bool Cancel(uint64_t id) {
    for (size_t i = 0; i < pending_.size(); ++i) {
      if (pending_[i].id == id) {
        pending_.erase(pending_.begin() + static_cast<ptrdiff_t>(i));
        return true;
      }
    }
    return false;
  }

  /// Pops every event with when <= until in (when, insertion-id) order and
  /// returns their ids; advances the clock like Simulation::RunUntil
  /// (including the idle advance to `until`).
  std::vector<uint64_t> RunUntil(SimTimeMs until) {
    std::vector<uint64_t> fired = PopReady(until);
    if (until > now_ && pending_.empty()) now_ = until;
    return fired;
  }

  /// Like Simulation::RunToCompletion: drains everything, no idle advance.
  std::vector<uint64_t> RunToCompletion() { return PopReady(kFarFuture); }

  SimTimeMs NowMs() const { return now_; }
  bool empty() const { return pending_.empty(); }
  int64_t executed() const { return executed_; }
  SimTimeMs MaxPendingTime() const {
    SimTimeMs max_when = 0;
    for (const Pending& p : pending_) max_when = std::max(max_when, p.when);
    return max_when;
  }

  static constexpr SimTimeMs kFarFuture = SimTimeMs{1} << 60;

 private:
  struct Pending {
    SimTimeMs when;
    uint64_t id;
  };

  std::vector<uint64_t> PopReady(SimTimeMs until) {
    std::vector<uint64_t> fired;
    for (;;) {
      size_t best = pending_.size();
      for (size_t i = 0; i < pending_.size(); ++i) {
        if (pending_[i].when > until) continue;
        if (best == pending_.size() ||
            pending_[i].when < pending_[best].when ||
            (pending_[i].when == pending_[best].when &&
             pending_[i].id < pending_[best].id)) {
          best = i;
        }
      }
      if (best == pending_.size()) break;
      now_ = pending_[best].when;
      const uint64_t id = pending_[best].id;
      fired.push_back(id);
      ++executed_;
      pending_.erase(pending_.begin() + static_cast<ptrdiff_t>(best));
      const auto action = on_fire_.find(id);
      if (action != on_fire_.end()) {
        if (action->second.cancel) {
          fire_cancel_results_.push_back(Cancel(action->second.cancel_id));
        }
        if (action->second.spawn) Schedule(now_);
      }
    }
    return fired;
  }
  std::vector<Pending> pending_;
  std::map<uint64_t, OnFire> on_fire_;
  std::vector<bool> fire_cancel_results_;
  uint64_t next_id_ = 0;
  SimTimeMs now_ = 0;
  int64_t executed_ = 0;
};

/// One fuzzed episode: random interleaving of schedules, cancels, streams
/// and run-until steps applied to `sim` and the model in lockstep.
void RunEpisode(uint64_t seed) {
  Rng rng(seed);
  SimOptions opts;
  // Small thresholds/geometry so fuzzing exercises resizes & compactions.
  opts.initial_bucket_count = 8;
  opts.initial_bucket_width_ms = 4;
  opts.min_compaction_tombstones = 16;
  Simulation sim(opts);
  ReferenceModel model;

  // sim handle -> model id for every calendar event, kept forever so
  // cancel-after-fire and double-cancel are exercised.
  std::vector<std::pair<uint64_t, uint64_t>> handles;
  std::vector<uint64_t> fired_model_ids;
  // The model id the next sim-side schedule corresponds to. Ids are
  // assigned in schedule order on both sides, so events spawned by stream
  // entries get matching ids iff the two run in the same order.
  uint64_t next_model_id = 0;
  const auto schedule = [&](SimTimeMs when) {
    const uint64_t model_id = next_model_id++;
    const uint64_t sim_id = sim.ScheduleAt(
        when, [&fired_model_ids, model_id] {
          fired_model_ids.push_back(model_id);
        });
    handles.emplace_back(sim_id, model_id);
  };

  // The pending stream, if any: entry i fires as model id first_id + i and
  // runs its OnFire action against the sim.
  struct StreamItem {
    ReferenceModel::OnFire action;
    uint64_t cancel_handle = 0;
  };
  std::vector<StreamItem> stream_items;
  uint64_t stream_first_id = 0;
  int64_t stream_pending = 0;
  std::vector<bool> sim_fire_cancel_results;
  const auto on_stream_entry = [&](int64_t i) {
    const StreamItem& item = stream_items[static_cast<size_t>(i)];
    fired_model_ids.push_back(stream_first_id + static_cast<uint64_t>(i));
    --stream_pending;
    if (item.action.cancel) {
      sim_fire_cancel_results.push_back(sim.Cancel(item.cancel_handle));
    }
    if (item.action.spawn) schedule(sim.NowMs());
  };

  const int ops = 200 + static_cast<int>(rng.NextBounded(400));
  for (int op = 0; op < ops; ++op) {
    const uint64_t dice = rng.NextBounded(100);
    if (dice < 52) {
      // Schedule: biased toward the near future with bursts of duplicate
      // timestamps, schedule-at-now, and rare far-future overflow times.
      // Multiples of 4 collide often with stream entry times.
      SimTimeMs when;
      const uint64_t kind = rng.NextBounded(10);
      if (kind == 0) {
        when = sim.NowMs();  // schedule-at-now
      } else if (kind == 1) {
        when = sim.NowMs() + 1'000'000'000 +
               static_cast<SimTimeMs>(rng.NextBounded(1'000'000'000));
      } else if (kind == 3) {
        when = sim.NowMs() + 4 * static_cast<SimTimeMs>(rng.NextBounded(64));
      } else {
        when = sim.NowMs() + static_cast<SimTimeMs>(rng.NextBounded(500));
      }
      const int burst = kind == 2 ? 1 + static_cast<int>(rng.NextBounded(5))
                                  : 1;
      for (int b = 0; b < burst; ++b) {
        model.Schedule(when);
        schedule(when);
      }
    } else if (dice < 74 && !handles.empty()) {
      // Cancel a random handle — may be live, fired, or already cancelled;
      // the return values must agree exactly.
      const auto& [sim_id, model_id] =
          handles[rng.NextBounded(handles.size())];
      ASSERT_EQ(sim.Cancel(sim_id), model.Cancel(model_id))
          << "Cancel divergence, seed " << seed;
    } else if (dice < 76) {
      // Bogus handle: never issued (or from the far future of the id
      // space). Both must reject it.
      ASSERT_FALSE(sim.Cancel(~uint64_t{0} - rng.NextBounded(1000)));
    } else if (dice < 80 && stream_pending == 0) {
      // A sorted stream (possibly empty) taken mid-run: times at now, on
      // the multiple-of-4 grid calendar events favor, and rarely far out.
      const size_t n = static_cast<size_t>(rng.NextBounded(12));
      std::vector<SimTimeMs> times(n);
      for (SimTimeMs& t : times) {
        t = rng.NextBounded(8) == 0
                ? sim.NowMs() + 1'000'000'000 +
                      4 * static_cast<SimTimeMs>(rng.NextBounded(8))
                : sim.NowMs() + 4 * static_cast<SimTimeMs>(rng.NextBounded(
                                        rng.NextBernoulli(0.2) ? 1 : 64));
      }
      std::sort(times.begin(), times.end());
      stream_items.assign(n, StreamItem{});
      stream_first_id = next_model_id;
      std::vector<Simulation::StreamEntry> entries;
      for (size_t i = 0; i < n; ++i) {
        StreamItem& item = stream_items[i];
        if (!handles.empty() && rng.NextBounded(3) == 0) {
          const auto& [sim_id, model_id] =
              handles[rng.NextBounded(handles.size())];
          item.action.cancel = true;
          item.action.cancel_id = model_id;
          item.cancel_handle = sim_id;
        }
        item.action.spawn = rng.NextBounded(4) == 0;
        model.Schedule(times[i], item.action);
        entries.push_back({times[i], static_cast<int64_t>(i)});
      }
      next_model_id += n;
      stream_pending = static_cast<int64_t>(n);
      sim.ScheduleStream(std::move(entries), on_stream_entry);
    } else if (dice < 81) {
      // Cancel every calendar handle, so often only stream entries remain
      // and RunUntil's idle clock advance must wait for them.
      for (const auto& [sim_id, model_id] : handles) {
        ASSERT_EQ(sim.Cancel(sim_id), model.Cancel(model_id))
            << "Cancel divergence, seed " << seed;
      }
    } else {
      // Run until a random boundary (occasionally far ahead, draining
      // the overflow).
      const SimTimeMs until =
          rng.NextBounded(20) == 0
              ? model.MaxPendingTime() + 1
              : sim.NowMs() + static_cast<SimTimeMs>(rng.NextBounded(400));
      fired_model_ids.clear();
      const std::vector<uint64_t> expected = model.RunUntil(until);
      const int64_t ran = sim.RunUntil(until);
      ASSERT_EQ(static_cast<size_t>(ran), expected.size())
          << "run count divergence, seed " << seed;
      ASSERT_EQ(fired_model_ids, expected)
          << "execution order divergence, seed " << seed;
      ASSERT_EQ(sim.NowMs(), model.NowMs())
          << "clock divergence, seed " << seed;
      ASSERT_EQ(sim_fire_cancel_results, model.fire_cancel_results())
          << "in-stream Cancel divergence, seed " << seed;
    }
    ASSERT_EQ(sim.empty(), model.empty()) << "empty() divergence, seed "
                                          << seed;
    ASSERT_EQ(sim.executed_events(), model.executed())
        << "executed_events() divergence, seed " << seed;
  }

  // Drain: everything left must fire, in model order.
  fired_model_ids.clear();
  const std::vector<uint64_t> expected = model.RunToCompletion();
  sim.RunToCompletion();
  ASSERT_EQ(fired_model_ids, expected) << "drain divergence, seed " << seed;
  ASSERT_EQ(sim_fire_cancel_results, model.fire_cancel_results())
      << "in-stream Cancel divergence, seed " << seed;
  ASSERT_TRUE(sim.empty());
  ASSERT_EQ(sim.executed_events(), model.executed());
}

TEST(SchedulerFuzzTest, ThousandsOfEpisodesMatchReferenceModel) {
  // ~1500 episodes x ~400 ops: several hundred thousand operations, with
  // tiny calendar geometry so resizes, overflow migrations, and compactions
  // all trigger constantly.
  for (uint64_t seed = 1; seed <= 1500; ++seed) {
    RunEpisode(seed * 2654435761u);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace cackle
