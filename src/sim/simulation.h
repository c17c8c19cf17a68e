#ifndef CACKLE_SIM_SIMULATION_H_
#define CACKLE_SIM_SIMULATION_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/inline_function.h"

namespace cackle {

/// Simulated time in milliseconds since the start of the workload. All cloud
/// substrate and engine components operate in simulated time; nothing in the
/// library reads the wall clock.
using SimTimeMs = int64_t;

constexpr SimTimeMs kMillisPerSecond = 1000;
constexpr SimTimeMs kMillisPerMinute = 60 * kMillisPerSecond;
constexpr SimTimeMs kMillisPerHour = 60 * kMillisPerMinute;

constexpr double MsToSeconds(SimTimeMs ms) {
  return static_cast<double>(ms) / 1000.0;
}
constexpr SimTimeMs SecondsToMs(double seconds) {
  return static_cast<SimTimeMs>(seconds * 1000.0 + 0.5);
}

/// Tuning for the simulation kernel. Defaults are right for every workload
/// in this repo; the knobs exist for tests and benchmarks.
struct SimOptions {
  /// Calendar-wheel starting geometry. Both are rounded up to powers of
  /// two; the wheel re-sizes itself (bucket count from the live event
  /// population, never below the starting count; bucket width from the
  /// live event-time span) as the population grows or thins, so these
  /// only set the start.
  int initial_bucket_count = 1024;
  SimTimeMs initial_bucket_width_ms = 16;

  /// Lazy tombstone compaction: a cancelled event frees its node
  /// immediately but leaves a stale (slot, generation) entry in the queue
  /// structure. A sweep removes all stale entries once their count exceeds
  /// both this floor and 2x the live event count, so mass-cancel workloads
  /// cannot grow the queue unboundedly.
  int64_t min_compaction_tombstones = 1024;
};

/// \brief Discrete-event simulation kernel.
///
/// Events are closures executed in (time, insertion-sequence) order, so
/// simultaneous events run deterministically in the order they were
/// scheduled. Components (VM fleet, elastic pool, coordinator, shuffle
/// layer) share one Simulation and interact only through scheduled events.
///
/// Event handles returned by ScheduleAt/ScheduleAfter are generation
/// checked: Cancel() on a handle whose event already fired (or whose
/// storage slot has since been recycled) safely returns false.
///
/// A workload's arrival schedule — known up front, already in time order,
/// never cancelled — goes through ScheduleStream instead: a flat sorted
/// array beside the calendar wheel, so the wheel holds only near-term work
/// and sizes its buckets to that work's density.
class Simulation {
 public:
  /// Event closures are small-buffer-optimized and move-only; anything
  /// callable as void() converts implicitly, without a heap allocation for
  /// captures up to 48 bytes.
  using Callback = InlineFunction<48>;

  /// One stream event: run the stream handler on `index` at `when`.
  struct StreamEntry {
    SimTimeMs when;
    int64_t index;
  };
  using StreamHandler = std::function<void(int64_t index)>;

  /// Lifetime counters for observability and bounded-memory tests. All
  /// values are cumulative except peak_queue_entries.
  struct Stats {
    /// Events scheduled, stream entries included.
    int64_t scheduled = 0;
    int64_t cancelled = 0;
    /// Tombstone sweeps triggered by the lazy-compaction threshold.
    int64_t compactions = 0;
    /// Stale (cancelled) queue entries physically removed by sweeps.
    int64_t tombstones_purged = 0;
    /// Calendar geometry rebuilds (bucket doubling / width re-derivation).
    int64_t calendar_resizes = 0;
    /// Entries migrated from the far-future overflow into the wheel.
    int64_t overflow_migrations = 0;
    /// High-water mark of queue_entries().
    int64_t peak_queue_entries = 0;
  };

  Simulation();
  explicit Simulation(const SimOptions& options);
  ~Simulation();
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  SimTimeMs NowMs() const { return now_; }

  /// Schedules `cb` at absolute simulated time `when` (>= NowMs()).
  /// Returns an event handle usable with Cancel().
  uint64_t ScheduleAt(SimTimeMs when, Callback cb);

  /// Schedules `cb` `delay` milliseconds from now.
  uint64_t ScheduleAfter(SimTimeMs delay, Callback cb) {
    return ScheduleAt(now_ + delay, std::move(cb));
  }

  /// Schedules every entry in one call: entry i runs `handler(index)` at
  /// its `when`, in exactly the order `entries.size()` ScheduleAt calls made
  /// now, in array order, would run. The call reserves those calls'
  /// sequence numbers (entry i gets the i-th), so ties against wheel events
  /// break the same way. `entries` must be sorted by `when`, none before
  /// NowMs(), and no earlier stream may still be pending. Stream events
  /// count as scheduled and executed but cannot be cancelled.
  void ScheduleStream(std::vector<StreamEntry> entries, StreamHandler handler);

  /// Cancels a pending event. Returns false if the event already ran or was
  /// already cancelled.
  bool Cancel(uint64_t event_id);

  /// Runs events until the queue is empty or simulated time would pass
  /// `until` (inclusive). Returns the number of events executed.
  int64_t RunUntil(SimTimeMs until);

  /// Runs until no events remain.
  int64_t RunToCompletion();

  bool empty() const { return live_events_ == 0; }
  int64_t executed_events() const { return executed_; }

  const Stats& stats() const { return stats_; }

  /// Entries currently resident in the event structures: pending stream
  /// entries plus the calendar queue's, including cancelled tombstones
  /// awaiting lazy compaction. Test hook for the bounded-memory guarantee.
  int64_t queue_entries() const;

 private:
  class CalendarQueue;

  /// Runs events up to and including `until`; shared by RunUntil and
  /// RunToCompletion.
  int64_t Drain(SimTimeMs until);
  /// Runs the stream head.
  void RunStreamHead();

  SimTimeMs now_ = 0;
  uint64_t next_seq_ = 0;
  int64_t live_events_ = 0;
  int64_t executed_ = 0;
  Stats stats_;
  std::unique_ptr<CalendarQueue> queue_;
  /// Pending stream: entries [stream_head_, size) are live; entry i holds
  /// sequence number stream_seq_ + i.
  std::vector<StreamEntry> stream_;
  size_t stream_head_ = 0;
  uint64_t stream_seq_ = 0;
  StreamHandler stream_handler_;
};

}  // namespace cackle

#endif  // CACKLE_SIM_SIMULATION_H_
