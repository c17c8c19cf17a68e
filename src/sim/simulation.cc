#include "sim/simulation.h"

#include <algorithm>
#include <limits>
#include <queue>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/logging.h"

namespace cackle {
namespace {

constexpr SimTimeMs kMaxSimTime = std::numeric_limits<SimTimeMs>::max();
constexpr int kMaxBucketCount = 1 << 18;
constexpr SimTimeMs kMaxBucketWidthMs = SimTimeMs{1} << 30;

int64_t RoundUpPow2(int64_t v) {
  int64_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

// ---------------------------------------------------------------------------
// Calendar-queue scheduler: a bucketed wheel over the near future with a
// min-heap overflow for far-future events, arena-allocated event nodes, and
// generation-checked handles. It is the only event queue; a Simulation's
// sorted arrival stream sits beside it, not in it.
//
// Stream/wheel merge: every event, wheel or stream, carries the sequence
// number ScheduleAt would have given it (a stream reserves a contiguous
// range), and PopNext takes an exclusive (when, seq) bound — the stream
// head — so it yields a wheel event only when that event orders before the
// head. The stream is sorted by (when, seq) and the wheel pops in (when,
// seq) order, so the merged run order is the total (when, seq) order: the
// same events run in the same order as if every stream entry had been a
// ScheduleAt call. The full argument lives in DESIGN.md.
//
// Layout invariants:
//  - `batch_` holds the extracted front run, sorted by (when, seq); every
//    batch entry orders strictly before every wheel/overflow entry.
//  - each wheel bucket holds only entries of its *current* window
//    [window, window + width) — far-future events sit in `overflow_` until
//    the advancing horizon migrates them, so buckets never mix revolutions.
//  - within a bucket, entries at equal `when` appear in ascending `seq`
//    order (appends happen in schedule order; migration pops the overflow
//    heap in (when, seq) order before any direct append can occur).
//  - a cancelled event frees its node immediately (generation bump); the
//    queue entry left behind is a tombstone skipped on pop and removed in
//    bulk by the lazy compaction sweep.
// ---------------------------------------------------------------------------

class Simulation::CalendarQueue {
 public:
  CalendarQueue(Stats* stats, const SimOptions& options)
      : stats_(stats), options_(options) {
    bucket_count_ = static_cast<int>(RoundUpPow2(
        std::max(2, options.initial_bucket_count)));
    min_bucket_count_ = bucket_count_;
    width_shift_ = ShiftFor(std::max<SimTimeMs>(1,
        options.initial_bucket_width_ms));
    buckets_.resize(static_cast<size_t>(bucket_count_));
  }

  /// Enqueues an event; returns its cancellation handle. `now` is the
  /// simulation clock (<= when).
  uint64_t Schedule(SimTimeMs now, SimTimeMs when, uint64_t seq,
                    Callback cb) {
    const uint32_t slot = pool_.Alloc();
    Node& node = pool_.at(slot);
    node.cb = std::move(cb);
    node.when = when;
    node.seq = seq;
    node.live = true;
    if (wheel_entries_ == 0 && BatchEmpty() && overflow_.empty()) {
      // Nothing resident: re-anchor the wheel at the clock, so a clock jump
      // (a stream entry far past the last wheel event) does not leave
      // Refill to walk up to a revolution of empty buckets. Every later
      // event is at or after `now`, so none lands before the window.
      window_ = now & ~(Width() - 1);
    }
    Insert(Entry{when, seq, slot, node.gen});
    MaybeResize();
    return MakeId(slot, node.gen);
  }

  /// Cancels a pending event (true iff it was live). The callback is
  /// destroyed immediately; a stale handle (already fired, already
  /// cancelled, or recycled storage) safely returns false.
  bool Cancel(uint64_t id) {
    const uint32_t slot = static_cast<uint32_t>(id & 0xffffffffu);
    const uint32_t gen = static_cast<uint32_t>(id >> 32);
    if (static_cast<size_t>(slot) >= pool_.size()) return false;
    Node& node = pool_.at(slot);
    if (!node.live || node.gen != gen) return false;
    FreeNode(slot, node);
    ++tombstones_;
    MaybeCompact();
    return true;
  }

  /// Pops the earliest live event if it orders strictly before
  /// (limit_when, limit_seq), moving its callback into `*cb`. Returns false
  /// when no live event qualifies.
  bool PopNext(SimTimeMs limit_when, uint64_t limit_seq, SimTimeMs* when,
               Callback* cb) {
    for (;;) {
      while (!BatchEmpty() && IsStale(batch_[batch_head_])) {
        BatchPopFront();
        --tombstones_;
      }
      if (BatchEmpty()) {
        if (!Refill()) return false;
        continue;
      }
      const Entry front = batch_[batch_head_];
      if (front.when > limit_when ||
          (front.when == limit_when && front.seq >= limit_seq)) {
        return false;
      }
      BatchPopFront();
      Node& node = pool_.at(front.slot);
      *when = front.when;
      *cb = std::move(node.cb);
      FreeNode(front.slot, node);
      MaybeResize();
      return true;
    }
  }

  /// Resident entries, including cancelled tombstones.
  int64_t entries() const {
    return wheel_entries_ + static_cast<int64_t>(overflow_.size()) +
           static_cast<int64_t>(batch_.size() - batch_head_);
  }

 private:
  struct Node {
    Callback cb;
    SimTimeMs when = 0;
    uint64_t seq = 0;
    uint32_t gen = 1;
    bool live = false;
  };
  struct Entry {
    SimTimeMs when;
    uint64_t seq;
    uint32_t slot;
    uint32_t gen;
  };
  struct EntryAfter {
    // Min-heap order for the overflow: pop earliest (when, seq) first.
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };
  static bool EntryBefore(const Entry& a, const Entry& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }

  static uint64_t MakeId(uint32_t slot, uint32_t gen) {
    return (static_cast<uint64_t>(gen) << 32) | slot;
  }

  static int ShiftFor(SimTimeMs width) {
    int shift = 0;
    while ((SimTimeMs{1} << shift) < width) ++shift;
    return shift;
  }

  SimTimeMs Width() const { return SimTimeMs{1} << width_shift_; }
  SimTimeMs Horizon() const {
    return window_ + (static_cast<SimTimeMs>(bucket_count_) << width_shift_);
  }
  size_t BucketIndex(SimTimeMs when) const {
    return static_cast<size_t>((when >> width_shift_) &
                               (bucket_count_ - 1));
  }
  bool IsStale(const Entry& e) const {
    const Node& node = pool_.at(e.slot);
    return !node.live || node.gen != e.gen;
  }

  bool BatchEmpty() const { return batch_head_ == batch_.size(); }
  void BatchPopFront() {
    if (++batch_head_ == batch_.size()) {
      batch_.clear();
      batch_head_ = 0;
    }
  }

  void FreeNode(uint32_t slot, Node& node) {
    node.cb.reset();
    node.live = false;
    ++node.gen;
    pool_.Free(slot);
  }

  int64_t LiveCount() const { return entries() - tombstones_; }

  void Insert(const Entry& e) {
    if (!BatchEmpty() && e.when < batch_.back().when) {
      // Precedes part of the already-extracted run: splice it in. Every
      // batch entry orders before the whole wheel, so this preserves the
      // batch invariant; the new event's seq is the largest so far, which
      // upper_bound places after any equal-time batch entries.
      batch_.insert(std::upper_bound(batch_.begin() +
                                         static_cast<ptrdiff_t>(batch_head_),
                                     batch_.end(), e, EntryBefore),
                    e);
    } else if (e.when < window_) {
      // Before every wheel window (the clock has not caught up with the
      // wheel cursor) but at-or-after the batch tail: extend the run.
      batch_.push_back(e);
    } else if (e.when >= Horizon()) {
      overflow_.push(e);
    } else {
      buckets_[BucketIndex(e.when)].push_back(e);
      ++wheel_entries_;
    }
  }

  /// Ensures batch_ is non-empty, walking the wheel cursor forward (and
  /// migrating overflow entries as the horizon advances). Returns false
  /// when no live entries remain anywhere.
  bool Refill() {
    while (BatchEmpty()) {
      if (wheel_entries_ == 0) {
        if (overflow_.empty()) return false;
        // Fast-forward the wheel straight to the earliest overflow event
        // instead of stepping through empty buckets.
        window_ = overflow_.top().when & ~(Width() - 1);
        Migrate();
        continue;
      }
      std::vector<Entry>& bucket = buckets_[BucketIndex(window_)];
      if (bucket.empty()) {
        window_ += Width();
        if (!overflow_.empty() && overflow_.top().when < Horizon()) Migrate();
        continue;
      }
      // Move the whole bucket into the batch, sorted by (when, seq): every
      // entry of the current window orders before the rest of the wheel.
      // Equal-time entries are already in ascending seq (append order).
      // The cursor stays on this window, so events scheduled into it
      // while the batch drains land in the bucket and are extracted next.
      // Tombstones ride along deliberately: checking staleness here would
      // dereference the pool node for every entry (a cold cache line per
      // event); PopNext already skips stale batch entries while touching
      // the same line it needs for the callback anyway.
      wheel_entries_ -= static_cast<int64_t>(bucket.size());
      batch_.assign(bucket.begin(), bucket.end());
      bucket.clear();
      std::sort(batch_.begin(), batch_.end(), EntryBefore);
#if defined(__GNUC__) || defined(__clang__)
      // PopNext touches each pool node (staleness + callback); start
      // pulling the lines now so the pops don't stall on cold misses at
      // large populations.
      for (const Entry& e : batch_) __builtin_prefetch(&pool_.at(e.slot));
#endif
    }
    return true;
  }

  /// Moves overflow entries now inside the horizon into their buckets.
  /// The caller has checked that the overflow top lies inside the horizon.
  /// The heap pops in (when, seq) order, so equal-time entries land in a
  /// bucket in seq order ahead of any later direct appends.
  void Migrate() {
    const SimTimeMs horizon = Horizon();
    do {
      const Entry e = overflow_.top();
      overflow_.pop();
      if (IsStale(e)) {
        --tombstones_;
        continue;
      }
      buckets_[BucketIndex(e.when)].push_back(e);
      ++wheel_entries_;
      ++stats_->overflow_migrations;
    } while (!overflow_.empty() && overflow_.top().when < horizon);
  }

  /// Rebuilds the wheel — bucket count from the live population, bucket
  /// width from its time span — when the population leaves the band the
  /// current geometry was sized for. Growing past 2 events/bucket keeps
  /// schedule/pop O(1) amortized as the population grows; thinning below
  /// 1 event per 8 buckets stops a width derived during a burst from
  /// leaving Refill to step through mostly empty buckets once the burst
  /// drains. The 16x band between the two keeps rebuilds rare.
  void MaybeResize() {
    const int64_t live = LiveCount();
    const bool crowded = live > 2 * static_cast<int64_t>(bucket_count_) &&
                         bucket_count_ < kMaxBucketCount;
    const bool sparse = 8 * live < bucket_count_ &&
                        bucket_count_ > min_bucket_count_;
    if (!crowded && !sparse) return;

    std::vector<Entry> all;
    all.reserve(static_cast<size_t>(wheel_entries_) + overflow_.size());
    for (std::vector<Entry>& bucket : buckets_) {
      for (const Entry& e : bucket) {
        if (IsStale(e)) {
          --tombstones_;
          ++stats_->tombstones_purged;
        } else {
          all.push_back(e);
        }
      }
      bucket.clear();
    }
    while (!overflow_.empty()) {
      const Entry e = overflow_.top();
      overflow_.pop();
      if (IsStale(e)) {
        --tombstones_;
        ++stats_->tombstones_purged;
      } else {
        all.push_back(e);
      }
    }
    wheel_entries_ = 0;
    if (all.empty()) {
      // Only batch entries (or nothing) are live: keep the width and window
      // and fall back to the smallest wheel.
      bucket_count_ = min_bucket_count_;
      buckets_.assign(static_cast<size_t>(bucket_count_), {});
      return;
    }

    // Sort up front: the width estimate below needs quantiles, and the
    // redistribution needs (when, seq) order so each bucket's equal-time
    // runs stay seq-sorted.
    std::sort(all.begin(), all.end(), EntryBefore);
    const int64_t n = static_cast<int64_t>(all.size());
    const SimTimeMs min_when = all.front().when;
    // Width ~ quantile-span/n targets one event per bucket across the bulk
    // of the live population. Using the full span here is the classic
    // calendar-queue skew trap: one far-future outlier (a timeout, a spot
    // lifetime) would inflate the width until every near-term event lands
    // in a single bucket and pops degrade to O(n). Events beyond the
    // quantile simply wait in the overflow heap and migrate in later.
    const size_t q_idx = static_cast<size_t>((3 * n) / 4);
    const SimTimeMs q_when = all[std::min(q_idx, all.size() - 1)].when;
    const int64_t q_n = std::max<int64_t>(static_cast<int64_t>(q_idx), 1);
    const SimTimeMs span = q_when - min_when + 1;
    SimTimeMs width = 1;
    while (width < span / q_n && width < kMaxBucketWidthMs) width <<= 1;
    width_shift_ = ShiftFor(width);
    bucket_count_ = static_cast<int>(std::clamp<int64_t>(
        RoundUpPow2(2 * n), min_bucket_count_, kMaxBucketCount));
    buckets_.assign(static_cast<size_t>(bucket_count_), {});
    window_ = min_when & ~(Width() - 1);
    const SimTimeMs horizon = Horizon();
    for (Entry& e : all) {
      if (e.when >= horizon) {
        overflow_.push(e);
      } else {
        buckets_[BucketIndex(e.when)].push_back(e);
        ++wheel_entries_;
      }
    }
    ++stats_->calendar_resizes;
  }

  /// Bulk tombstone sweep, triggered from Cancel once stale entries exceed
  /// both the configured floor and 2x the live population.
  void MaybeCompact() {
    if (tombstones_ <= options_.min_compaction_tombstones ||
        tombstones_ <= 2 * LiveCount()) {
      return;
    }
    for (std::vector<Entry>& bucket : buckets_) {
      size_t w = 0;
      for (size_t r = 0; r < bucket.size(); ++r) {
        if (IsStale(bucket[r])) {
          --wheel_entries_;
          ++stats_->tombstones_purged;
        } else {
          bucket[w++] = bucket[r];
        }
      }
      bucket.resize(w);
    }
    std::vector<Entry> keep;
    keep.reserve(overflow_.size());
    while (!overflow_.empty()) {
      const Entry e = overflow_.top();
      overflow_.pop();
      if (IsStale(e)) {
        ++stats_->tombstones_purged;
      } else {
        keep.push_back(e);
      }
    }
    for (const Entry& e : keep) overflow_.push(e);
    const auto stale_batch = [this](const Entry& e) {
      if (!IsStale(e)) return false;
      ++stats_->tombstones_purged;
      return true;
    };
    batch_.erase(batch_.begin(),
                 batch_.begin() + static_cast<ptrdiff_t>(batch_head_));
    batch_head_ = 0;
    batch_.erase(std::remove_if(batch_.begin(), batch_.end(), stale_batch),
                 batch_.end());
    tombstones_ = 0;
    ++stats_->compactions;
  }

  Stats* stats_;
  const SimOptions options_;
  SlabPool<Node> pool_{1024};
  std::vector<std::vector<Entry>> buckets_;
  std::priority_queue<Entry, std::vector<Entry>, EntryAfter> overflow_;
  /// Extracted front run, sorted by (when, seq), consumed from
  /// batch_head_; see class comment. A vector+cursor rather than a deque:
  /// the pop path is hot and the cursor keeps it branch-cheap and
  /// contiguous.
  std::vector<Entry> batch_;
  size_t batch_head_ = 0;
  int bucket_count_ = 0;
  /// The starting bucket count; sparse rebuilds shrink no further.
  int min_bucket_count_ = 0;
  int width_shift_ = 0;
  /// Start of the current bucket's window (multiple of Width()).
  SimTimeMs window_ = 0;
  int64_t wheel_entries_ = 0;
  int64_t tombstones_ = 0;
};

// ---------------------------------------------------------------------------
// Simulation facade: clock, sequence numbers, live/executed accounting.
// ---------------------------------------------------------------------------

Simulation::Simulation() : Simulation(SimOptions{}) {}

Simulation::Simulation(const SimOptions& options)
    : queue_(std::make_unique<CalendarQueue>(&stats_, options)) {}

Simulation::~Simulation() = default;

uint64_t Simulation::ScheduleAt(SimTimeMs when, Callback cb) {
  CACKLE_CHECK_GE(when, now_) << "cannot schedule in the past";
  const uint64_t id = queue_->Schedule(now_, when, next_seq_++, std::move(cb));
  ++live_events_;
  ++stats_.scheduled;
  stats_.peak_queue_entries =
      std::max(stats_.peak_queue_entries, queue_entries());
  return id;
}

void Simulation::ScheduleStream(std::vector<StreamEntry> entries,
                                StreamHandler handler) {
  CACKLE_CHECK_EQ(stream_head_, stream_.size())
      << "a previous stream is still pending";
  if (!entries.empty()) {
    CACKLE_CHECK_GE(entries.front().when, now_)
        << "stream entry before NowMs()";
  }
  for (size_t i = 1; i < entries.size(); ++i) {
    CACKLE_CHECK_GE(entries[i].when, entries[i - 1].when)
        << "stream out of time order";
  }
  const int64_t n = static_cast<int64_t>(entries.size());
  stream_ = std::move(entries);
  stream_head_ = 0;
  stream_seq_ = next_seq_;
  stream_handler_ = std::move(handler);
  next_seq_ += static_cast<uint64_t>(n);
  live_events_ += n;
  stats_.scheduled += n;
  stats_.peak_queue_entries =
      std::max(stats_.peak_queue_entries, queue_entries());
}

bool Simulation::Cancel(uint64_t event_id) {
  if (!queue_->Cancel(event_id)) return false;
  --live_events_;
  ++stats_.cancelled;
  return true;
}

void Simulation::RunStreamHead() {
  const StreamEntry e = stream_[stream_head_++];
  now_ = e.when;
  --live_events_;
  if (stream_head_ < stream_.size()) {
    stream_handler_(e.index);
    return;
  }
  // Last entry: release the stream before running it, so the handler may
  // schedule the next stream.
  StreamHandler handler = std::move(stream_handler_);
  stream_handler_ = nullptr;
  std::vector<StreamEntry>().swap(stream_);
  stream_head_ = 0;
  handler(e.index);
}

int64_t Simulation::Drain(SimTimeMs until) {
  // Merge the stream head with the calendar queue by (when, seq): the queue
  // yields an event only if it orders before the stream head, so the run
  // order is the one a single queue holding both would produce.
  constexpr uint64_t kNoSeqLimit = std::numeric_limits<uint64_t>::max();
  int64_t ran = 0;
  SimTimeMs when = 0;
  Callback cb;
  for (;;) {
    const bool stream_due =
        stream_head_ < stream_.size() && stream_[stream_head_].when <= until;
    const SimTimeMs limit_when =
        stream_due ? stream_[stream_head_].when : until;
    const uint64_t limit_seq =
        stream_due ? stream_seq_ + stream_head_ : kNoSeqLimit;
    if (queue_->PopNext(limit_when, limit_seq, &when, &cb)) {
      now_ = when;
      --live_events_;
      cb();
      cb.reset();
    } else if (stream_due) {
      RunStreamHead();
    } else {
      break;
    }
    ++ran;
    ++executed_;
  }
  return ran;
}

int64_t Simulation::RunUntil(SimTimeMs until) {
  const int64_t ran = Drain(until);
  // With no live events left, the clock owes the caller the full interval.
  // (Keyed on *live* events: lingering cancelled tombstones must not pin
  // the clock, one of the accounting guarantees regression-tested in
  // simulation_test.)
  if (until > now_ && live_events_ == 0) now_ = until;
  return ran;
}

int64_t Simulation::RunToCompletion() { return Drain(kMaxSimTime); }

int64_t Simulation::queue_entries() const {
  return queue_->entries() +
         static_cast<int64_t>(stream_.size() - stream_head_);
}

}  // namespace cackle
