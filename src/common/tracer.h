#ifndef CACKLE_COMMON_TRACER_H_
#define CACKLE_COMMON_TRACER_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cackle {

class JsonWriter;

/// Identifies a span within one Tracer; 0 = "no span" (the id a disabled
/// tracer hands out, accepted as a no-op by every other call). Raw spans
/// have positive ids; folded spans (Tracer::BeginFolded) negative ones.
using SpanId = int64_t;
constexpr SpanId kInvalidSpan = 0;

/// \brief One timed interval keyed on *simulated* time.
///
/// Spans form a forest: a query span owns stage spans, which own task
/// spans. `end_ms` is -1 while the span is open. Instant events are spans
/// with end == start.
struct Span {
  SpanId id = kInvalidSpan;
  SpanId parent = kInvalidSpan;
  std::string name;
  /// The query this span belongs to; -1 for infrastructure spans.
  int64_t query_id = -1;
  int64_t start_ms = 0;
  int64_t end_ms = -1;
  std::vector<std::pair<std::string, std::string>> tags;

  bool closed() const { return end_ms >= 0; }
};

/// \brief Constant-memory summary of every folded span sharing one name.
///
/// Durations land in 64 log2 buckets: bucket 0 holds zero-length spans,
/// bucket b >= 1 holds durations in [2^(b-1), 2^b) ms.
struct SpanAggregate {
  struct TagCount {
    std::string key;
    std::string value;
    int64_t count = 0;
  };

  std::string name;
  /// Closed spans; `open` counts spans begun but not yet ended.
  int64_t count = 0;
  int64_t open = 0;
  int64_t total_ms = 0;
  int64_t max_ms = 0;
  std::array<int64_t, 64> buckets{};
  /// Tags as they were attached, one entry per (key, value), first-seen
  /// order.
  std::vector<TagCount> tags;

  /// Count of spans tagged `key=value` (0 when never seen).
  int64_t TagCountOf(std::string_view key, std::string_view value) const;
};

/// \brief Lightweight span recorder for per-query execution traces.
///
/// Like the metrics registry this is pure bookkeeping on simulated
/// timestamps: recording never consumes randomness or schedules events, so
/// tracing on/off cannot change an engine run's results. A disabled tracer
/// (the default-constructed state used when no observability sink is
/// attached) returns kInvalidSpan from Begin() and ignores every other
/// call — the zero-cost guard mirrors the fault injector's all-rates-zero
/// contract.
///
/// High-volume spans (one per task attempt) go through BeginFolded(): they
/// occupy a slot of a reused open-slot table while open, and End() folds
/// them into a per-name SpanAggregate, so memory scales with the number of
/// concurrently open spans rather than with the spans ever recorded. Spans
/// of every kRawSampleStride-th query (query_id % stride == 0) stay raw,
/// so a sample of whole task trees remains in spans().
class Tracer {
 public:
  explicit Tracer(bool enabled = false) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Opens a span; returns kInvalidSpan when disabled.
  SpanId Begin(std::string_view name, int64_t start_ms,
               SpanId parent = kInvalidSpan, int64_t query_id = -1);

  /// Queries whose id is a multiple of this keep their folded spans raw.
  static constexpr int64_t kRawSampleStride = 64;

  /// Like Begin(), but the span is folded into the aggregate for `name`
  /// when it ends — unless `query_id` is sampled, in which case it is an
  /// ordinary raw span. Returns kInvalidSpan when disabled.
  SpanId BeginFolded(std::string_view name, int64_t start_ms,
                     SpanId parent = kInvalidSpan, int64_t query_id = -1);

  /// Closes a span at `end_ms` (ignored for kInvalidSpan).
  void End(SpanId id, int64_t end_ms);

  /// Attaches a key/value tag (ignored for kInvalidSpan).
  void Tag(SpanId id, std::string_view key, std::string_view value);

  /// Records a zero-duration event.
  SpanId Instant(std::string_view name, int64_t at_ms,
                 SpanId parent = kInvalidSpan, int64_t query_id = -1);

  /// Raw spans only; folded spans are visible through FindAggregate().
  const std::vector<Span>& spans() const { return spans_; }
  size_t size() const { return spans_.size(); }
  void Clear();

  /// The aggregate for `name`, or nullptr when no span of it was folded.
  const SpanAggregate* FindAggregate(std::string_view name) const;
  /// Size of the open-slot table: the most folded spans ever open at once.
  size_t folded_slots() const { return slots_.size(); }

  /// Emits an array of span objects, at most `max_spans` (0 = all), in
  /// recording order.
  void WriteJson(JsonWriter& json, size_t max_spans = 0) const;

  /// Emits the aggregates as an array of objects.
  void WriteAggregatesJson(JsonWriter& json) const;

 private:
  /// An open folded span. A folded id encodes -(generation << 32 | slot+1);
  /// End bumps the slot's generation, so a stale id never matches again.
  struct FoldedSlot {
    int64_t start_ms = 0;
    uint32_t generation = 0;
    uint32_t aggregate = 0;
  };

  Span* Find(SpanId id);
  FoldedSlot& FindFolded(SpanId id);

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<SpanAggregate> aggregates_;
  std::vector<FoldedSlot> slots_;
  std::vector<uint32_t> free_slots_;
};

}  // namespace cackle

#endif  // CACKLE_COMMON_TRACER_H_
