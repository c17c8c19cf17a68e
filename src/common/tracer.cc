#include "common/tracer.h"

#include <algorithm>
#include <bit>

#include "common/json_writer.h"
#include "common/logging.h"

namespace cackle {

namespace {

constexpr uint32_t kGenerationMask = 0x7fffffff;

SpanId FoldedId(uint32_t slot, uint32_t generation) {
  return -((static_cast<SpanId>(generation) << 32) |
           (static_cast<SpanId>(slot) + 1));
}

}  // namespace

int64_t SpanAggregate::TagCountOf(std::string_view key,
                                  std::string_view value) const {
  for (const TagCount& t : tags) {
    if (t.key == key && t.value == value) return t.count;
  }
  return 0;
}

Span* Tracer::Find(SpanId id) {
  if (id == kInvalidSpan) return nullptr;
  CACKLE_CHECK_GE(id, 1);
  CACKLE_CHECK_LE(static_cast<size_t>(id), spans_.size());
  return &spans_[static_cast<size_t>(id - 1)];
}

SpanId Tracer::Begin(std::string_view name, int64_t start_ms, SpanId parent,
                     int64_t query_id) {
  if (!enabled_) return kInvalidSpan;
  Span span;
  span.id = static_cast<SpanId>(spans_.size()) + 1;
  span.parent = parent;
  span.name.assign(name);
  span.query_id = query_id;
  span.start_ms = start_ms;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

Tracer::FoldedSlot& Tracer::FindFolded(SpanId id) {
  const uint64_t bits = static_cast<uint64_t>(-id);
  const uint64_t slot = (bits & 0xffffffffu) - 1;
  CACKLE_CHECK_LT(slot, slots_.size()) << "unknown folded span id " << id;
  FoldedSlot& folded = slots_[slot];
  CACKLE_CHECK_EQ(folded.generation, bits >> 32)
      << "stale folded span id " << id << " (ended twice or slot reused)";
  return folded;
}

SpanId Tracer::BeginFolded(std::string_view name, int64_t start_ms,
                           SpanId parent, int64_t query_id) {
  if (!enabled_) return kInvalidSpan;
  if (query_id >= 0 && query_id % kRawSampleStride == 0) {
    return Begin(name, start_ms, parent, query_id);
  }
  uint32_t agg = 0;
  while (agg < aggregates_.size() && aggregates_[agg].name != name) ++agg;
  if (agg == aggregates_.size()) aggregates_.emplace_back().name.assign(name);
  ++aggregates_[agg].open;
  uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  FoldedSlot& folded = slots_[slot];
  folded.start_ms = start_ms;
  folded.aggregate = agg;
  return FoldedId(slot, folded.generation);
}

void Tracer::End(SpanId id, int64_t end_ms) {
  if (id < 0) {
    FoldedSlot& folded = FindFolded(id);
    SpanAggregate& agg = aggregates_[folded.aggregate];
    CACKLE_CHECK_GE(end_ms, folded.start_ms) << agg.name;
    const int64_t duration = end_ms - folded.start_ms;
    --agg.open;
    ++agg.count;
    agg.total_ms += duration;
    agg.max_ms = std::max(agg.max_ms, duration);
    ++agg.buckets[static_cast<size_t>(
        std::bit_width(static_cast<uint64_t>(duration)))];
    folded.generation = (folded.generation + 1) & kGenerationMask;
    free_slots_.push_back(static_cast<uint32_t>(&folded - slots_.data()));
    return;
  }
  Span* span = Find(id);
  if (span == nullptr) return;
  CACKLE_CHECK(!span->closed()) << "span ended twice: " << span->name;
  CACKLE_CHECK_GE(end_ms, span->start_ms) << span->name;
  span->end_ms = end_ms;
}

void Tracer::Tag(SpanId id, std::string_view key, std::string_view value) {
  if (id < 0) {
    SpanAggregate& agg = aggregates_[FindFolded(id).aggregate];
    for (SpanAggregate::TagCount& t : agg.tags) {
      if (t.key == key && t.value == value) {
        ++t.count;
        return;
      }
    }
    agg.tags.push_back(
        SpanAggregate::TagCount{std::string(key), std::string(value), 1});
    return;
  }
  Span* span = Find(id);
  if (span == nullptr) return;
  span->tags.emplace_back(std::string(key), std::string(value));
}

SpanId Tracer::Instant(std::string_view name, int64_t at_ms, SpanId parent,
                       int64_t query_id) {
  const SpanId id = Begin(name, at_ms, parent, query_id);
  End(id, at_ms);
  return id;
}

void Tracer::Clear() {
  spans_.clear();
  aggregates_.clear();
  slots_.clear();
  free_slots_.clear();
}

const SpanAggregate* Tracer::FindAggregate(std::string_view name) const {
  for (const SpanAggregate& agg : aggregates_) {
    if (agg.name == name) return &agg;
  }
  return nullptr;
}

void Tracer::WriteJson(JsonWriter& json, size_t max_spans) const {
  const size_t n = max_spans == 0 ? spans_.size()
                                  : std::min(max_spans, spans_.size());
  json.BeginArray();
  for (size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    json.BeginObject();
    json.Field("id", s.id);
    if (s.parent != kInvalidSpan) json.Field("parent", s.parent);
    json.Field("name", s.name);
    if (s.query_id >= 0) json.Field("query_id", s.query_id);
    json.Field("start_ms", s.start_ms);
    json.Field("end_ms", s.end_ms);
    if (!s.tags.empty()) {
      json.Key("tags").BeginObject();
      for (const auto& [k, v] : s.tags) json.Field(k, v);
      json.EndObject();
    }
    json.EndObject();
  }
  json.EndArray();
}

void Tracer::WriteAggregatesJson(JsonWriter& json) const {
  json.BeginArray();
  for (const SpanAggregate& agg : aggregates_) {
    json.BeginObject();
    json.Field("name", agg.name);
    json.Field("count", agg.count);
    json.Field("open", agg.open);
    json.Field("total_ms", agg.total_ms);
    json.Field("max_ms", agg.max_ms);
    json.Key("log2_buckets").BeginArray();
    for (const int64_t n : agg.buckets) json.Int(n);
    json.EndArray();
    json.Key("tags").BeginArray();
    for (const SpanAggregate::TagCount& t : agg.tags) {
      json.BeginObject();
      json.Field("key", t.key);
      json.Field("value", t.value);
      json.Field("count", t.count);
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
  }
  json.EndArray();
}

}  // namespace cackle
