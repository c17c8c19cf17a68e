#include "engine/scenario.h"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <vector>

#include "common/parse_number.h"

namespace cackle {

namespace {

// Source-tree default for the scenario library; targets that consume
// scenarios compile it in, and the CACKLE_SCENARIO_DIR environment variable
// overrides it at runtime (e.g. for out-of-tree test harnesses).
#ifndef CACKLE_SCENARIO_DIR
#define CACKLE_SCENARIO_DIR "bench/scenarios"
#endif

std::string Trim(const std::string& s) {
  size_t begin = 0;
  size_t end = s.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return s.substr(begin, end - begin);
}

// The range a numeric key must fall in. These mirror the CACKLE_CHECKs in
// FaultInjector, ChaosTimeline, RetryPolicy, CircuitBreaker and VmFleet,
// and what WorkloadGenerator needs to terminate, so a scenario the parser
// accepts never aborts an engine constructor or hangs workload generation.
struct Bounds {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  bool lo_open = false;  // true: the value must be strictly above `lo`

  bool Contains(double v) const {
    return (lo_open ? v > lo : v >= lo) && v <= hi;
  }
  std::string ToString() const {
    std::ostringstream out;
    if (std::isinf(hi)) {
      out << (lo_open ? "> " : ">= ") << lo;
    } else {
      out << "in [" << lo << ", " << hi << "]";
    }
    return out.str();
  }
};

constexpr Bounds kUnbounded{};
constexpr Bounds AtLeast(double lo) {
  return {lo, std::numeric_limits<double>::infinity(), false};
}
constexpr Bounds Above(double lo) {
  return {lo, std::numeric_limits<double>::infinity(), true};
}
constexpr Bounds Between(double lo, double hi) { return {lo, hi, false}; }

// FaultInjector and ChaosTimeline cap error rates here: a retry loop with an
// error rate near 1 never terminates.
constexpr double kMaxTransientErrorRate = 0.95;

// One settable field: dotted key plus a typed destination in the scenario.
// A table keeps the parser exhaustive and the error message for an unknown
// key trivially correct.
struct FieldBinding {
  const char* key;
  enum Kind { kInt, kInt64, kUint64, kDouble, kString } kind;
  void* dest;
  Bounds bounds = kUnbounded;
};

Status ApplyBinding(const FieldBinding& binding, const std::string& value) {
  const auto error = [&](const std::string& what) {
    return Status::InvalidArgument("scenario key '" +
                                   std::string(binding.key) + "': " + what);
  };
  double number = 0.0;
  switch (binding.kind) {
    case FieldBinding::kInt:
    case FieldBinding::kInt64: {
      int64_t v = 0;
      if (!ParseInt64(value, &v)) {
        return error("bad integer '" + value + "'");
      }
      if (binding.kind == FieldBinding::kInt) {
        if (v < std::numeric_limits<int>::min() ||
            v > std::numeric_limits<int>::max()) {
          return error("integer '" + value + "' out of range");
        }
        *static_cast<int*>(binding.dest) = static_cast<int>(v);
      } else {
        *static_cast<int64_t*>(binding.dest) = v;
      }
      number = static_cast<double>(v);
      break;
    }
    case FieldBinding::kUint64:
      if (!ParseUint64(value, static_cast<uint64_t*>(binding.dest))) {
        return error("bad unsigned integer '" + value + "'");
      }
      return Status::OK();
    case FieldBinding::kDouble:
      if (!ParseDouble(value, &number)) {
        return error("bad number '" + value + "'");
      }
      *static_cast<double*>(binding.dest) = number;
      break;
    case FieldBinding::kString:
      *static_cast<std::string*>(binding.dest) = value;
      return Status::OK();
  }
  if (!binding.bounds.Contains(number)) {
    return error("'" + value + "' must be " + binding.bounds.ToString());
  }
  return Status::OK();
}

std::vector<FieldBinding> Bindings(ChaosScenario* s) {
  return {
      {"name", FieldBinding::kString, &s->name},
      {"description", FieldBinding::kString, &s->description},
      {"seed", FieldBinding::kUint64, &s->seed},
      {"workload.num_queries", FieldBinding::kInt64,
       &s->workload.num_queries, AtLeast(0.0)},
      {"workload.duration_ms", FieldBinding::kInt64,
       &s->workload.duration_ms, Above(0.0)},
      {"workload.baseline_load", FieldBinding::kDouble,
       &s->workload.baseline_load},
      {"workload.arrival_period_ms", FieldBinding::kInt64,
       &s->workload.arrival_period_ms, Above(0.0)},
      {"workload.batch_fraction", FieldBinding::kDouble,
       &s->workload.batch_fraction},
      {"workload.seed", FieldBinding::kUint64, &s->workload.seed},
      {"faults.elastic_failure_rate", FieldBinding::kDouble,
       &s->faults.elastic_failure_rate, Between(0.0, kMaxTransientErrorRate)},
      {"faults.elastic_concurrency_limit", FieldBinding::kInt64,
       &s->faults.elastic_concurrency_limit, AtLeast(0.0)},
      {"faults.elastic_straggler_rate", FieldBinding::kDouble,
       &s->faults.elastic_straggler_rate, AtLeast(0.0)},
      {"faults.elastic_straggler_slowdown", FieldBinding::kDouble,
       &s->faults.elastic_straggler_slowdown, Above(0.0)},
      {"faults.store_error_rate", FieldBinding::kDouble,
       &s->faults.store_error_rate, Between(0.0, kMaxTransientErrorRate)},
      {"faults.vm_launch_failure_rate", FieldBinding::kDouble,
       &s->faults.vm_launch_failure_rate,
       Between(0.0, kMaxTransientErrorRate)},
      {"faults.shuffle_crash_rate_per_hour", FieldBinding::kDouble,
       &s->faults.shuffle_crash_rate_per_hour, AtLeast(0.0)},
      {"chaos.horizon_ms", FieldBinding::kInt64, &s->chaos.horizon_ms,
       AtLeast(0.0)},
      {"chaos.outage.windows_per_hour", FieldBinding::kDouble,
       &s->chaos.outage.windows_per_hour, AtLeast(0.0)},
      {"chaos.outage.mean_window_ms", FieldBinding::kInt64,
       &s->chaos.outage.mean_window_ms, Above(0.0)},
      {"chaos.outage.elastic_failure_fraction", FieldBinding::kDouble,
       &s->chaos.outage.elastic_failure_fraction, Between(0.0, 1.0)},
      {"chaos.storm.storms_per_hour", FieldBinding::kDouble,
       &s->chaos.storm.storms_per_hour, AtLeast(0.0)},
      {"chaos.storm.mean_storm_ms", FieldBinding::kInt64,
       &s->chaos.storm.mean_storm_ms, Above(0.0)},
      {"chaos.storm.reclaim_fraction_per_minute", FieldBinding::kDouble,
       &s->chaos.storm.reclaim_fraction_per_minute, Between(0.0, 1.0)},
      {"chaos.brownout.windows_per_hour", FieldBinding::kDouble,
       &s->chaos.brownout.windows_per_hour, AtLeast(0.0)},
      {"chaos.brownout.mean_window_ms", FieldBinding::kInt64,
       &s->chaos.brownout.mean_window_ms, Above(0.0)},
      {"chaos.brownout.store_error_rate", FieldBinding::kDouble,
       &s->chaos.brownout.store_error_rate,
       Between(0.0, kMaxTransientErrorRate)},
      {"chaos.brownout.base_read_latency_ms", FieldBinding::kInt64,
       &s->chaos.brownout.base_read_latency_ms},
      {"chaos.brownout.latency_inflation", FieldBinding::kDouble,
       &s->chaos.brownout.latency_inflation},
      {"chaos.brownout.tail_probability", FieldBinding::kDouble,
       &s->chaos.brownout.tail_probability},
      {"chaos.brownout.tail_multiplier", FieldBinding::kDouble,
       &s->chaos.brownout.tail_multiplier},
      {"chaos.price_shock.shocks_per_hour", FieldBinding::kDouble,
       &s->chaos.price_shock.shocks_per_hour, AtLeast(0.0)},
      {"chaos.price_shock.mean_shock_ms", FieldBinding::kInt64,
       &s->chaos.price_shock.mean_shock_ms, Above(0.0)},
      {"chaos.price_shock.price_multiplier", FieldBinding::kDouble,
       &s->chaos.price_shock.price_multiplier, Above(0.0)},
      {"spot_mean_lifetime_hours", FieldBinding::kDouble,
       &s->spot_mean_lifetime_hours, AtLeast(0.0)},
      {"admission.max_outstanding_tasks", FieldBinding::kInt64,
       &s->admission.max_outstanding_tasks},
      {"admission.shed_after_ms", FieldBinding::kInt64,
       &s->admission.shed_after_ms},
      {"retry_budget_ms", FieldBinding::kInt64, &s->retry_budget_ms,
       AtLeast(0.0)},
      {"hedge_after_ms", FieldBinding::kInt64, &s->hedge_after_ms},
      {"breaker.failure_threshold", FieldBinding::kInt,
       &s->store_breaker.failure_threshold, AtLeast(0.0)},
      {"breaker.open_ms", FieldBinding::kInt64, &s->store_breaker.open_ms,
       Above(0.0)},
      {"breaker.success_threshold", FieldBinding::kInt,
       &s->store_breaker.success_threshold, AtLeast(1.0)},
  };
}

bool AnyChaosProcess(const ChaosTimelineOptions& chaos) {
  return chaos.outage.enabled() || chaos.storm.enabled() ||
         chaos.brownout.enabled() || chaos.price_shock.enabled();
}

}  // namespace

EngineOptions ChaosScenario::ToEngineOptions() const {
  EngineOptions opts;
  opts.seed = seed;
  opts.faults = faults;
  opts.chaos = chaos;
  if (opts.chaos.horizon_ms == 0 && AnyChaosProcess(chaos)) {
    // Cover the arrival window plus a short drain tail. The tail is kept
    // modest on purpose: the renewal processes spread their windows over
    // the whole horizon, so a horizon much longer than the run would
    // silently dilute the per-hour rates the scenario asked for.
    opts.chaos.horizon_ms = workload.duration_ms + kMillisPerHour / 2;
  }
  opts.spot_mean_lifetime_hours = spot_mean_lifetime_hours;
  opts.admission = admission;
  opts.elastic_retry_budget_ms = retry_budget_ms;
  opts.hedge_after_ms = hedge_after_ms;
  opts.store_breaker = store_breaker;
  return opts;
}

EngineOptions ChaosScenario::ToFaultFreeEngineOptions() const {
  EngineOptions opts = ToEngineOptions();
  opts.faults = FaultProfile{};
  opts.chaos = ChaosTimelineOptions{};
  opts.spot_mean_lifetime_hours = 0.0;
  // No admission control either: the baseline answers "what would these
  // queries have cost/taken on a healthy substrate", so nothing is shed.
  opts.admission = AdmissionControlOptions{};
  opts.store_breaker = CircuitBreakerOptions{};
  opts.hedge_after_ms = 0;
  opts.elastic_retry_budget_ms = 0;
  return opts;
}

StatusOr<ChaosScenario> ParseScenario(const std::string& text) {
  ChaosScenario scenario;
  const std::vector<FieldBinding> bindings = Bindings(&scenario);
  std::istringstream stream(text);
  std::string line;
  int line_number = 0;
  while (std::getline(stream, line)) {
    ++line_number;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    line = Trim(line);
    if (line.empty()) continue;
    const size_t eq = line.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("scenario line " +
                                     std::to_string(line_number) +
                                     ": expected 'key = value', got '" +
                                     line + "'");
    }
    const std::string key = Trim(line.substr(0, eq));
    const std::string value = Trim(line.substr(eq + 1));
    if (key.empty()) {
      return Status::InvalidArgument("scenario line " +
                                     std::to_string(line_number) +
                                     ": empty key");
    }
    bool matched = false;
    for (const FieldBinding& binding : bindings) {
      if (key == binding.key) {
        Status status = ApplyBinding(binding, value);
        if (!status.ok()) return status;
        matched = true;
        break;
      }
    }
    if (!matched) {
      // Unknown keys are hard errors: a typo must not silently weaken the
      // fault environment a test believes it is running under.
      return Status::InvalidArgument("scenario line " +
                                     std::to_string(line_number) +
                                     ": unknown key '" + key + "'");
    }
  }
  if (scenario.name.empty()) {
    return Status::InvalidArgument("scenario is missing a 'name'");
  }
  return scenario;
}

StatusOr<ChaosScenario> LoadScenarioFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open scenario file " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseScenario(buffer.str());
}

std::string ScenarioDir() {
  const char* env = std::getenv("CACKLE_SCENARIO_DIR");
  if (env != nullptr && env[0] != '\0') return env;
  return CACKLE_SCENARIO_DIR;
}

StatusOr<ChaosScenario> LoadNamedScenario(const std::string& name) {
  return LoadScenarioFile(ScenarioDir() + "/" + name + ".scenario");
}

}  // namespace cackle
