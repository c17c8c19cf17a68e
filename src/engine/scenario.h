#ifndef CACKLE_ENGINE_SCENARIO_H_
#define CACKLE_ENGINE_SCENARIO_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "engine/engine.h"
#include "workload/workload_generator.h"

namespace cackle {

/// \brief A named, seeded chaos scenario: one workload plus one fault
/// environment plus the engine's survival knobs, loadable from the data
/// files in bench/scenarios/.
///
/// Scenarios are data, not code, so the adversarial library can grow
/// without recompiling: each `<name>.scenario` file is a flat list of
/// `key = value` lines (`#` comments, blank lines ignored) with dotted keys
/// mirroring this struct. Unknown keys are an error — a typo must not
/// silently weaken a scenario — and so are non-finite numbers and values
/// outside the range the engine's components accept.
struct ChaosScenario {
  std::string name;
  std::string description;
  uint64_t seed = 1234;

  /// Workload shape (arrival process, size, batch mix).
  WorkloadOptions workload;

  /// Memoryless fault rates.
  FaultProfile faults;
  /// Temporal fault processes. A zero horizon is defaulted by
  /// ToEngineOptions to cover the workload (duration + 2h drain).
  ChaosTimelineOptions chaos;

  /// Per-VM exponential-lifetime spot interruptions; 0 disables.
  double spot_mean_lifetime_hours = 0.0;
  /// Admission control / shedding.
  AdmissionControlOptions admission;
  /// Cumulative elastic retry budget (elastic_retry_budget_ms).
  SimTimeMs retry_budget_ms = 0;
  /// Hedged-read threshold; 0 disables.
  SimTimeMs hedge_after_ms = 0;
  /// Object-store circuit breaker; zero threshold disables.
  CircuitBreakerOptions store_breaker;

  /// Engine options for the chaos run (dynamic strategy; callers may adjust
  /// strategy/observability afterwards).
  EngineOptions ToEngineOptions() const;

  /// The matched fault-free baseline: same workload, same seed, same
  /// strategy, but no faults, no chaos timeline, no spot interruptions and
  /// no admission control — the run this scenario's p99/cost degradation is
  /// measured against.
  EngineOptions ToFaultFreeEngineOptions() const;
};

/// Parses scenario text (the `key = value` format described above).
[[nodiscard]] StatusOr<ChaosScenario> ParseScenario(const std::string& text);

/// Reads and parses one scenario file.
[[nodiscard]] StatusOr<ChaosScenario> LoadScenarioFile(
    const std::string& path);

/// Directory holding the checked-in scenario library: the
/// CACKLE_SCENARIO_DIR environment variable when set, otherwise the
/// source-tree path compiled into the library.
std::string ScenarioDir();

/// Loads `<ScenarioDir()>/<name>.scenario`.
[[nodiscard]] StatusOr<ChaosScenario> LoadNamedScenario(
    const std::string& name);

}  // namespace cackle

#endif  // CACKLE_ENGINE_SCENARIO_H_
