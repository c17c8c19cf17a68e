#ifndef CACKLE_COMMON_METRIC_NAMES_H_
#define CACKLE_COMMON_METRIC_NAMES_H_

#include <string>

namespace cackle {

/// \brief Central registry of every metric name literal in the codebase.
///
/// All counter/gauge/histogram names passed to MetricsRegistry must come
/// from this header (enforced by the cackle-metric-name lint check). A name
/// that exists only as an inline string literal can typo-split into two
/// counters — "engine.tasks_retried" written, "engine.task_retried" read —
/// and nothing would notice; routing both the writer and every reader
/// through one constant makes that impossible.
///
/// Conventions:
///  - kPrefix* are export prefixes ("engine", "vm_fleet"); components whose
///    ExportMetrics takes a prefix append a kSuffix* constant (which carries
///    its leading dot) to form the full name.
///  - Full-name constants are spelled out for metrics registered under a
///    fixed name.
///  - Readers of prefixed metrics compose the same constants via
///    JoinMetricName rather than re-spelling the dotted string.
namespace metric_names {

// ---------------------------------------------------------------- prefixes
inline constexpr char kPrefixEngine[] = "engine";
inline constexpr char kPrefixVmFleet[] = "vm_fleet";
inline constexpr char kPrefixElasticPool[] = "elastic_pool";
inline constexpr char kPrefixObjectStore[] = "object_store";
inline constexpr char kPrefixShuffle[] = "shuffle";
inline constexpr char kPrefixExecPool[] = "exec.pool";

// ------------------------------------------------------------ engine.* names
inline constexpr char kEngineTasksOnVms[] = "engine.tasks_on_vms";
inline constexpr char kEngineTasksOnElastic[] = "engine.tasks_on_elastic";
inline constexpr char kEngineTasksRetried[] = "engine.tasks_retried";
inline constexpr char kEngineTasksSpeculated[] = "engine.tasks_speculated";
inline constexpr char kEngineBatchTasksDelayed[] = "engine.batch_tasks_delayed";
inline constexpr char kEngineBatchTasksEscalated[] =
    "engine.batch_tasks_escalated";
inline constexpr char kEngineElasticFailures[] = "engine.elastic_failures";
inline constexpr char kEngineStagesReexecuted[] = "engine.stages_reexecuted";
inline constexpr char kEngineShufflePartitionsLost[] =
    "engine.shuffle_partitions_lost";
inline constexpr char kEngineQueriesCompleted[] = "engine.queries_completed";
inline constexpr char kEngineQueryLatencyS[] = "engine.query_latency_s";
inline constexpr char kEngineBatchLatencyS[] = "engine.batch_latency_s";
inline constexpr char kEngineMakespanMs[] = "engine.makespan_ms";
inline constexpr char kEnginePeakConcurrentTasks[] =
    "engine.peak_concurrent_tasks";
inline constexpr char kEngineShedQueries[] = "engine.shed_queries";
inline constexpr char kEngineDeferredQueries[] = "engine.deferred_queries";
inline constexpr char kEngineAdmissionQueuePeak[] =
    "engine.admission_queue_peak";
inline constexpr char kEngineRetryBudgetExhausted[] =
    "engine.retry_budget_exhausted";
inline constexpr char kEngineHedgedReads[] = "engine.hedged_reads";
inline constexpr char kEngineHedgedWins[] = "engine.hedged_wins";
inline constexpr char kEngineStormReclaims[] = "engine.storm_reclaims";
// Multi-tenant scheduling counters (all zero / 1 in single-tenant runs).
inline constexpr char kEngineTenantCount[] = "engine.tenant.count";
inline constexpr char kEngineTenantDrrRounds[] = "engine.tenant.drr_rounds";
inline constexpr char kEngineTenantQueuePeak[] = "engine.tenant.queue_peak";

// --------------------------------------------------------------- sim.* names
// Simulation-kernel counters exported at the end of every engine run. The
// three event counts follow from the workload (arrival-stream entries count
// as scheduled and executed); the rest describe how the calendar queue
// stores events, so they move when its layout changes even though every
// workload result stays bit-identical.
inline constexpr char kSimEventsScheduled[] = "sim.events_scheduled";
inline constexpr char kSimEventsExecuted[] = "sim.events_executed";
inline constexpr char kSimEventsCancelled[] = "sim.events_cancelled";
inline constexpr char kSimCompactions[] = "sim.compactions";
inline constexpr char kSimTombstonesPurged[] = "sim.tombstones_purged";
inline constexpr char kSimCalendarResizes[] = "sim.calendar.resizes";
inline constexpr char kSimOverflowMigrations[] =
    "sim.calendar.overflow_migrations";
inline constexpr char kSimPeakQueueEntries[] = "sim.peak_queue_entries";

// ------------------------------------------------------------- chaos.* names
// Gauges describing the precomputed fault-process timeline of a run; only
// registered when a chaos timeline is configured.
inline constexpr char kChaosOutageWindows[] = "chaos.outage_windows";
inline constexpr char kChaosOutageMs[] = "chaos.outage_ms";
inline constexpr char kChaosStormWindows[] = "chaos.storm_windows";
inline constexpr char kChaosStormMs[] = "chaos.storm_ms";
inline constexpr char kChaosBrownoutWindows[] = "chaos.brownout_windows";
inline constexpr char kChaosBrownoutMs[] = "chaos.brownout_ms";
inline constexpr char kChaosPriceShockWindows[] = "chaos.price_shock_windows";
inline constexpr char kChaosPriceShockMs[] = "chaos.price_shock_ms";

// ---------------------------------------------------------- strategy.* names
inline constexpr char kStrategyUpdates[] = "strategy.updates";
inline constexpr char kStrategyExpertSwitches[] = "strategy.expert_switches";
inline constexpr char kStrategyChosenExpert[] = "strategy.chosen_expert";
inline constexpr char kStrategyChosenProbability[] =
    "strategy.chosen_probability";
inline constexpr char kStrategyTarget[] = "strategy.target";

// -------------------------------------------------------------- exec.* names
inline constexpr char kExecFlatTableBuilds[] = "exec.flat_table.builds";
inline constexpr char kExecFlatTableResizes[] = "exec.flat_table.resizes";
inline constexpr char kExecKeysPacked[] = "exec.keys.packed";
inline constexpr char kExecKeysFallback[] = "exec.keys.fallback";
inline constexpr char kExecDictColumnsEncoded[] = "exec.dict.columns_encoded";
inline constexpr char kExecDictEncodesAbandoned[] =
    "exec.dict.encodes_abandoned";
inline constexpr char kExecDictTotalEntries[] = "exec.dict.total_entries";
inline constexpr char kExecGatherRows[] = "exec.gather.rows";
inline constexpr char kExecFilterSelectionVectors[] =
    "exec.filter.selection_vectors";
inline constexpr char kExecFilterDictPredicates[] =
    "exec.filter.dict_predicates";

// ------------------------------------------- PlanExecutor suffixes (+prefix)
inline constexpr char kSuffixPlansRun[] = ".plans_run";
inline constexpr char kSuffixStagesRun[] = ".stages_run";

// --------------------------------------------- ThreadPool suffixes (+prefix)
inline constexpr char kSuffixWorkers[] = ".workers";
inline constexpr char kSuffixTasksSubmitted[] = ".tasks_submitted";
inline constexpr char kSuffixTasksRun[] = ".tasks_run";
inline constexpr char kSuffixSteals[] = ".steals";
inline constexpr char kSuffixTasksStolen[] = ".tasks_stolen";
inline constexpr char kSuffixHelperRuns[] = ".helper_runs";
inline constexpr char kSuffixBusyMicros[] = ".busy_micros";
inline constexpr char kSuffixMaxQueueDepth[] = ".max_queue_depth";

// ------------------------------------------- ShuffleLayer suffixes (+prefix)
inline constexpr char kSuffixWrittenBytes[] = ".written_bytes";
inline constexpr char kSuffixFallbackBytes[] = ".fallback_bytes";
inline constexpr char kSuffixNodesCrashed[] = ".nodes_crashed";
inline constexpr char kSuffixPartitionsLost[] = ".partitions_lost";
inline constexpr char kSuffixUnmatchedReads[] = ".unmatched_reads";
inline constexpr char kSuffixResidentBytes[] = ".resident_bytes";
inline constexpr char kSuffixFleet[] = ".fleet";

// -------------------------------------------- ElasticPool suffixes (+prefix)
inline constexpr char kSuffixInvocations[] = ".invocations";
inline constexpr char kSuffixThrottled[] = ".throttled";
inline constexpr char kSuffixBilledMs[] = ".billed_ms";
inline constexpr char kSuffixPeakActive[] = ".peak_active";

// ------------------------------------------------ VmFleet suffixes (+prefix)
inline constexpr char kSuffixVmsStarted[] = ".vms_started";
inline constexpr char kSuffixVmsTerminated[] = ".vms_terminated";
inline constexpr char kSuffixVmsInterrupted[] = ".vms_interrupted";
inline constexpr char kSuffixLaunchFailures[] = ".launch_failures";
inline constexpr char kSuffixRuntimeMs[] = ".runtime_ms";
inline constexpr char kSuffixTarget[] = ".target";
inline constexpr char kSuffixReady[] = ".ready";

// -------------------------------------------- ObjectStore suffixes (+prefix)
inline constexpr char kSuffixPuts[] = ".puts";
inline constexpr char kSuffixGets[] = ".gets";
inline constexpr char kSuffixRetries[] = ".retries";
inline constexpr char kSuffixObjects[] = ".objects";
inline constexpr char kSuffixBytesStored[] = ".bytes_stored";
inline constexpr char kSuffixPeakBytesStored[] = ".peak_bytes_stored";
inline constexpr char kSuffixCircuitOpen[] = ".circuit_open";
inline constexpr char kSuffixCircuitRejections[] = ".circuit_rejections";
inline constexpr char kSuffixCircuitHalfOpens[] = ".circuit_half_opens";

}  // namespace metric_names

/// \brief Composes "prefix" + ".suffix" from registry constants so readers
/// and writers of a prefixed metric share the exact same tokens.
inline std::string JoinMetricName(const char* prefix, const char* suffix) {
  std::string name(prefix);
  name += suffix;
  return name;
}

}  // namespace cackle

#endif  // CACKLE_COMMON_METRIC_NAMES_H_
