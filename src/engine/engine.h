#ifndef CACKLE_ENGINE_ENGINE_H_
#define CACKLE_ENGINE_ENGINE_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cloud/billing.h"
#include "cloud/chaos_timeline.h"
#include "cloud/cost_model.h"
#include "cloud/elastic_pool.h"
#include "cloud/fault_injector.h"
#include "cloud/object_store.h"
#include "cloud/spot_market.h"
#include "cloud/vm_fleet.h"
#include "common/arena.h"
#include "common/circuit_breaker.h"
#include "common/observability.h"
#include "common/retry_policy.h"
#include "common/stats.h"
#include "common/thread_annotations.h"
#include "engine/shuffle_layer.h"
#include "sim/simulation.h"
#include "strategy/dynamic_strategy.h"
#include "strategy/workload_history.h"
#include "workload/profile_library.h"
#include "workload/workload_generator.h"

namespace cackle {

/// \brief Admission control for graceful degradation under chaos. Disabled
/// by default: every arriving query starts immediately, exactly as before.
struct AdmissionControlOptions {
  /// Survivability threshold: a query arriving while at least this many
  /// tasks are running (or while earlier arrivals of its tenant are already
  /// queued) is deferred to the admission queue instead of started. 0
  /// disables admission control entirely.
  int64_t max_outstanding_tasks = 0;
  /// SLO deadline for queued *interactive* queries: one still waiting for
  /// admission this long after arrival is shed — a first-class outcome, not
  /// lost work. Batch queries are never shed (they tolerate delay by
  /// definition). 0 = defer indefinitely, never shed.
  SimTimeMs shed_after_ms = 0;

  bool enabled() const { return max_outstanding_tasks > 0; }
};

/// \brief Configuration of an engine run.
struct EngineOptions {
  /// Provisioning policy for the compute fleet. When `use_dynamic` is false,
  /// a fixed target of `fixed_target` VMs is used instead (fixed_0 = pure
  /// elastic execution, i.e. Starling).
  bool use_dynamic = true;
  int64_t fixed_target = 0;
  DynamicStrategyOptions dynamic;

  /// Model the shuffling layer (shuffle nodes + object-store fallback).
  bool enable_shuffle = true;

  /// Relative task speed on provisioned VMs. The paper's algorithm assumes
  /// parity (1.0) but measures VMs ~25% faster in practice (Section 7.1.2);
  /// set 1.25 to reproduce that divergence.
  double vm_speedup = 1.0;

  /// Record per-second series (demand, target, active VMs) for Figure 12.
  bool record_series = false;

  /// Upper bound on how long a batch task waits for an idle VM before it
  /// escalates to the elastic pool anyway (batch work tolerates delay but
  /// still has an SLA).
  SimTimeMs max_batch_delay_ms = 30 * kMillisPerMinute;

  /// Spot interruptions: mean VM lifetime in hours before the provider
  /// reclaims it (exponentially distributed); 0 disables. Tasks running on
  /// a reclaimed VM are retried immediately (usually on the elastic pool).
  double spot_mean_lifetime_hours = 0.0;

  /// Injected fault rates for the cloud substrate (all zero by default,
  /// which is bit-identical to a fault-free run).
  FaultProfile faults;

  /// Temporal fault processes (outage windows, reclamation storms, store
  /// brownouts, price shocks) layered on top of the memoryless rates. The
  /// default (no processes) adds no timeline and is bit-identical.
  ChaosTimelineOptions chaos;

  /// Backoff policy for elastic placements rejected by the concurrency
  /// limit. Unlimited attempts: a task is never dropped, it keeps backing
  /// off (capped) until the pool admits it or a VM frees up. Setting
  /// `max_elapsed_ms` adds a retry *budget*: a task throttled for that much
  /// cumulative simulated time stops hammering the pool and parks in a
  /// deferred queue the coordinator re-admits later (still never lost).
  RetryPolicyOptions elastic_retry{/*max_attempts=*/0,
                                   /*initial_backoff_ms=*/200,
                                   /*multiplier=*/2.0,
                                   /*max_backoff_ms=*/10'000,
                                   /*jitter=*/0.25,
                                   /*deadline_ms=*/0};

  /// Admission control / load shedding (disabled by default).
  AdmissionControlOptions admission;

  /// Circuit breaker on the object store's retrying Put/Get wrappers
  /// (disabled by default: zero failure_threshold).
  CircuitBreakerOptions store_breaker;

  /// Hedged shuffle reads: when a brownout inflates a stage's store-read
  /// latency beyond this, issue (and bill) a duplicate GET and take the
  /// faster of the two. 0 disables hedging.
  SimTimeMs hedge_after_ms = 0;

  /// Straggler mitigation: an elastic task still running after
  /// `straggler_timeout_multiplier` times its expected duration gets a
  /// speculative second copy; first finisher wins. Active only when the
  /// fault profile injects stragglers; 0 disables speculation entirely.
  double straggler_timeout_multiplier = 2.0;

  /// Cold-start priming (Section 4.4.6): an expected demand curve appended
  /// to the workload history before execution begins, so the meta-strategy
  /// starts with differentiated expert weights instead of fluctuating
  /// through the first minutes. Empty = cold start.
  std::vector<int64_t> primed_history;

  /// Observability sink (not owned; must outlive the engine). When set, the
  /// engine records metrics, per-query spans, and per-query cost
  /// attribution into it; null disables recording. Either way the run is
  /// bit-identical — every sink is pure bookkeeping (no randomness, no
  /// scheduled events), the same zero-cost contract as the fault injector.
  Observability* observability = nullptr;

  uint64_t seed = 1234;
};

/// \brief Result of an engine run.
struct EngineResult {
  /// Interactive query latencies; batch queries are tracked separately.
  SampleSet latencies_s;
  SampleSet batch_latencies_s;
  BillingMeter billing;
  SimTimeMs makespan_ms = 0;
  int64_t tasks_on_vms = 0;
  int64_t tasks_on_elastic = 0;
  int64_t queries_completed = 0;
  int64_t peak_concurrent_tasks = 0;
  /// Tasks restarted because their VM was reclaimed mid-run.
  int64_t tasks_retried = 0;
  int64_t vms_interrupted = 0;
  /// Batch tasks that waited in the batch queue for an idle VM.
  int64_t batch_tasks_delayed = 0;
  /// Batch tasks that hit max_batch_delay and ran on the elastic pool.
  int64_t batch_tasks_escalated = 0;
  int64_t shuffle_fallback_bytes = 0;
  int64_t shuffle_written_bytes = 0;
  // --- Chaos counters (all zero when no faults are injected) ---
  /// Elastic requests rejected by the concurrency limit (then backed off).
  int64_t elastic_throttled = 0;
  /// Elastic invocations that failed mid-run and were re-placed.
  int64_t elastic_failures = 0;
  /// Object-store request attempts beyond the first (transient errors).
  int64_t store_retries = 0;
  /// VM/shuffle-node launches that failed and were re-requested.
  int64_t vm_launch_failures = 0;
  /// Shuffle nodes crashed by fault injection.
  int64_t shuffle_nodes_crashed = 0;
  /// Node-resident shuffle partitions destroyed by crashes.
  int64_t shuffle_partitions_lost = 0;
  /// Producing stages re-executed to regenerate lost partitions.
  int64_t stages_reexecuted = 0;
  /// Speculative copies launched for straggling elastic tasks.
  int64_t tasks_speculated = 0;
  // --- Graceful-degradation outcomes (all zero without chaos knobs) ---
  /// Interactive queries shed by admission control after missing their
  /// queueing SLO. Shed queries are first-class outcomes: they appear in
  /// the cost ledger (as zero-cost rows) and queries_completed +
  /// queries_shed always equals the arrival count.
  int64_t queries_shed = 0;
  /// Queries that waited in the admission queue before starting.
  int64_t queries_deferred = 0;
  /// Peak admission-queue length observed.
  int64_t admission_queue_peak = 0;
  /// Elastic placements that exhausted their cumulative retry budget and
  /// were parked for later re-admission.
  int64_t retry_budget_exhausted = 0;
  /// Brownout-delayed shuffle reads that issued a hedged duplicate GET.
  int64_t hedged_reads = 0;
  /// Hedged duplicates that beat the original read.
  int64_t hedged_wins = 0;
  /// VMs reclaimed by reclamation-storm bursts (also in vms_interrupted).
  int64_t storm_reclaims = 0;
  /// Object-store circuit breaker: closed->open trips.
  int64_t store_circuit_trips = 0;
  /// Attempts rejected (unbilled) while the breaker was open.
  int64_t store_circuit_rejections = 0;
  // --- Multi-tenant outcomes ---
  /// Per-tenant slice of the run, keyed by tenant id (a single-tenant run
  /// has one entry, for tenant 0). Latencies are interactive-only,
  /// mirroring `latencies_s`; `invoice_dollars` is the tenant's exact share
  /// of the final bill (the ledger's tenant invoice total; 0 when no
  /// observability ledger is attached).
  struct TenantOutcome {
    int64_t queries_completed = 0;
    int64_t queries_shed = 0;
    int64_t queries_deferred = 0;
    double invoice_dollars = 0.0;
    SampleSet latencies_s;
  };
  std::map<int32_t, TenantOutcome> tenants;
  /// Peak length of any single tenant's admission queue.
  int64_t tenant_queue_peak = 0;
  /// Per-second series (when requested).
  std::vector<int64_t> demand_series;
  std::vector<int64_t> target_series;
  std::vector<int64_t> active_vm_series;

  double compute_cost() const { return billing.ComputeDollars(); }
  double total_cost() const { return billing.TotalDollars(); }
};

/// \brief The Cackle engine running against the simulated cloud substrate.
///
/// This is the "real execution" track that validates the analytical model
/// (Figures 12/13): a coordinator receives query DAGs, schedules every task
/// the moment its stage is ready — on an idle provisioned VM if one exists,
/// otherwise on the elastic pool — keeps the second-granularity workload
/// history, and re-runs the provisioning strategy every second (the dynamic
/// meta-strategy re-selects its expert every five). The shuffling layer
/// stores stage outputs on shuffle nodes with object-store fallback.
///
/// Graceful degradation under injected faults: throttled elastic requests
/// back off and retry, mid-run invocation failures re-place the task (same
/// path as spot interruptions), lost shuffle partitions re-execute their
/// producing stage, and straggling elastic tasks get a speculative copy.
/// Every fault path preserves the invariant that all queries complete.
class CACKLE_THREAD_CONFINED(
    "admission queues and all scheduling state belong to one "
    "single-threaded Simulation; sweeps parallelize across engines, "
    "never within one")
CackleEngine {
 public:
  CackleEngine(const CostModel* cost, EngineOptions options);
  ~CackleEngine();

  /// Runs the workload to completion and returns measurements.
  EngineResult Run(const std::vector<QueryArrival>& arrivals,
                   const ProfileLibrary& library);

 private:
  struct QueryState;

  /// Identifies the logical task a placement belongs to. `recovery` marks
  /// re-execution of an already-finished stage to regenerate shuffle
  /// partitions lost to a node crash; recovery completions feed the
  /// recovery bookkeeping instead of the stage DAG.
  struct TaskRef {
    int64_t query_id = 0;
    int stage_id = 0;
    bool recovery = false;
  };

  void CoordinatorTick();
  /// Arrival entry point: starts the query immediately, or defers it to the
  /// admission queue when admission control is on and the engine is over
  /// its survivability threshold.
  void OnQueryArrival(int64_t query_id);
  /// Opens the query span and schedules its ready stages.
  void StartQuery(int64_t query_id);
  /// Sheds a queued interactive query that missed its queueing SLO: a
  /// first-class outcome (counted, traced, zero-cost ledger row), never
  /// silent loss.
  void ShedQuery(int64_t query_id);
  /// Sheds overdue queued interactive queries, then admits across the
  /// tenant queues round robin, one query per tenant per turn, while below
  /// the survivability threshold. With one tenant this is a FIFO drain.
  void DrainAdmissionQueue();
  /// Re-places tasks parked by an exhausted elastic retry budget.
  void DrainDeferredTasks();
  void ScheduleStage(int64_t query_id, int stage_id);
  /// Launches every task of a scheduled stage (split out of ScheduleStage
  /// so brownout-delayed shuffle reads can defer the launch).
  void LaunchStageTasks(int64_t query_id, int stage_id);
  void RunTask(TaskRef ref, SimTimeMs duration_ms);
  /// Places a (possibly retried) task on a VM or the elastic pool without
  /// touching the running-task accounting. `attempt` counts elastic
  /// throttle rejections for backoff growth; `backoff_elapsed_ms` is the
  /// cumulative throttle backoff already spent, charged against the elastic
  /// retry budget when one is configured.
  void PlaceTask(TaskRef ref, SimTimeMs duration_ms, int attempt = 0,
                 SimTimeMs backoff_elapsed_ms = 0);
  /// VM-only placement; returns false when no idle VM exists.
  bool TryPlaceOnVm(TaskRef ref, SimTimeMs duration_ms);
  /// Elastic placement with throttle backoff, fault sampling, and
  /// speculative re-execution.
  void PlaceOnElastic(TaskRef ref, SimTimeMs duration_ms, int attempt,
                      SimTimeMs backoff_elapsed_ms);
  void OnElasticGranted(int64_t run_id, ElasticSlotId slot);
  void OnElasticAttemptDone(int64_t run_id, ElasticSlotId slot);
  void OnElasticAttemptFailed(int64_t run_id, ElasticSlotId slot);
  void MaybeSpeculate(int64_t run_id);
  bool SpeculationEnabled() const {
    return options_.straggler_timeout_multiplier > 0.0 &&
           options_.faults.elastic_straggler_rate > 0.0;
  }
  /// Starts queued batch tasks on idle VMs (escalating overdue ones).
  void DrainBatchQueue();
  /// Parent span for a task of `ref`: its stage span, except recovery
  /// re-executions, which can outlive the query span and therefore trace
  /// as roots (tagged with their query).
  SpanId TaskParentSpan(const TaskRef& ref) const;
  /// Opens a folded "task" span tagged with its placement; no-op when
  /// disabled.
  SpanId BeginTaskSpan(const TaskRef& ref, const char* placement,
                       bool speculative);
  /// Attributes one elastic slot's bill (the exact ElasticCost the pool
  /// charges for `held_ms`) to `query_id`.
  void AttributeElastic(int64_t query_id, SimTimeMs held_ms);
  void OnVmInterrupted(VmId vm);
  void OnShufflePartitionsLost(int64_t query_id, int stage_id,
                               int64_t lost_bytes, int64_t lost_partitions);
  void OnRecoveryTaskDone(TaskRef ref);
  void OnTaskDone(TaskRef ref);
  void OnStageDone(int64_t query_id, int stage_id);
  void OnQueryDone(int64_t query_id);
  int32_t QueryTenant(int64_t query_id) const;
  /// Running-task accounting: the global counter plus (in multi-tenant runs
  /// only) the per-tenant mirror feeding the demand mix.
  void TaskStarted(int64_t query_id);
  void TaskFinished(int64_t query_id);

  const CostModel* cost_;
  EngineOptions options_;

  Simulation sim_;
  BillingMeter meter_;
  std::unique_ptr<FaultInjector> injector_;
  Rng chaos_rng_;
  std::unique_ptr<RetryPolicy> elastic_retry_policy_;
  /// Non-null only when the chaos timeline has price shocks: the main
  /// fleet's VMs are then priced by this market instead of the flat rate.
  std::unique_ptr<SpotMarket> spot_market_;
  std::unique_ptr<VmFleet> fleet_;
  std::unique_ptr<ElasticPool> pool_;
  std::unique_ptr<ObjectStore> object_store_;
  std::unique_ptr<ShuffleLayer> shuffle_;
  std::unique_ptr<ProvisioningStrategy> strategy_;
  WorkloadHistory history_;

  /// The task running on busy VM `vm`.
  struct VmTask {
    TaskRef ref;
    SimTimeMs duration_ms;
    uint64_t completion_event;
    SpanId span = kInvalidSpan;
    VmId vm = 0;
  };
  /// Records `task` as running on its VM.
  void AddVmTask(const VmTask& task);
  /// Removes and returns the task running on busy VM `vm`.
  VmTask TakeVmTask(VmId vm);

  struct BatchTask {
    TaskRef ref;
    SimTimeMs duration_ms;
    SimTimeMs enqueued_ms;
    SpanId queued_span = kInvalidSpan;
  };

  /// A query waiting in the admission queue.
  struct AdmissionEntry {
    int64_t query_id = 0;
    SimTimeMs arrival_ms = 0;
  };

  /// A task parked after exhausting its elastic retry budget; re-placed by
  /// the next coordinator drain with a fresh budget.
  struct DeferredTask {
    TaskRef ref;
    SimTimeMs duration_ms = 0;
  };

  /// One granted elastic slot executing (one attempt of) a task.
  struct ElasticAttempt {
    ElasticSlotId slot = 0;
    uint64_t event = 0;       // completion/failure event, cancellable
    SimTimeMs grant_ms = 0;   // when the slot started (and began billing)
    SpanId span = kInvalidSpan;
  };

  /// One logical elastic task: its primary attempt plus (at most) one
  /// speculative copy. Slots in `live` are granted and running; `starting`
  /// counts admitted requests still inside their startup latency.
  /// Runs are recycled slots of elastic_runs_, named by (generation,
  /// slot) ids so that events of a finished run find nothing.
  struct ElasticRun {
    TaskRef ref;
    SimTimeMs duration_ms = 0;
    int starting = 0;
    bool speculated = false;
    bool open = false;
    uint32_t generation = 0;
    std::vector<ElasticAttempt> live;
  };
  /// The open elastic run `run_id` names, or null once it has closed.
  ElasticRun* FindElasticRun(int64_t run_id);
  void CloseElasticRun(int64_t run_id);

  /// Re-execution of a producing stage after a shuffle-node crash.
  struct Recovery {
    int tasks_remaining = 0;
    int64_t lost_bytes = 0;
    int64_t lost_partitions = 0;
  };

  /// Observability plumbing. `metrics_` always points at a live registry —
  /// the external sink's when one is attached, otherwise `own_metrics_` —
  /// so the hot-path counters below are unconditional. `tracer_` likewise
  /// points at a disabled tracer when no sink is attached (Begin() then
  /// returns kInvalidSpan and every other call no-ops). `ledger_` is null
  /// when disabled.
  Observability* obs_ = nullptr;
  MetricsRegistry own_metrics_;
  Tracer disabled_tracer_;
  MetricsRegistry* metrics_ = nullptr;
  Tracer* tracer_ = nullptr;
  CostLedger* ledger_ = nullptr;
  /// Cached handles into `metrics_` (the registry is the source of truth
  /// for these counts; EngineResult is filled from it at the end of Run).
  Counter* tasks_on_vms_ = nullptr;
  Counter* tasks_on_elastic_ = nullptr;
  Counter* tasks_retried_ = nullptr;
  Counter* tasks_speculated_ = nullptr;
  Counter* batch_tasks_delayed_ = nullptr;
  Counter* batch_tasks_escalated_ = nullptr;
  Counter* elastic_failures_ = nullptr;
  Counter* stages_reexecuted_ = nullptr;
  Counter* shuffle_partitions_lost_ = nullptr;
  Counter* queries_completed_ = nullptr;
  Counter* queries_shed_ = nullptr;
  Counter* queries_deferred_ = nullptr;
  Counter* retry_budget_exhausted_ = nullptr;
  Counter* hedged_reads_ = nullptr;
  Counter* hedged_wins_ = nullptr;
  Counter* storm_reclaims_ = nullptr;
  Histogram* query_latency_s_ = nullptr;
  Histogram* batch_latency_s_ = nullptr;

  std::vector<QueryState> queries_;
  /// Stage countdown bookkeeping in struct-of-arrays layout: one flat
  /// int32 array per counter kind for ALL queries' stages, indexed by
  /// `stage_offsets_[query] + stage`. OnTaskDone/OnStageDone decrement
  /// these on every simulated task completion; keeping them contiguous
  /// (instead of a per-query heap vector inside QueryState) removes a
  /// pointer chase from the hottest loop in the simulator and keeps
  /// neighbouring queries' counters on shared cache lines.
  std::vector<int32_t> deps_remaining_;
  std::vector<int32_t> tasks_remaining_;
  std::vector<int64_t> stage_offsets_;
  int32_t& DepsRemaining(int64_t query_id, size_t stage) {
    return deps_remaining_[static_cast<size_t>(
                               stage_offsets_[static_cast<size_t>(query_id)]) +
                           stage];
  }
  int32_t& TasksRemaining(int64_t query_id, size_t stage) {
    return tasks_remaining_[static_cast<size_t>(stage_offsets_[static_cast<
                                size_t>(query_id)]) +
                            stage];
  }
  std::deque<BatchTask> batch_queue_;
  /// One admission queue per tenant, present only while non-empty (map
  /// order gives the deterministic tenant visit order).
  std::map<int32_t, std::deque<AdmissionEntry>> admission_queues_;
  int64_t admission_queued_total_ = 0;
  /// Resume point of the round-robin scan: the first tenant with id >= the
  /// cursor is served next (wrapping past the largest id).
  int32_t drr_cursor_ = 0;
  std::deque<DeferredTask> deferred_tasks_;
  int64_t admission_queue_peak_ = 0;
  int64_t tenant_queue_peak_ = 0;
  int64_t drr_rounds_ = 0;
  /// Tasks on busy VMs, in no particular order; each VM's busy tag in the
  /// fleet is its task's index here.
  std::vector<VmTask> vm_tasks_;
  SlabPool<ElasticRun> elastic_runs_;
  std::map<std::pair<int64_t, int>, Recovery> recoveries_;
  EngineResult result_;
  int64_t running_tasks_ = 0;
  int64_t second_max_tasks_ = 0;
  /// True when any arrival carries a nonzero tenant id; gates the
  /// per-tenant mirrors below so single-tenant hot paths never touch them.
  bool multi_tenant_ = false;
  std::map<int32_t, int64_t> running_by_tenant_;
  std::map<int32_t, int64_t> second_max_by_tenant_;
  int64_t queries_remaining_ = 0;
  bool workload_done_ = false;
};

}  // namespace cackle

#endif  // CACKLE_ENGINE_ENGINE_H_
