#include "engine/engine.h"

#include <algorithm>

#include "common/logging.h"
#include "common/metric_names.h"

namespace cackle {

namespace mn = metric_names;

namespace {
// Named RNG sub-stream tags (folded into the run seed via Rng::StreamSeed).
// The values are the historical ad-hoc XOR constants, kept verbatim so the
// migration to named streams is bit-identical.
constexpr uint64_t kChaosStreamTag = 0xbac0ffULL;
constexpr uint64_t kFaultInjectorStreamTag = 0xfa017ULL;
constexpr uint64_t kDynamicStrategyStreamTag = 0x5eedULL;
constexpr uint64_t kSpotInterruptionStreamTag = 0xdeadULL;
}  // namespace

struct CackleEngine::QueryState {
  const QueryProfile* profile = nullptr;
  SimTimeMs arrival_ms = 0;
  bool batch = false;
  int32_t tenant = 0;
  // Per-stage deps/tasks countdowns live in the engine-level flat arrays
  // (deps_remaining_/tasks_remaining_ via stage_offsets_), not here: the
  // struct-of-arrays layout keeps the per-task hot path off per-query heap
  // allocations.
  int stages_remaining = 0;
  bool done = false;
  SpanId span = kInvalidSpan;
  std::vector<SpanId> stage_spans;
};

CackleEngine::CackleEngine(const CostModel* cost, EngineOptions options)
    : cost_(cost), options_(std::move(options)),
      chaos_rng_(Rng::StreamSeed(options_.seed, kChaosStreamTag)) {
  obs_ = options_.observability;
  metrics_ = obs_ != nullptr ? &obs_->metrics : &own_metrics_;
  tracer_ = obs_ != nullptr ? &obs_->tracer : &disabled_tracer_;
  tasks_on_vms_ = metrics_->GetCounter(mn::kEngineTasksOnVms);
  tasks_on_elastic_ = metrics_->GetCounter(mn::kEngineTasksOnElastic);
  tasks_retried_ = metrics_->GetCounter(mn::kEngineTasksRetried);
  tasks_speculated_ = metrics_->GetCounter(mn::kEngineTasksSpeculated);
  batch_tasks_delayed_ = metrics_->GetCounter(mn::kEngineBatchTasksDelayed);
  batch_tasks_escalated_ =
      metrics_->GetCounter(mn::kEngineBatchTasksEscalated);
  elastic_failures_ = metrics_->GetCounter(mn::kEngineElasticFailures);
  stages_reexecuted_ = metrics_->GetCounter(mn::kEngineStagesReexecuted);
  shuffle_partitions_lost_ =
      metrics_->GetCounter(mn::kEngineShufflePartitionsLost);
  queries_completed_ = metrics_->GetCounter(mn::kEngineQueriesCompleted);
  queries_shed_ = metrics_->GetCounter(mn::kEngineShedQueries);
  queries_deferred_ = metrics_->GetCounter(mn::kEngineDeferredQueries);
  retry_budget_exhausted_ =
      metrics_->GetCounter(mn::kEngineRetryBudgetExhausted);
  hedged_reads_ = metrics_->GetCounter(mn::kEngineHedgedReads);
  hedged_wins_ = metrics_->GetCounter(mn::kEngineHedgedWins);
  storm_reclaims_ = metrics_->GetCounter(mn::kEngineStormReclaims);
  query_latency_s_ = metrics_->GetHistogram(mn::kEngineQueryLatencyS);
  batch_latency_s_ = metrics_->GetHistogram(mn::kEngineBatchLatencyS);
  injector_ = std::make_unique<FaultInjector>(
      options_.faults, options_.chaos,
      Rng::StreamSeed(options_.seed, kFaultInjectorStreamTag));
  elastic_retry_policy_ =
      std::make_unique<RetryPolicy>(options_.elastic_retry, &chaos_rng_);
  if (injector_->timeline() != nullptr &&
      !injector_->timeline()->price_shock_windows().empty()) {
    // Price shocks re-price the main fleet through a spot market built from
    // the precomputed shock windows. Without shocks the market stays null
    // and the flat CostModel rate applies, exactly as before.
    spot_market_ = std::make_unique<SpotMarket>(
        injector_->timeline()->PriceBreakpoints(cost_->vm_cost_per_hour));
  }
  fleet_ = std::make_unique<VmFleet>(&sim_, cost_, &meter_,
                                     spot_market_.get());
  pool_ = std::make_unique<ElasticPool>(&sim_, cost_, &meter_,
                                        Rng(options_.seed));
  object_store_ = std::make_unique<ObjectStore>(cost_, &meter_);
  object_store_->SetSimulation(&sim_);
  object_store_->EnableCircuitBreaker(options_.store_breaker);
  shuffle_ = std::make_unique<ShuffleLayer>(&sim_, cost_, &meter_,
                                            object_store_.get());
  fleet_->SetFaultInjector(injector_.get());
  pool_->SetFaultInjector(injector_.get());
  object_store_->SetFaultInjector(injector_.get());
  shuffle_->SetFaultInjector(injector_.get());
  if (obs_ != nullptr) {
    // The ledger schema mirrors the BillingMeter categories one-to-one so
    // FinalizeAgainst can close the books against the real bill.
    std::vector<std::string> category_names;
    for (int c = 0; c < static_cast<int>(CostCategory::kNumCategories); ++c) {
      category_names.emplace_back(
          CostCategoryName(static_cast<CostCategory>(c)));
    }
    obs_->ledger.EnsureCategories(category_names);
    ledger_ = &obs_->ledger;
    shuffle_->SetCostLedger(ledger_);
  }
  shuffle_->SetOnPartitionsLost(
      [this](int64_t query_id, int stage_id, int64_t lost_bytes,
             int64_t lost_partitions) {
        OnShufflePartitionsLost(query_id, stage_id, lost_bytes,
                                lost_partitions);
      });
  if (options_.use_dynamic) {
    DynamicStrategyOptions dyn = options_.dynamic;
    dyn.seed = Rng::StreamSeed(options_.seed, kDynamicStrategyStreamTag);
    strategy_ = std::make_unique<DynamicStrategy>(cost_, dyn);
  } else {
    strategy_ = std::make_unique<FixedStrategy>(options_.fixed_target);
  }
  strategy_->SetObservability(metrics_, tracer_);
  if (options_.spot_mean_lifetime_hours > 0.0) {
    fleet_->EnableInterruptions(
        Rng::StreamSeed(options_.seed, kSpotInterruptionStreamTag),
        options_.spot_mean_lifetime_hours);
  }
  // Reclamation storms interrupt busy VMs even without the per-VM lifetime
  // model, so the rescue callback is always installed (installing it is
  // pure bookkeeping; it only fires on interruptions).
  fleet_->SetOnVmInterrupted([this](VmId vm) { OnVmInterrupted(vm); });
}

CackleEngine::~CackleEngine() = default;

int32_t CackleEngine::QueryTenant(int64_t query_id) const {
  return queries_[static_cast<size_t>(query_id)].tenant;
}

void CackleEngine::TaskStarted(int64_t query_id) {
  ++running_tasks_;
  second_max_tasks_ = std::max(second_max_tasks_, running_tasks_);
  if (multi_tenant_) {
    const int32_t tenant = QueryTenant(query_id);
    const int64_t running = ++running_by_tenant_[tenant];
    int64_t& peak = second_max_by_tenant_[tenant];
    peak = std::max(peak, running);
  }
}

void CackleEngine::TaskFinished(int64_t query_id) {
  --running_tasks_;
  if (multi_tenant_) {
    const auto it = running_by_tenant_.find(QueryTenant(query_id));
    CACKLE_CHECK(it != running_by_tenant_.end());
    if (--it->second == 0) running_by_tenant_.erase(it);
  }
}

void CackleEngine::CoordinatorTick() {
  // Record this second's peak concurrent task demand.
  const int64_t demand = std::max(second_max_tasks_, running_tasks_);
  second_max_tasks_ = running_tasks_;
  history_.Append(demand);
  result_.peak_concurrent_tasks =
      std::max(result_.peak_concurrent_tasks, demand);
  if (multi_tenant_) {
    // Per-tenant breakdown of the same demand sample for tenant-aware
    // strategies (ascending tenant order, zero-demand tenants omitted).
    // Never fed in single-tenant runs, so those stay bit-identical.
    std::map<int32_t, int64_t> tenant_demand = second_max_by_tenant_;
    for (const auto& [tenant, running] : running_by_tenant_) {
      int64_t& d = tenant_demand[tenant];
      d = std::max(d, running);
    }
    second_max_by_tenant_ = running_by_tenant_;
    if (!workload_done_) {
      std::vector<TenantDemand> mix;
      mix.reserve(tenant_demand.size());
      for (const auto& [tenant, tenant_peak] : tenant_demand) {
        if (tenant_peak > 0) mix.push_back(TenantDemand{tenant, tenant_peak});
      }
      if (!mix.empty()) strategy_->ObserveTenantDemand(mix);
    }
  }

  // A tick scheduled before the workload drained may still fire once after
  // completion; it must not re-raise the target or (with spot
  // interruptions) the reclaim-replenish loop would run forever.
  const int64_t target = workload_done_ ? 0 : strategy_->Target(history_);
  fleet_->SetTarget(target);
  if (injector_->HasStorms()) {
    // Reclamation-storm burst: the provider claws back a fraction of the
    // ready fleet this second, busy VMs included (their tasks are rescued
    // through the normal interruption path).
    const int64_t reclaims = injector_->SampleStormReclaims(
        fleet_->num_ready(), sim_.NowMs(), kMillisPerSecond);
    if (reclaims > 0) {
      storm_reclaims_->Increment(fleet_->InterruptN(reclaims));
    }
  }
  if (options_.enable_shuffle) shuffle_->Tick();
  DrainAdmissionQueue();
  DrainBatchQueue();

  if (options_.record_series) {
    result_.demand_series.push_back(demand);
    result_.target_series.push_back(target);
    result_.active_vm_series.push_back(fleet_->num_ready());
  }

  if (!workload_done_) {
    sim_.ScheduleAfter(kMillisPerSecond, [this] { CoordinatorTick(); });
  }
}

void CackleEngine::OnQueryArrival(int64_t query_id) {
  if (options_.admission.enabled()) {
    const int32_t tenant = QueryTenant(query_id);
    const bool global_full =
        running_tasks_ >= options_.admission.max_outstanding_tasks;
    // Map presence == non-empty queue (empty tenant queues are erased).
    const bool tenant_queued = admission_queues_.count(tenant) > 0;
    if (global_full || tenant_queued) {
      // Over the survivability threshold (or behind earlier deferred
      // arrivals of the same tenant): defer instead of piling more tasks
      // onto a melting substrate. Per-tenant FIFO order is preserved — a
      // query never overtakes an earlier deferred one from its own tenant.
      // A query enters the admission queue at most once, so this counter is
      // incremented at most once per query (deferred-then-shed queries
      // count in both tallies).
      queries_deferred_->Increment();
      ++result_.tenants[tenant].queries_deferred;
      std::deque<AdmissionEntry>& entries = admission_queues_[tenant];
      entries.push_back(AdmissionEntry{query_id, sim_.NowMs()});
      ++admission_queued_total_;
      admission_queue_peak_ =
          std::max(admission_queue_peak_, admission_queued_total_);
      tenant_queue_peak_ = std::max(tenant_queue_peak_,
                                    static_cast<int64_t>(entries.size()));
      return;
    }
  }
  StartQuery(query_id);
}

void CackleEngine::StartQuery(int64_t query_id) {
  QueryState& state = queries_[static_cast<size_t>(query_id)];
  state.span = tracer_->Begin("query", sim_.NowMs(), kInvalidSpan, query_id);
  tracer_->Tag(state.span, "type", state.batch ? "batch" : "interactive");
  state.stage_spans.assign(state.profile->stages.size(), kInvalidSpan);
  for (size_t s = 0; s < state.profile->stages.size(); ++s) {
    if (DepsRemaining(query_id, s) == 0) {
      ScheduleStage(query_id, static_cast<int>(s));
    }
  }
}

void CackleEngine::ShedQuery(int64_t query_id) {
  QueryState& state = queries_[static_cast<size_t>(query_id)];
  CACKLE_CHECK(!state.done);
  CACKLE_CHECK(!state.batch) << "batch queries are deferred, never shed";
  state.done = true;
  queries_shed_->Increment();
  ++result_.tenants[state.tenant].queries_shed;
  const SpanId span =
      tracer_->Begin("query", sim_.NowMs(), kInvalidSpan, query_id);
  tracer_->Tag(span, "type", "interactive");
  tracer_->Tag(span, "outcome", "shed");
  tracer_->End(span, sim_.NowMs());
  // A shed query is a first-class outcome in the books: a zero-cost row,
  // not a missing one.
  if (ledger_ != nullptr) ledger_->Touch(query_id);
  result_.makespan_ms = std::max(result_.makespan_ms, sim_.NowMs());
  if (--queries_remaining_ == 0) {
    workload_done_ = true;
    fleet_->SetTarget(0);
  }
}

void CackleEngine::DrainAdmissionQueue() {
  if (admission_queued_total_ == 0) return;
  // SLO pass first: overdue interactive queries anywhere in any tenant's
  // queue are shed; batch entries just keep waiting (delay-tolerant by
  // contract). Tenants are visited in ascending id order and entries in
  // FIFO order, so the pass is deterministic across scheduler backends.
  const SimTimeMs shed_after = options_.admission.shed_after_ms;
  if (shed_after > 0) {
    for (auto qit = admission_queues_.begin();
         qit != admission_queues_.end();) {
      auto& entries = qit->second;
      for (auto it = entries.begin(); it != entries.end();) {
        const QueryState& state = queries_[static_cast<size_t>(it->query_id)];
        if (!state.batch && sim_.NowMs() - it->arrival_ms >= shed_after) {
          ShedQuery(it->query_id);
          it = entries.erase(it);
          --admission_queued_total_;
        } else {
          ++it;
        }
      }
      qit = entries.empty() ? admission_queues_.erase(qit) : ++qit;
    }
  }
  // Round-robin admission across the tenant queues, one query per turn,
  // resuming at the cursor where the previous drain stopped. With a single
  // tenant this is the plain FIFO drain.
  while (admission_queued_total_ > 0 &&
         running_tasks_ < options_.admission.max_outstanding_tasks) {
    auto it = admission_queues_.lower_bound(drr_cursor_);
    if (it == admission_queues_.end()) it = admission_queues_.begin();
    const int32_t tenant = it->first;
    std::deque<AdmissionEntry>& entries = it->second;
    ++drr_rounds_;
    const AdmissionEntry entry = entries.front();
    entries.pop_front();
    --admission_queued_total_;
    StartQuery(entry.query_id);
    if (entries.empty()) {
      admission_queues_.erase(it);
      drr_cursor_ = tenant + 1;
    } else if (running_tasks_ >= options_.admission.max_outstanding_tasks) {
      // Capacity ran out on this tenant's turn: the next drain starts with
      // it again.
      drr_cursor_ = tenant;
    } else {
      drr_cursor_ = tenant + 1;
    }
  }
}

void CackleEngine::DrainDeferredTasks() {
  if (deferred_tasks_.empty()) return;
  std::deque<DeferredTask> parked;
  parked.swap(deferred_tasks_);
  for (const DeferredTask& task : parked) {
    // Fresh attempt counter and budget: the point of parking was to stop
    // the exponential ladder, not to drop the task.
    PlaceTask(task.ref, task.duration_ms);
  }
}

void CackleEngine::ScheduleStage(int64_t query_id, int stage_id) {
  QueryState& state = queries_[static_cast<size_t>(query_id)];
  const StageProfile& stage =
      state.profile->stages[static_cast<size_t>(stage_id)];
  const SpanId stage_span =
      tracer_->Begin("stage", sim_.NowMs(), state.span, query_id);
  tracer_->Tag(stage_span, "stage", std::to_string(stage_id));
  state.stage_spans[static_cast<size_t>(stage_id)] = stage_span;
  // Consumer side of the shuffle: read upstream stage outputs. The
  // store-resident share determines the stage's exposure to brownouts.
  double max_store_fraction = 0.0;
  if (options_.enable_shuffle) {
    for (int dep : stage.dependencies) {
      const StageProfile& upstream =
          state.profile->stages[static_cast<size_t>(dep)];
      max_store_fraction =
          std::max(max_store_fraction,
                   shuffle_->Read(query_id, dep, upstream.object_store_gets));
      const SpanId read_ev =
          tracer_->Instant("shuffle.read", sim_.NowMs(), stage_span, query_id);
      tracer_->Tag(read_ev, "from_stage", std::to_string(dep));
    }
  }
  // Outside brownouts (and always in the fault-free configuration) the
  // sampled delay is zero and the tasks launch synchronously, preserving
  // bit-identity with the pre-hedging scheduler.
  SimTimeMs read_delay_ms = 0;
  if (max_store_fraction > 0.0) {
    read_delay_ms = injector_->SampleBrownoutReadLatency(sim_.NowMs());
    if (read_delay_ms > 0 && options_.hedge_after_ms > 0 &&
        read_delay_ms > options_.hedge_after_ms) {
      // Hedge the slow read: after hedge_after_ms, issue a duplicate GET
      // (real store traffic — billed and attributed) and take the faster.
      hedged_reads_->Increment();
      const SimTimeMs duplicate_ms =
          options_.hedge_after_ms +
          injector_->SampleBrownoutReadLatency(sim_.NowMs());
      meter_.Charge(CostCategory::kObjectStoreGet,
                    cost_->object_store_get_cost);
      if (ledger_ != nullptr) {
        ledger_->Attribute(query_id,
                           static_cast<size_t>(CostCategory::kObjectStoreGet),
                           cost_->object_store_get_cost, 1.0);
      }
      if (duplicate_ms < read_delay_ms) {
        hedged_wins_->Increment();
        read_delay_ms = duplicate_ms;
      }
      const SpanId hedge_ev = tracer_->Instant("shuffle.hedged_read",
                                               sim_.NowMs(), stage_span,
                                               query_id);
      tracer_->Tag(hedge_ev, "delay_ms", std::to_string(read_delay_ms));
    }
  }
  if (read_delay_ms > 0) {
    sim_.ScheduleAfter(read_delay_ms, [this, query_id, stage_id] {
      LaunchStageTasks(query_id, stage_id);
    });
  } else {
    LaunchStageTasks(query_id, stage_id);
  }
}

void CackleEngine::LaunchStageTasks(int64_t query_id, int stage_id) {
  const QueryState& state = queries_[static_cast<size_t>(query_id)];
  const StageProfile& stage =
      state.profile->stages[static_cast<size_t>(stage_id)];
  for (int t = 0; t < stage.num_tasks; ++t) {
    RunTask(TaskRef{query_id, stage_id, /*recovery=*/false},
            stage.TaskDuration(t));
  }
}

void CackleEngine::RunTask(TaskRef ref, SimTimeMs duration_ms) {
  const QueryState& state = queries_[static_cast<size_t>(ref.query_id)];
  if (state.batch) {
    // Batch work (Section 2.1) tolerates delay: run on an idle VM if one
    // exists, otherwise wait for spare provisioned capacity instead of
    // paying the elastic premium.
    if (TryPlaceOnVm(ref, duration_ms)) {
      TaskStarted(ref.query_id);
    } else {
      batch_tasks_delayed_->Increment();
      const SpanId queued = tracer_->BeginFolded(
          "queued", sim_.NowMs(), TaskParentSpan(ref), ref.query_id);
      batch_queue_.push_back(BatchTask{ref, duration_ms, sim_.NowMs(), queued});
    }
    return;
  }
  TaskStarted(ref.query_id);
  PlaceTask(ref, duration_ms);
}

bool CackleEngine::TryPlaceOnVm(TaskRef ref, SimTimeMs duration_ms) {
  const auto vm = fleet_->TryAcquire();
  if (!vm.has_value()) return false;
  tasks_on_vms_->Increment();
  const SimTimeMs dur = std::max<SimTimeMs>(
      1, static_cast<SimTimeMs>(static_cast<double>(duration_ms) /
                                options_.vm_speedup));
  const SpanId span = BeginTaskSpan(ref, "vm", /*speculative=*/false);
  const uint64_t event =
      sim_.ScheduleAfter(dur, [this, ref, vm_id = *vm, dur, span] {
        TakeVmTask(vm_id);
        fleet_->Release(vm_id);
        if (ledger_ != nullptr) {
          // Marginal attribution at the hourly rate for the task's runtime;
          // idle capacity, startup, and minimum-billing rounding stay in
          // the category residual and are distributed by task-milliseconds
          // at finalization.
          ledger_->Attribute(ref.query_id,
                             static_cast<size_t>(CostCategory::kVm),
                             cost_->vm_cost_per_hour *
                                 static_cast<double>(dur) /
                                 static_cast<double>(kMillisPerHour),
                             static_cast<double>(dur));
        }
        tracer_->End(span, sim_.NowMs());
        OnTaskDone(ref);
      });
  AddVmTask(VmTask{ref, duration_ms, event, span, *vm});
  return true;
}

void CackleEngine::AddVmTask(const VmTask& task) {
  fleet_->SetBusyTag(task.vm, static_cast<uint32_t>(vm_tasks_.size()));
  vm_tasks_.push_back(task);
}

CackleEngine::VmTask CackleEngine::TakeVmTask(VmId vm) {
  const uint32_t index = fleet_->BusyTag(vm);
  CACKLE_CHECK(index < vm_tasks_.size() && vm_tasks_[index].vm == vm)
      << "busy VM without task";
  const VmTask task = vm_tasks_[index];
  // Fill the hole with the last task.
  vm_tasks_[index] = vm_tasks_.back();
  fleet_->SetBusyTag(vm_tasks_[index].vm, index);
  vm_tasks_.pop_back();
  return task;
}

SpanId CackleEngine::TaskParentSpan(const TaskRef& ref) const {
  if (ref.recovery) return kInvalidSpan;
  const QueryState& state = queries_[static_cast<size_t>(ref.query_id)];
  if (state.stage_spans.empty()) return kInvalidSpan;
  return state.stage_spans[static_cast<size_t>(ref.stage_id)];
}

SpanId CackleEngine::BeginTaskSpan(const TaskRef& ref, const char* placement,
                                   bool speculative) {
  const SpanId span =
      tracer_->BeginFolded("task", sim_.NowMs(), TaskParentSpan(ref),
                           ref.query_id);
  tracer_->Tag(span, "placement", placement);
  if (ref.recovery) tracer_->Tag(span, "recovery", "true");
  if (speculative) tracer_->Tag(span, "speculative", "true");
  return span;
}

void CackleEngine::AttributeElastic(int64_t query_id, SimTimeMs held_ms) {
  if (ledger_ == nullptr) return;
  // The exact expression ElasticPool::Release bills for the same slot, so
  // direct elastic attribution matches the meter bit for bit.
  ledger_->Attribute(query_id, static_cast<size_t>(CostCategory::kElasticPool),
                     cost_->ElasticCost(held_ms),
                     static_cast<double>(held_ms));
}

void CackleEngine::PlaceTask(TaskRef ref, SimTimeMs duration_ms, int attempt,
                             SimTimeMs backoff_elapsed_ms) {
  if (TryPlaceOnVm(ref, duration_ms)) return;
  PlaceOnElastic(ref, duration_ms, attempt, backoff_elapsed_ms);
}

void CackleEngine::PlaceOnElastic(TaskRef ref, SimTimeMs duration_ms,
                                  int attempt,
                                  SimTimeMs backoff_elapsed_ms) {
  const uint32_t run_slot = elastic_runs_.Alloc();
  ElasticRun& run = elastic_runs_.at(run_slot);
  const int64_t run_id = static_cast<int64_t>(
      (static_cast<uint64_t>(run.generation) << 32) | run_slot);
  const Status admitted = pool_->TryAcquire(
      [this, run_id](ElasticSlotId slot) { OnElasticGranted(run_id, slot); });
  if (!admitted.ok()) {
    // Throttled by the concurrency limit. With a retry budget configured
    // (elastic_retry.max_elapsed_ms) a task that has already waited out its
    // cumulative budget parks in the deferred queue — the coordinator
    // re-places it a second later with a fresh ladder, so the pool is not
    // hammered by deep-backoff retries during a long outage. Without a
    // budget (the default): queue behind a deterministic exponential
    // backoff, then try a full placement again (a VM may have freed up in
    // the meantime). Either way work is late, never lost.
    // The run never opened: no event holds its id.
    elastic_runs_.Free(run_slot);
    if (!elastic_retry_policy_->ShouldRetry(attempt + 1, backoff_elapsed_ms)) {
      retry_budget_exhausted_->Increment();
      deferred_tasks_.push_back(DeferredTask{ref, duration_ms});
      sim_.ScheduleAfter(kMillisPerSecond, [this] { DrainDeferredTasks(); });
      return;
    }
    const SimTimeMs backoff = elastic_retry_policy_->BackoffMs(attempt + 1);
    sim_.ScheduleAfter(
        backoff, [this, ref, duration_ms, attempt, backoff_elapsed_ms,
                  backoff] {
          PlaceTask(ref, duration_ms, attempt + 1,
                    backoff_elapsed_ms + backoff);
        });
    return;
  }
  tasks_on_elastic_->Increment();
  run.ref = ref;
  run.duration_ms = duration_ms;
  run.starting = 1;
  run.speculated = false;
  run.open = true;
  run.live.clear();
}

CackleEngine::ElasticRun* CackleEngine::FindElasticRun(int64_t run_id) {
  const uint32_t slot = static_cast<uint32_t>(run_id & 0xffffffff);
  ElasticRun& run = elastic_runs_.at(slot);
  const bool same = run.open && run.generation ==
                                    static_cast<uint64_t>(run_id) >> 32;
  return same ? &run : nullptr;
}

void CackleEngine::CloseElasticRun(int64_t run_id) {
  const uint32_t slot = static_cast<uint32_t>(run_id & 0xffffffff);
  ElasticRun& run = elastic_runs_.at(slot);
  run.open = false;
  ++run.generation;
  elastic_runs_.Free(slot);
}

void CackleEngine::OnElasticGranted(int64_t run_id, ElasticSlotId slot) {
  ElasticRun* found = FindElasticRun(run_id);
  if (found == nullptr) {
    // The task completed (or failed over) while this speculative copy was
    // still starting; give the slot straight back. The (zero-duration)
    // charge belongs to no live query — it lands on the overhead row.
    AttributeElastic(CostLedger::kOverheadQueryId, 0);
    pool_->Release(slot);
    return;
  }
  ElasticRun& run = *found;
  --run.starting;
  SimTimeMs dur = run.duration_ms;
  if (injector_->SampleElasticStraggler()) {
    dur = std::max<SimTimeMs>(
        1, static_cast<SimTimeMs>(
               static_cast<double>(dur) *
               options_.faults.elastic_straggler_slowdown));
  }
  const auto fail_at = injector_->SampleElasticFailure(sim_.NowMs(), dur);
  uint64_t event;
  if (fail_at.has_value()) {
    event = sim_.ScheduleAfter(*fail_at, [this, run_id, slot] {
      OnElasticAttemptFailed(run_id, slot);
    });
  } else {
    event = sim_.ScheduleAfter(dur, [this, run_id, slot] {
      OnElasticAttemptDone(run_id, slot);
    });
  }
  const bool first_attempt = run.live.empty() && !run.speculated;
  const SpanId span =
      BeginTaskSpan(run.ref, "elastic", /*speculative=*/!first_attempt);
  run.live.push_back(ElasticAttempt{slot, event, sim_.NowMs(), span});
  if (first_attempt && SpeculationEnabled()) {
    // Straggler timeout: if the task is still running well past its
    // expected duration (allowing for startup jitter), launch a copy.
    const SimTimeMs timeout =
        std::max<SimTimeMs>(
            1, static_cast<SimTimeMs>(
                   static_cast<double>(run.duration_ms) *
                   options_.straggler_timeout_multiplier)) +
        2 * cost_->elastic_startup_tail_ms;
    sim_.ScheduleAfter(timeout, [this, run_id] { MaybeSpeculate(run_id); });
  }
}

void CackleEngine::OnElasticAttemptDone(int64_t run_id, ElasticSlotId slot) {
  ElasticRun* found = FindElasticRun(run_id);
  CACKLE_CHECK(found != nullptr);
  ElasticRun& run = *found;
  pool_->Release(slot);
  // First finisher wins: cancel and release the speculation loser. Both
  // attempts' slot-time is attributed to the query — the loser's bill is
  // real money the query's straggler mitigation spent.
  for (ElasticAttempt& attempt : run.live) {
    if (attempt.slot != slot) {
      sim_.Cancel(attempt.event);
      pool_->Release(attempt.slot);
      tracer_->Tag(attempt.span, "cancelled", "true");
    }
    AttributeElastic(run.ref.query_id, sim_.NowMs() - attempt.grant_ms);
    tracer_->End(attempt.span, sim_.NowMs());
  }
  const TaskRef ref = run.ref;
  CloseElasticRun(run_id);
  OnTaskDone(ref);
}

void CackleEngine::OnElasticAttemptFailed(int64_t run_id, ElasticSlotId slot) {
  ElasticRun* found = FindElasticRun(run_id);
  CACKLE_CHECK(found != nullptr);
  ElasticRun& run = *found;
  // The invocation died mid-run; its runtime until failure is still billed.
  pool_->Release(slot);
  elastic_failures_->Increment();
  const auto attempt = std::find_if(
      run.live.begin(), run.live.end(),
      [slot](const ElasticAttempt& a) { return a.slot == slot; });
  AttributeElastic(run.ref.query_id, sim_.NowMs() - attempt->grant_ms);
  tracer_->Tag(attempt->span, "failed", "true");
  tracer_->End(attempt->span, sim_.NowMs());
  run.live.erase(attempt);
  if (!run.live.empty() || run.starting > 0) {
    // A speculative sibling is still running (or starting); it carries the
    // task to completion.
    return;
  }
  const TaskRef ref = run.ref;
  const SimTimeMs duration_ms = run.duration_ms;
  CloseElasticRun(run_id);
  // Re-place from scratch, same path as a spot interruption: an idle VM if
  // one appeared, otherwise the pool again.
  PlaceTask(ref, duration_ms);
}

void CackleEngine::MaybeSpeculate(int64_t run_id) {
  ElasticRun* found = FindElasticRun(run_id);
  if (found == nullptr) return;  // task already finished
  ElasticRun& run = *found;
  if (run.speculated || run.live.size() + run.starting != 1) return;
  run.speculated = true;
  const Status admitted = pool_->TryAcquire(
      [this, run_id](ElasticSlotId slot) { OnElasticGranted(run_id, slot); });
  // A throttled speculative copy is simply skipped — the primary attempt is
  // still running and speculation is best-effort.
  if (!admitted.ok()) return;
  ++run.starting;
  tasks_speculated_->Increment();
  tasks_on_elastic_->Increment();
}

void CackleEngine::DrainBatchQueue() {
  while (!batch_queue_.empty()) {
    const BatchTask task = batch_queue_.front();
    if (TryPlaceOnVm(task.ref, task.duration_ms)) {
      batch_queue_.pop_front();
      tracer_->End(task.queued_span, sim_.NowMs());
    } else if (sim_.NowMs() - task.enqueued_ms >=
               options_.max_batch_delay_ms) {
      // SLA escalation: overdue batch work runs on the elastic pool.
      batch_queue_.pop_front();
      batch_tasks_escalated_->Increment();
      tracer_->Tag(task.queued_span, "escalated", "true");
      tracer_->End(task.queued_span, sim_.NowMs());
      PlaceTask(task.ref, task.duration_ms);
    } else {
      break;
    }
    TaskStarted(task.ref.query_id);
  }
}

void CackleEngine::OnVmInterrupted(VmId vm) {
  const VmTask task = TakeVmTask(vm);
  sim_.Cancel(task.completion_event);
  tasks_retried_->Increment();
  tracer_->Tag(task.span, "interrupted", "true");
  tracer_->End(task.span, sim_.NowMs());
  if (queries_[static_cast<size_t>(task.ref.query_id)].batch) {
    // Batch work goes back to waiting for spare capacity.
    TaskFinished(task.ref.query_id);
    const SpanId queued =
        tracer_->BeginFolded("queued", sim_.NowMs(), TaskParentSpan(task.ref),
                             task.ref.query_id);
    batch_queue_.push_front(
        BatchTask{task.ref, task.duration_ms, sim_.NowMs(), queued});
    return;
  }
  // Retry from scratch; the fleet has already retired the VM, so this
  // lands on another idle VM or (typically) the elastic pool.
  PlaceTask(task.ref, task.duration_ms);
}

void CackleEngine::OnShufflePartitionsLost(int64_t query_id, int stage_id,
                                           int64_t lost_bytes,
                                           int64_t lost_partitions) {
  shuffle_partitions_lost_->Increment(lost_partitions);
  QueryState& state = queries_[static_cast<size_t>(query_id)];
  if (state.done) return;  // released queries hold no shuffle state
  Recovery& rec = recoveries_[{query_id, stage_id}];
  const bool already_running = rec.tasks_remaining > 0;
  rec.lost_bytes += lost_bytes;
  rec.lost_partitions += lost_partitions;
  if (already_running) return;  // fold further losses into the in-flight run
  stages_reexecuted_->Increment();
  const StageProfile& stage =
      state.profile->stages[static_cast<size_t>(stage_id)];
  rec.tasks_remaining = stage.num_tasks;
  for (int t = 0; t < stage.num_tasks; ++t) {
    TaskStarted(query_id);
    PlaceTask(TaskRef{query_id, stage_id, /*recovery=*/true},
              stage.TaskDuration(t));
  }
}

void CackleEngine::OnRecoveryTaskDone(TaskRef ref) {
  auto it = recoveries_.find({ref.query_id, ref.stage_id});
  CACKLE_CHECK(it != recoveries_.end());
  if (--it->second.tasks_remaining > 0) return;
  const Recovery rec = it->second;
  recoveries_.erase(it);
  QueryState& state = queries_[static_cast<size_t>(ref.query_id)];
  // If every consumer finished while we were re-executing, the regenerated
  // partitions are no longer needed.
  if (state.done || !options_.enable_shuffle) return;
  const StageProfile& stage =
      state.profile->stages[static_cast<size_t>(ref.stage_id)];
  // Rewrite the regenerated partitions through the shuffle layer (they land
  // on nodes or spill to the store like any write), billing PUTs
  // proportional to the regenerated share of the stage's output.
  const int64_t puts = std::max<int64_t>(
      1, stage.object_store_puts * rec.lost_bytes /
             std::max<int64_t>(1, stage.shuffle_bytes_out));
  shuffle_->Write(ref.query_id, ref.stage_id, rec.lost_bytes,
                  std::max<int64_t>(1, rec.lost_partitions), puts);
  // Root-level instant: the owning stage span closed when the stage first
  // finished, long before this recovery rewrite.
  const SpanId rewrite_ev = tracer_->Instant("shuffle.rewrite", sim_.NowMs(),
                                             kInvalidSpan, ref.query_id);
  tracer_->Tag(rewrite_ev, "bytes", std::to_string(rec.lost_bytes));
}

void CackleEngine::OnTaskDone(TaskRef ref) {
  TaskFinished(ref.query_id);
  // A slot just freed up; queued batch work can use it.
  if (!batch_queue_.empty()) DrainBatchQueue();
  if (ref.recovery) {
    OnRecoveryTaskDone(ref);
    return;
  }
  if (--TasksRemaining(ref.query_id, static_cast<size_t>(ref.stage_id)) ==
      0) {
    OnStageDone(ref.query_id, ref.stage_id);
  }
}

void CackleEngine::OnStageDone(int64_t query_id, int stage_id) {
  QueryState& state = queries_[static_cast<size_t>(query_id)];
  const StageProfile& stage =
      state.profile->stages[static_cast<size_t>(stage_id)];
  if (options_.enable_shuffle && stage.shuffle_bytes_out > 0) {
    // Producer side: write this stage's output through the shuffle layer.
    int64_t consumer_tasks = 0;
    for (const StageProfile& s : state.profile->stages) {
      for (int dep : s.dependencies) {
        if (dep == stage_id) consumer_tasks += s.num_tasks;
      }
    }
    shuffle_->Write(query_id, stage_id, stage.shuffle_bytes_out,
                    std::max<int64_t>(1, consumer_tasks),
                    stage.object_store_puts);
    const SpanId write_ev = tracer_->Instant(
        "shuffle.write", sim_.NowMs(),
        state.stage_spans[static_cast<size_t>(stage_id)], query_id);
    tracer_->Tag(write_ev, "bytes", std::to_string(stage.shuffle_bytes_out));
  }
  tracer_->End(state.stage_spans[static_cast<size_t>(stage_id)],
               sim_.NowMs());
  if (--state.stages_remaining == 0) {
    OnQueryDone(query_id);
    return;
  }
  for (size_t s = 0; s < state.profile->stages.size(); ++s) {
    for (int dep : state.profile->stages[s].dependencies) {
      if (dep == stage_id && --DepsRemaining(query_id, s) == 0) {
        ScheduleStage(query_id, static_cast<int>(s));
      }
    }
  }
}

void CackleEngine::OnQueryDone(int64_t query_id) {
  QueryState& state = queries_[static_cast<size_t>(query_id)];
  CACKLE_CHECK(!state.done);
  state.done = true;
  const double latency_s = MsToSeconds(sim_.NowMs() - state.arrival_ms);
  EngineResult::TenantOutcome& tenant_outcome = result_.tenants[state.tenant];
  ++tenant_outcome.queries_completed;
  if (state.batch) {
    result_.batch_latencies_s.Add(latency_s);
    batch_latency_s_->Observe(latency_s);
  } else {
    result_.latencies_s.Add(latency_s);
    query_latency_s_->Observe(latency_s);
    tenant_outcome.latencies_s.Add(latency_s);
  }
  tracer_->End(state.span, sim_.NowMs());
  result_.makespan_ms = std::max(result_.makespan_ms, sim_.NowMs());
  queries_completed_->Increment();
  if (options_.enable_shuffle) shuffle_->ReleaseQuery(query_id);
  if (--queries_remaining_ == 0) {
    workload_done_ = true;
    // Stop maintaining capacity so the fleet (and any spot-interruption
    // replacement loop) drains.
    fleet_->SetTarget(0);
  }
}

EngineResult CackleEngine::Run(const std::vector<QueryArrival>& arrivals,
                               const ProfileLibrary& library) {
  queries_.resize(arrivals.size());
  queries_remaining_ = static_cast<int64_t>(arrivals.size());
  // Two passes: offsets first, then one exact allocation for each flat
  // countdown array (SoA layout shared by every query's stages).
  stage_offsets_.resize(arrivals.size());
  int64_t total_stages = 0;
  for (size_t q = 0; q < arrivals.size(); ++q) {
    stage_offsets_[q] = total_stages;
    total_stages += static_cast<int64_t>(
        library.at(arrivals[q].profile_index).stages.size());
  }
  deps_remaining_.resize(static_cast<size_t>(total_stages));
  tasks_remaining_.resize(static_cast<size_t>(total_stages));
  for (size_t q = 0; q < arrivals.size(); ++q) {
    QueryState& state = queries_[q];
    state.profile = &library.at(arrivals[q].profile_index);
    state.arrival_ms = arrivals[q].arrival_ms;
    state.batch = arrivals[q].batch;
    state.tenant = arrivals[q].tenant;
    CACKLE_CHECK_GE(state.tenant, 0) << "negative tenant id";
    if (state.tenant != 0) {
      multi_tenant_ = true;
      if (ledger_ != nullptr) {
        ledger_->SetTenant(static_cast<int64_t>(q), state.tenant);
      }
    }
    state.stages_remaining = static_cast<int>(state.profile->stages.size());
    for (size_t s = 0; s < state.profile->stages.size(); ++s) {
      DepsRemaining(static_cast<int64_t>(q), s) = static_cast<int32_t>(
          state.profile->stages[s].dependencies.size());
      TasksRemaining(static_cast<int64_t>(q), s) =
          static_cast<int32_t>(state.profile->stages[s].num_tasks);
    }
  }
  ScheduleArrivals(arrivals, &sim_,
                   [this](int64_t q) { OnQueryArrival(q); });
  if (arrivals.empty()) workload_done_ = true;

  // Cold-start priming: replay the expected demand through the history and
  // the strategy so expert weights are differentiated before t=0. The
  // replay is bookkeeping only — no resources are provisioned for it.
  std::vector<int64_t> primed;
  primed.reserve(options_.primed_history.size());
  for (int64_t expected : options_.primed_history) {
    primed.push_back(std::max<int64_t>(0, expected));
    history_.Append(primed.back());
  }
  strategy_->TargetSeries(primed);

  // The coordinator ticks from t=0 until the workload drains.
  sim_.ScheduleAt(0, [this] { CoordinatorTick(); });
  sim_.RunToCompletion();
  // Every arrival is accounted for: completed, or explicitly shed by
  // admission control. Degradation is late or shed work — never silent loss.
  CACKLE_CHECK_EQ(queries_completed_->value() + queries_shed_->value(),
                  static_cast<int64_t>(arrivals.size()));
  CACKLE_CHECK_EQ(running_tasks_, 0);
  CACKLE_CHECK(batch_queue_.empty());
  CACKLE_CHECK(admission_queues_.empty()) << "queries stuck in admission";
  CACKLE_CHECK_EQ(admission_queued_total_, 0);
  CACKLE_CHECK(deferred_tasks_.empty()) << "tasks stuck in deferral";
  // End-of-run leak invariants: every resource the engine acquired must
  // have been returned — a leaked slot or in-flight retry is a bug, not a
  // rounding error.
  CACKLE_CHECK_EQ(pool_->num_active(), 0) << "leaked elastic slots";
  CACKLE_CHECK_EQ(elastic_runs_.live(), 0u) << "leaked elastic task state";
  CACKLE_CHECK(vm_tasks_.empty()) << "leaked VM task state";
  CACKLE_CHECK(recoveries_.empty()) << "unfinished shuffle recovery";

  // Drain fleets and flush billing.
  fleet_->SetTarget(0);
  fleet_->TerminateAll();
  if (options_.enable_shuffle) shuffle_->Shutdown();
  // Coordinator rental for the workload duration.
  meter_.Charge(CostCategory::kCoordinator,
                cost_->coordinator_cost_per_hour *
                    MsToSeconds(result_.makespan_ms) / 3600.0);

  // Fold every component's lifetime totals into the registry, then fill the
  // result struct from it — the registry is the single source of truth for
  // event counts (EngineResult keeps its fields for callers and plots).
  fleet_->ExportMetrics(metrics_, mn::kPrefixVmFleet);
  pool_->ExportMetrics(metrics_, mn::kPrefixElasticPool);
  object_store_->ExportMetrics(metrics_, mn::kPrefixObjectStore);
  if (options_.enable_shuffle) {
    shuffle_->ExportMetrics(metrics_, mn::kPrefixShuffle);
  }
  metrics_->SetCounter(mn::kEngineMakespanMs, result_.makespan_ms);
  metrics_->SetGauge(mn::kEnginePeakConcurrentTasks,
                     static_cast<double>(result_.peak_concurrent_tasks));
  {
    // Event counts, then queue-layout internals: the latter depend on how
    // the scheduler stores events, not on the workload, so they are
    // observability only and excluded from golden comparisons.
    const Simulation::Stats& ss = sim_.stats();
    metrics_->SetCounter(mn::kSimEventsScheduled, ss.scheduled);
    metrics_->SetCounter(mn::kSimEventsExecuted, sim_.executed_events());
    metrics_->SetCounter(mn::kSimEventsCancelled, ss.cancelled);
    metrics_->SetCounter(mn::kSimCompactions, ss.compactions);
    metrics_->SetCounter(mn::kSimTombstonesPurged, ss.tombstones_purged);
    metrics_->SetCounter(mn::kSimCalendarResizes, ss.calendar_resizes);
    metrics_->SetCounter(mn::kSimOverflowMigrations, ss.overflow_migrations);
    metrics_->SetGauge(mn::kSimPeakQueueEntries,
                       static_cast<double>(ss.peak_queue_entries));
  }
  metrics_->SetGauge(mn::kEngineAdmissionQueuePeak,
                     static_cast<double>(admission_queue_peak_));
  metrics_->SetGauge(mn::kEngineTenantCount,
                     static_cast<double>(result_.tenants.size()));
  metrics_->SetCounter(mn::kEngineTenantDrrRounds, drr_rounds_);
  metrics_->SetGauge(mn::kEngineTenantQueuePeak,
                     static_cast<double>(tenant_queue_peak_));
  if (const ChaosTimeline* timeline = injector_->timeline()) {
    // Timeline shape gauges: how much chaos this run was exposed to.
    metrics_->SetGauge(mn::kChaosOutageWindows,
                       static_cast<double>(timeline->outage_windows().size()));
    metrics_->SetGauge(mn::kChaosOutageMs,
                       static_cast<double>(
                           ChaosTimeline::TotalMs(timeline->outage_windows())));
    metrics_->SetGauge(mn::kChaosStormWindows,
                       static_cast<double>(timeline->storm_windows().size()));
    metrics_->SetGauge(mn::kChaosStormMs,
                       static_cast<double>(
                           ChaosTimeline::TotalMs(timeline->storm_windows())));
    metrics_->SetGauge(
        mn::kChaosBrownoutWindows,
        static_cast<double>(timeline->brownout_windows().size()));
    metrics_->SetGauge(mn::kChaosBrownoutMs,
                       static_cast<double>(ChaosTimeline::TotalMs(
                           timeline->brownout_windows())));
    metrics_->SetGauge(
        mn::kChaosPriceShockWindows,
        static_cast<double>(timeline->price_shock_windows().size()));
    metrics_->SetGauge(mn::kChaosPriceShockMs,
                       static_cast<double>(ChaosTimeline::TotalMs(
                           timeline->price_shock_windows())));
  }

  result_.tasks_on_vms = tasks_on_vms_->value();
  result_.tasks_on_elastic = tasks_on_elastic_->value();
  result_.tasks_retried = tasks_retried_->value();
  result_.tasks_speculated = tasks_speculated_->value();
  result_.batch_tasks_delayed = batch_tasks_delayed_->value();
  result_.batch_tasks_escalated = batch_tasks_escalated_->value();
  result_.elastic_failures = elastic_failures_->value();
  result_.stages_reexecuted = stages_reexecuted_->value();
  result_.shuffle_partitions_lost = shuffle_partitions_lost_->value();
  result_.queries_completed = queries_completed_->value();
  result_.queries_shed = queries_shed_->value();
  result_.queries_deferred = queries_deferred_->value();
  result_.admission_queue_peak = admission_queue_peak_;
  result_.tenant_queue_peak = tenant_queue_peak_;
  result_.retry_budget_exhausted = retry_budget_exhausted_->value();
  result_.hedged_reads = hedged_reads_->value();
  result_.hedged_wins = hedged_wins_->value();
  result_.storm_reclaims = storm_reclaims_->value();
  if (object_store_->circuit_breaker() != nullptr) {
    result_.store_circuit_trips = object_store_->circuit_breaker()->trips();
    result_.store_circuit_rejections =
        object_store_->circuit_breaker()->rejections();
  }
  result_.shuffle_fallback_bytes = metrics_->CounterValue(
      JoinMetricName(mn::kPrefixShuffle, mn::kSuffixFallbackBytes));
  result_.shuffle_written_bytes = metrics_->CounterValue(
      JoinMetricName(mn::kPrefixShuffle, mn::kSuffixWrittenBytes));
  result_.shuffle_nodes_crashed = metrics_->CounterValue(
      JoinMetricName(mn::kPrefixShuffle, mn::kSuffixNodesCrashed));
  result_.vms_interrupted = metrics_->CounterValue(
      JoinMetricName(mn::kPrefixVmFleet, mn::kSuffixVmsInterrupted));
  result_.elastic_throttled = metrics_->CounterValue(
      JoinMetricName(mn::kPrefixElasticPool, mn::kSuffixThrottled));
  result_.store_retries = metrics_->CounterValue(
      JoinMetricName(mn::kPrefixObjectStore, mn::kSuffixRetries));
  result_.vm_launch_failures =
      metrics_->CounterValue(
          JoinMetricName(mn::kPrefixVmFleet, mn::kSuffixLaunchFailures)) +
      metrics_->CounterValue(
          JoinMetricName(mn::kPrefixShuffle, mn::kSuffixFleet) +
          mn::kSuffixLaunchFailures);

  if (ledger_ != nullptr) {
    // Close the attribution books against the final bill. Directly
    // unattributable spend (VM idle/startup/rounding, the shuffle-node
    // fleet, interrupted partial runs) distributes over per-query usage
    // weights; the coordinator rental, with no usage, falls to overhead.
    std::vector<double> billed(
        static_cast<size_t>(CostCategory::kNumCategories));
    for (size_t c = 0; c < billed.size(); ++c) {
      billed[c] = meter_.CategoryDollars(static_cast<CostCategory>(c));
    }
    ledger_->FinalizeAgainst(billed);
    // Per-tenant invoices: each tenant's exact share of the final bill
    // (overhead — idle capacity, coordinator rental — is its own invoice
    // under the ledger's overhead tenant, not silently spread here).
    for (auto& [tenant, outcome] : result_.tenants) {
      outcome.invoice_dollars = ledger_->TenantDollars(tenant);
    }
  }
  result_.billing = meter_;
  return result_;
}

}  // namespace cackle
