#include "model/work_delay_model.h"

#include <algorithm>
#include <functional>
#include <queue>

#include "common/logging.h"

namespace cackle {
namespace {

struct ReadyTask {
  int64_t query_seq;  // submission order: smaller = higher priority
  int stage_id;
  int task_index;
  SimTimeMs duration_ms;

  bool operator>(const ReadyTask& other) const {
    if (query_seq != other.query_seq) return query_seq > other.query_seq;
    if (stage_id != other.stage_id) return stage_id > other.stage_id;
    return task_index > other.task_index;
  }
};

struct QueryState {
  const QueryProfile* profile = nullptr;
  SimTimeMs arrival_ms = 0;
  std::vector<int> deps_remaining;   // per stage
  std::vector<int> tasks_remaining;  // per stage
  int stages_remaining = 0;
};

}  // namespace

WorkDelayResult RunWorkDelaySimulation(
    const std::vector<QueryArrival>& arrivals, const ProfileLibrary& library,
    int64_t num_workers, const CostModel& cost) {
  CACKLE_CHECK_GT(num_workers, 0);
  Simulation sim;
  WorkDelayResult result;

  std::vector<QueryState> queries(arrivals.size());
  std::priority_queue<ReadyTask, std::vector<ReadyTask>, std::greater<>>
      ready;
  int64_t free_workers = num_workers;

  // Forward declarations via std::function so completions can dispatch.
  std::function<void()> dispatch;
  std::function<void(int64_t, int)> on_stage_ready;
  std::function<void(int64_t, int)> on_task_done;

  on_stage_ready = [&](int64_t q, int stage_id) {
    const QueryState& state = queries[static_cast<size_t>(q)];
    const StageProfile& stage =
        state.profile->stages[static_cast<size_t>(stage_id)];
    for (int t = 0; t < stage.num_tasks; ++t) {
      ready.push(ReadyTask{q, stage_id, t, stage.TaskDuration(t)});
    }
    dispatch();
  };

  on_task_done = [&](int64_t q, int stage_id) {
    QueryState& state = queries[static_cast<size_t>(q)];
    ++free_workers;
    ++result.tasks_executed;
    if (--state.tasks_remaining[static_cast<size_t>(stage_id)] == 0) {
      // Stage complete: unblock dependents; maybe complete the query.
      if (--state.stages_remaining == 0) {
        result.latencies_s.Add(MsToSeconds(sim.NowMs() - state.arrival_ms));
        result.makespan_ms = std::max(result.makespan_ms, sim.NowMs());
      }
      for (size_t s = 0; s < state.profile->stages.size(); ++s) {
        for (int dep : state.profile->stages[s].dependencies) {
          if (dep == stage_id) {
            if (--state.deps_remaining[s] == 0) {
              on_stage_ready(q, static_cast<int>(s));
            }
          }
        }
      }
    }
    dispatch();
  };

  dispatch = [&] {
    while (free_workers > 0 && !ready.empty()) {
      const ReadyTask task = ready.top();
      ready.pop();
      --free_workers;
      // Durations are rounded up to whole seconds, minimum one, matching
      // the analytical model's demand accounting.
      const SimTimeMs dur =
          std::max<SimTimeMs>(1000, (task.duration_ms + 999) / 1000 * 1000);
      sim.ScheduleAfter(dur, [&on_task_done, task] {
        on_task_done(task.query_seq, task.stage_id);
      });
    }
  };

  for (size_t q = 0; q < arrivals.size(); ++q) {
    QueryState& state = queries[q];
    state.profile = &library.at(arrivals[q].profile_index);
    state.arrival_ms = arrivals[q].arrival_ms;
    state.stages_remaining = static_cast<int>(state.profile->stages.size());
    state.deps_remaining.resize(state.profile->stages.size());
    state.tasks_remaining.resize(state.profile->stages.size());
    for (size_t s = 0; s < state.profile->stages.size(); ++s) {
      state.deps_remaining[s] =
          static_cast<int>(state.profile->stages[s].dependencies.size());
      state.tasks_remaining[s] = state.profile->stages[s].num_tasks;
    }
  }
  ScheduleArrivals(arrivals, &sim, [&](int64_t q) {
    const QueryState& st = queries[static_cast<size_t>(q)];
    for (size_t s = 0; s < st.profile->stages.size(); ++s) {
      if (st.deps_remaining[s] == 0) on_stage_ready(q, static_cast<int>(s));
    }
  });

  sim.RunToCompletion();
  CACKLE_CHECK_EQ(result.latencies_s.size(), arrivals.size());

  // The fixed fleet is rented for the full makespan.
  result.cost = static_cast<double>(num_workers) *
                MsToSeconds(result.makespan_ms) * cost.VmCostPerSecond();
  return result;
}

SampleSet UnconstrainedLatencies(const std::vector<QueryArrival>& arrivals,
                                 const ProfileLibrary& library) {
  SampleSet latencies;
  for (const QueryArrival& qa : arrivals) {
    // Round each stage's wall time up to whole task-seconds like the
    // delaying simulation does, for an apples-to-apples comparison.
    const QueryProfile& p = library.at(qa.profile_index);
    std::vector<SimTimeMs> finish(p.stages.size(), 0);
    SimTimeMs end = 0;
    for (size_t i = 0; i < p.stages.size(); ++i) {
      SimTimeMs start = 0;
      for (int dep : p.stages[i].dependencies) {
        start = std::max(start, finish[static_cast<size_t>(dep)]);
      }
      const SimTimeMs dur = std::max<SimTimeMs>(
          1000, (p.stages[i].MaxTaskDuration() + 999) / 1000 * 1000);
      finish[i] = start + dur;
      end = std::max(end, finish[i]);
    }
    latencies.Add(MsToSeconds(end));
  }
  return latencies;
}

}  // namespace cackle
