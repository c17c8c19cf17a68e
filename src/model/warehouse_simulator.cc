#include "model/warehouse_simulator.h"

#include <algorithm>
#include <deque>
#include <functional>

#include "common/logging.h"

namespace cackle {

WarehouseOptions DatabricksSmallFixed(int clusters) {
  WarehouseOptions o;
  o.name = "databricks_small_" + std::to_string(clusters) + "clusters";
  o.min_clusters = o.max_clusters = clusters;
  o.slots_per_cluster = 6;
  o.cluster_cost_per_hour = 12 * 0.70;  // 12 DBU x $0.70/DBU-hour
  o.speed_factor = 1.0;
  return o;
}

WarehouseOptions DatabricksSmallAuto() {
  WarehouseOptions o = DatabricksSmallFixed(1);
  o.name = "databricks_small_auto";
  o.min_clusters = 1;
  o.max_clusters = 8;
  return o;
}

WarehouseOptions DatabricksMediumFixed(int clusters) {
  WarehouseOptions o;
  o.name = "databricks_medium_" + std::to_string(clusters) + "clusters";
  o.min_clusters = o.max_clusters = clusters;
  o.slots_per_cluster = 16;
  o.cluster_cost_per_hour = 24 * 0.70;  // 24 DBU
  o.speed_factor = 0.65;
  return o;
}

WarehouseOptions DatabricksMediumAuto() {
  WarehouseOptions o = DatabricksMediumFixed(1);
  o.name = "databricks_medium_auto";
  o.min_clusters = 1;
  o.max_clusters = 5;
  return o;
}

WarehouseOptions RedshiftServerless8Rpu() {
  WarehouseOptions o;
  o.name = "redshift_serverless_8rpu";
  o.min_clusters = o.max_clusters = 1;
  o.slots_per_cluster = 7;
  o.cluster_cost_per_hour = 8 * 0.36;  // 8 RPU x $0.36/RPU-hour
  o.speed_factor = 0.85;
  o.serverless_billing = true;
  return o;
}

WarehouseOptions SnowflakeLikeMultiCluster(bool economy) {
  WarehouseOptions o;
  o.name = economy ? "snowflake_like_economy" : "snowflake_like_standard";
  o.min_clusters = 1;
  o.max_clusters = 6;
  o.slots_per_cluster = 8;
  o.cluster_cost_per_hour = 2.0 * 3.0;  // 2 credits/hour x $3/credit
  o.speed_factor = 0.8;
  if (economy) {
    // Economy: only add a cluster once enough work has queued to keep it
    // busy; release aggressively.
    o.queue_before_scale_up_ms = 60 * kMillisPerSecond;
    o.min_queued_for_scale_up = 12;
    o.idle_before_release_ms = 2 * kMillisPerMinute;
  } else {
    o.queue_before_scale_up_ms = 10 * kMillisPerSecond;
    o.min_queued_for_scale_up = 1;
  }
  return o;
}

namespace {

enum class ClusterState { kStarting, kRunning, kReleased };

struct Cluster {
  ClusterState state = ClusterState::kStarting;
  int busy_slots = 0;
  SimTimeMs started_ms = 0;
  SimTimeMs idle_since_ms = 0;
};

struct QueuedQuery {
  size_t index;
  SimTimeMs enqueued_ms;
};

}  // namespace

WarehouseResult RunWarehouseSimulation(
    const std::vector<QueryArrival>& arrivals, const ProfileLibrary& library,
    const WarehouseOptions& options) {
  CACKLE_CHECK_GE(options.max_clusters, options.min_clusters);
  CACKLE_CHECK_GE(options.min_clusters, 1);
  Simulation sim;
  WarehouseResult result;
  result.name = options.name;

  std::vector<Cluster> clusters;
  std::deque<QueuedQuery> queue;
  int64_t running_queries = 0;
  // Serverless billing state: the start of the current busy period.
  SimTimeMs busy_since = -1;
  double serverless_billed_ms = 0;
  SimTimeMs fixed_billing_cluster_ms = 0;  // accumulated cluster runtime

  auto live_clusters = [&] {
    int64_t n = 0;
    for (const Cluster& c : clusters) {
      if (c.state != ClusterState::kReleased) ++n;
    }
    return n;
  };

  std::function<void()> dispatch;

  auto start_cluster = [&] {
    clusters.push_back(Cluster{});
    Cluster& c = clusters.back();
    c.started_ms = sim.NowMs();
    const size_t idx = clusters.size() - 1;
    ++result.clusters_started;
    sim.ScheduleAfter(options.cluster_startup_ms, [&, idx] {
      if (clusters[idx].state == ClusterState::kStarting) {
        clusters[idx].state = ClusterState::kRunning;
        clusters[idx].idle_since_ms = sim.NowMs();
        dispatch();
      }
    });
    result.peak_clusters = std::max(result.peak_clusters, live_clusters());
  };

  auto release_cluster = [&](size_t idx) {
    Cluster& c = clusters[idx];
    CACKLE_CHECK(c.state == ClusterState::kRunning);
    CACKLE_CHECK_EQ(c.busy_slots, 0);
    c.state = ClusterState::kReleased;
    fixed_billing_cluster_ms += sim.NowMs() - c.started_ms;
  };

  auto maybe_release = [&](size_t idx) {
    // Release surplus idle clusters after the idle threshold.
    Cluster& c = clusters[idx];
    if (c.state != ClusterState::kRunning || c.busy_slots > 0) return;
    if (live_clusters() <= options.min_clusters) return;
    if (sim.NowMs() - c.idle_since_ms >= options.idle_before_release_ms) {
      release_cluster(idx);
    }
  };

  auto run_query = [&](size_t cluster_idx, size_t query_idx,
                       SimTimeMs enqueued_ms) {
    Cluster& c = clusters[cluster_idx];
    ++c.busy_slots;
    ++running_queries;
    if (running_queries == 1) busy_since = sim.NowMs();
    const QueryProfile& profile =
        library.at(arrivals[query_idx].profile_index);
    const SimTimeMs run_ms = std::max<SimTimeMs>(
        500, static_cast<SimTimeMs>(static_cast<double>(
                 profile.CriticalPathMs()) * options.speed_factor));
    if (sim.NowMs() - enqueued_ms >= 1000) ++result.queries_queued;
    sim.ScheduleAfter(run_ms, [&, cluster_idx, query_idx] {
      Cluster& cl = clusters[cluster_idx];
      --cl.busy_slots;
      --running_queries;
      if (running_queries == 0 && busy_since >= 0) {
        // Close the serverless busy period with the 60 s minimum.
        serverless_billed_ms += static_cast<double>(
            std::max<SimTimeMs>(sim.NowMs() - busy_since, kMillisPerMinute));
        busy_since = -1;
      }
      result.latencies_s.Add(
          MsToSeconds(sim.NowMs() - arrivals[query_idx].arrival_ms));
      if (cl.busy_slots == 0) {
        cl.idle_since_ms = sim.NowMs();
        sim.ScheduleAfter(options.idle_before_release_ms,
                          [&, cluster_idx] { maybe_release(cluster_idx); });
      }
      dispatch();
    });
  };

  dispatch = [&] {
    while (!queue.empty()) {
      // Find a running cluster with a free slot.
      size_t chosen = clusters.size();
      for (size_t i = 0; i < clusters.size(); ++i) {
        if (clusters[i].state == ClusterState::kRunning &&
            clusters[i].busy_slots < options.slots_per_cluster) {
          chosen = i;
          break;
        }
      }
      if (chosen == clusters.size()) break;
      const QueuedQuery q = queue.front();
      queue.pop_front();
      run_query(chosen, q.index, q.enqueued_ms);
    }
    // Auto-scaling: if the head of the queue has waited past the threshold
    // and capacity remains, request one more cluster (only one starting at
    // a time, mirroring add-a-cluster-at-a-time behaviour).
    if (static_cast<int64_t>(queue.size()) >=
            options.min_queued_for_scale_up &&
        !queue.empty() &&
        sim.NowMs() - queue.front().enqueued_ms >=
            options.queue_before_scale_up_ms &&
        live_clusters() < options.max_clusters) {
      bool starting = false;
      for (const Cluster& c : clusters) {
        starting |= (c.state == ClusterState::kStarting);
      }
      if (!starting) start_cluster();
    }
  };

  // Initial fleet.
  for (int i = 0; i < options.min_clusters; ++i) start_cluster();
  // Initial clusters are pre-provisioned before the workload begins: mark
  // them running at t=0 (the paper warms baselines up before measuring).
  for (Cluster& c : clusters) {
    c.state = ClusterState::kRunning;
  }

  ScheduleArrivals(arrivals, &sim, [&](int64_t q) {
    queue.push_back(QueuedQuery{static_cast<size_t>(q), sim.NowMs()});
    dispatch();
    if (!queue.empty()) {
      // Re-check the scale-up condition when this query ages past the
      // threshold.
      sim.ScheduleAfter(options.queue_before_scale_up_ms, [&] { dispatch(); });
    }
  });

  sim.RunToCompletion();
  CACKLE_CHECK_EQ(result.latencies_s.size(), arrivals.size());

  // Billing.
  if (options.serverless_billing) {
    if (busy_since >= 0) {
      serverless_billed_ms += static_cast<double>(std::max<SimTimeMs>(
          sim.NowMs() - busy_since, kMillisPerMinute));
    }
    result.cost = options.cluster_cost_per_hour * serverless_billed_ms /
                  static_cast<double>(kMillisPerHour);
  } else {
    for (const Cluster& c : clusters) {
      if (c.state != ClusterState::kReleased) {
        fixed_billing_cluster_ms += sim.NowMs() - c.started_ms;
      }
    }
    result.cost = options.cluster_cost_per_hour *
                  static_cast<double>(fixed_billing_cluster_ms) /
                  static_cast<double>(kMillisPerHour);
  }
  return result;
}

}  // namespace cackle
