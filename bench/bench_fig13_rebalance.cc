// Figure 13 (beyond the paper): elastic rebalancing vs. a static placement.
//
// Sweeps scenario x {static, rebalance} on an edge-cut-partitioned cluster:
// both modes replay the same deterministic scenario stream; the rebalance
// mode additionally runs one MigrationCoordinator step at every epoch close
// (detect -> plan -> migrate, bounded by --move-budget). Per-epoch rows
// report measured cross-shard messages and the epoch's max/mean request
// imbalance; the total row reports the run's cross-message total and the
// mean imbalance over the second half of the run (the tail, where a
// triggered migration has had time to act).
//
// Expected shape: "stationary" is the control — the trigger never fires and
// the modes tie. "regional-event" (one co-located community spikes) trips
// the imbalance watch: the spiking shard's work runs ~1.9x the mean until
// the planner drains it. "celebrity-join" (one account's share rate ramps
// while followers pile in) barely moves max/mean — the celebrity's shard was
// light — but the fan-out sends *from* its home shard multiply while every
// other shard stays flat, and the per-shard send-rise watch catches it. In
// both, the rebalance mode moves a bounded
// hubs-first user set toward its traffic and the tail imbalance AND the
// cross-shard message total both drop below static. Cluster-wide oracle
// audits (--audit-every) stay green throughout, including queries landing
// between migration batches.
//
//   ./bench_fig13_rebalance --nodes 2000 --requests 60000 --json fig13.json
//   ./bench_fig13_rebalance --scenarios celebrity-join --move-budget 128

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "cluster/cluster_service.h"
#include "gen/presets.h"
#include "rebalance/coordinator.h"
#include "scenario/replay.h"
#include "scenario/scenario.h"
#include "util/string_util.h"
#include "workload/workload.h"

using namespace piggy;
using namespace piggy::bench;

namespace {

/// Mean per-epoch imbalance over the second half of the run: the steady
/// state a triggered migration should have reached.
double TailImbalance(const std::vector<ReplayEpochRow>& epochs) {
  if (epochs.empty()) return 0;
  const size_t start = epochs.size() / 2;
  double sum = 0;
  size_t count = 0;
  for (size_t e = start; e < epochs.size(); ++e) {
    sum += epochs[e].imbalance;
    ++count;
  }
  return count > 0 ? sum / static_cast<double>(count) : 0;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const size_t nodes = static_cast<size_t>(flags.Int("nodes", 2000));
  const uint64_t seed = static_cast<uint64_t>(flags.Int("seed", 42));
  const size_t shards = static_cast<size_t>(flags.Int("shards", 4));
  ScenarioOptions scenario_options;
  scenario_options.num_requests =
      static_cast<size_t>(flags.Int("requests", 60000));
  scenario_options.epochs = static_cast<size_t>(flags.Int("epochs", 16));
  scenario_options.seed = seed;
  scenario_options.intensity = flags.Double("intensity", 10.0);
  scenario_options.churn_level = flags.Double("churn-level", 1.0);
  const double ratio = flags.Double("ratio", 5.0);
  const size_t audit_every = static_cast<size_t>(flags.Int("audit-every", 400));

  RebalanceOptions rebalance;
  rebalance.plan.move_budget =
      static_cast<size_t>(flags.Int("move-budget", 160));
  rebalance.batch_size = static_cast<size_t>(flags.Int("batch", 32));
  rebalance.plan.balance_slack = flags.Double("slack", 0.05);
  rebalance.plan.heal_min_gain = flags.Double("heal-min-gain", 3.0);
  rebalance.plan.drain_cost_ratio = flags.Double("drain-cost-ratio", 0.0);
  rebalance.trigger.imbalance_threshold =
      flags.Double("imbalance-threshold", 1.4);
  rebalance.trigger.cross_rate_rise = flags.Double("cross-rate-rise", 0.25);
  rebalance.trigger.send_rise = flags.Double("send-rise", 0.75);
  rebalance.trigger.warmup_windows =
      static_cast<size_t>(flags.Int("warmup", 3));
  rebalance.trigger.consecutive_windows =
      static_cast<size_t>(flags.Int("windows", 2));
  rebalance.trigger.cooldown_windows =
      static_cast<size_t>(flags.Int("cooldown", 1));

  const std::vector<std::string> scenarios = StrSplit(
      flags.Str("scenarios", "celebrity-join,regional-event,stationary"), ',');
  const std::vector<std::string> modes =
      StrSplit(flags.Str("modes", "static,rebalance"), ',');
  const std::string csv_path = flags.Str("csv", "");
  const std::string json_path = flags.Str("json", "");
  flags.Finish();

  Banner("Fig 13 - elastic rebalancing vs. static placement",
         "expect: rebalance ties static on stationary; for celebrity-join and "
         "regional-event it cuts both the tail imbalance and the cross-shard "
         "message total, with oracle audits green throughout");

  Graph g = MakeFlickrLike(nodes, seed).ValueOrDie();
  Workload base =
      GenerateWorkload(g, {.read_write_ratio = ratio, .min_rate = 0.01})
          .ValueOrDie();
  std::printf("graph: %zu nodes, %zu edges; %zu shards (edge-cut)\n\n",
              g.num_nodes(), g.num_edges(), shards);

  Table table({"scenario", "mode", "row", "epoch", "requests", "shares",
               "queries", "mpr", "cross_msgs", "imbalance", "migrations",
               "moved", "wall_ms"});

  for (const std::string& scenario_name : scenarios) {
    for (const std::string& mode : modes) {
      auto scenario = MakeScenario(scenario_name, g, base, scenario_options)
                          .MoveValueOrDie();

      ClusterOptions options;
      options.num_shards = shards;
      options.partitioner = "edge-cut";
      options.audit_every = audit_every;
      options.shard.prototype.num_servers = 8;
      auto cluster = ClusterService::Create(g, base, options).MoveValueOrDie();

      MigrationCoordinator coordinator(*cluster, rebalance);
      // Per-epoch deltas of the coordinator's counters, recorded as the
      // epoch-close hook runs (the hook *is* the rebalance control loop).
      std::vector<size_t> migrations_by_epoch;
      std::vector<size_t> moved_by_epoch;
      ReplayOptions replay_options;
      if (mode == "rebalance") {
        replay_options.on_epoch_close =
            [&](const ReplayEpochRow&) -> Status {
          const size_t migrations_before = coordinator.report().migrations;
          const size_t moved_before = coordinator.report().users_moved;
          PIGGY_RETURN_NOT_OK(coordinator.Step().status());
          migrations_by_epoch.push_back(coordinator.report().migrations -
                                        migrations_before);
          moved_by_epoch.push_back(coordinator.report().users_moved -
                                   moved_before);
          return Status::OK();
        };
      }
      ReplayReport report =
          ReplayScenario(*scenario, *cluster, replay_options).ValueOrDie();
      PIGGY_CHECK(cluster->Validate().ok());

      double cross_total = 0;
      for (size_t e = 0; e < report.epochs.size(); ++e) {
        const ReplayEpochRow& row = report.epochs[e];
        cross_total += row.cross_messages;
        const size_t migs =
            e < migrations_by_epoch.size() ? migrations_by_epoch[e] : 0;
        const size_t moved = e < moved_by_epoch.size() ? moved_by_epoch[e] : 0;
        table.AddRow({scenario_name, mode, "epoch", std::to_string(row.epoch),
                      std::to_string(row.shares + row.queries),
                      std::to_string(row.shares), std::to_string(row.queries),
                      Fmt(row.messages_per_request), Fmt(row.cross_messages, 0),
                      Fmt(row.imbalance), std::to_string(migs),
                      std::to_string(moved),
                      Fmt(row.wall_seconds * 1e3, 1)});
      }
      const RebalanceReport& rb = coordinator.report();
      table.AddRow({scenario_name, mode, "total", "-1",
                    std::to_string(report.shares + report.queries),
                    std::to_string(report.shares),
                    std::to_string(report.queries),
                    Fmt(report.messages_per_request), Fmt(cross_total, 0),
                    Fmt(TailImbalance(report.epochs)),
                    std::to_string(rb.migrations),
                    std::to_string(rb.users_moved),
                    Fmt(report.wall_seconds * 1e3, 1)});
      std::printf("%s [%s]\n", report.ToString().c_str(), mode.c_str());
      if (rb.times_fired > 0) {
        std::printf("  rebalance: fired %zu times, moved %zu users in %zu "
                    "migrations; last plan predicted cut %.1f -> %.1f, "
                    "imbalance %.2f -> %.2f\n",
                    rb.times_fired, rb.users_moved, rb.migrations,
                    rb.last_cut_before, rb.last_cut_after,
                    rb.last_imbalance_before, rb.last_imbalance_after);
      }
      const ClusterMetrics metrics = cluster->GetMetrics();
      PIGGY_CHECK_EQ(metrics.audited_queries > 0, audit_every > 0);
    }
  }

  std::printf("\n");
  table.Print();
  table.WriteCsv(csv_path);
  table.WriteJson(json_path);
  return 0;
}
