// Figure 10 (beyond the paper): replanning policies under time-varying
// traffic.
//
// Sweeps scenario x planner x replan-policy: each combination replays the
// same deterministic scenario stream (seeded; see src/scenario) through a
// fresh FeedService and reports per-epoch rows — measured serving messages,
// the schedule's cost under the epoch's ground-truth rates, replans, the
// service's drift estimate, wall time — plus one total row per combination.
//
// Total cost charges replans at --replan-charge x initial-edge-count
// message-equivalents each (a planner pass is Omega(edges) work; the initial
// plan is free since every policy pays it). Expected shape: for the
// rate-shift scenarios (flash-crowd, regional-event) the churn-counting
// "every-N" policy never fires and ties with "never", while "drift" replans
// a handful of times with re-estimated rates and wins on serving messages;
// for the churn scenarios (follow-storm, celebrity-join) "every-N" burns a
// replan charge every N follows while "drift" spends a few replans where the
// cost advantage actually eroded. "stationary" is the control: no policy
// should replan at all (drift score stays under threshold).
//
//   ./bench_fig10_scenarios --nodes 2000 --requests 50000 --json fig10.json
//   ./bench_fig10_scenarios --scenarios flash-crowd,follow-storm
//       --policies never,every-64,drift --planners nosy,chitchat

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "gen/presets.h"
#include "scenario/drift.h"
#include "scenario/replay.h"
#include "scenario/scenario.h"
#include "store/feed_service.h"
#include "util/string_util.h"
#include "workload/workload.h"

using namespace piggy;
using namespace piggy::bench;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const size_t nodes = static_cast<size_t>(flags.Int("nodes", 2000));
  const uint64_t seed = static_cast<uint64_t>(flags.Int("seed", 42));
  ScenarioOptions scenario_options;
  scenario_options.num_requests = static_cast<size_t>(flags.Int("requests", 50000));
  scenario_options.epochs = static_cast<size_t>(flags.Int("epochs", 16));
  scenario_options.seed = seed;
  scenario_options.intensity = flags.Double("intensity", 10.0);
  scenario_options.churn_level = flags.Double("churn-level", 1.0);
  const double ratio = flags.Double("ratio", 5.0);
  // Replan charge in edge-count multiples. A planner pass is Omega(edges)
  // in-memory work while a serving message is a store round trip, so one
  // message is worth many edge-visits; 0.02 x edges per replan corresponds
  // to ~50 edge-visits per message.
  const double replan_charge = flags.Double("replan-charge", 0.02);
  const std::vector<std::string> scenarios = StrSplit(
      flags.Str("scenarios",
                "stationary,diurnal,flash-crowd,celebrity-join,follow-storm,"
                "regional-event"),
      ',');
  const std::vector<std::string> planners =
      StrSplit(flags.Str("planners", "nosy"), ',');
  const std::vector<std::string> policies =
      StrSplit(flags.Str("policies", "never,every-64,drift"), ',');
  const std::string csv_path = flags.Str("csv", "");
  const std::string json_path = flags.Str("json", "");
  flags.Finish();

  Banner("Figure 10 - scenario x planner x replan-policy sweep",
         "expect: drift beats never and every-N on total cost for flash-crowd "
         "and follow-storm; stationary never triggers a replan");

  Graph g = MakeFlickrLike(nodes, seed).ValueOrDie();
  Workload base =
      GenerateWorkload(g, {.read_write_ratio = ratio, .min_rate = 0.01})
          .ValueOrDie();
  const double replan_msgs = replan_charge * static_cast<double>(g.num_edges());
  std::printf("graph: %zu nodes, %zu edges; replan charge: %.0f msgs\n\n",
              g.num_nodes(), g.num_edges(), replan_msgs);

  Table table({"scenario", "planner", "policy", "row", "epoch", "sim_time",
               "requests", "shares", "queries", "follows", "unfollows", "mpr",
               "serving_msgs", "true_cost", "true_hybrid", "replans", "drift",
               "replan_msgs", "total_cost", "wall_ms"});

  for (const std::string& scenario_name : scenarios) {
    for (const std::string& planner : planners) {
      for (const std::string& policy_name : policies) {
        ReplanPolicy policy = ReplanPolicy::FromString(policy_name).ValueOrDie();
        auto scenario = MakeScenario(scenario_name, g, base, scenario_options)
                            .MoveValueOrDie();

        FeedServiceOptions options;
        options.planner = planner;
        options.replan = policy;
        options.prototype.num_servers = 32;
        auto service = FeedService::Create(g, base, options).MoveValueOrDie();
        ReplayReport report = ReplayScenario(*scenario, *service).ValueOrDie();

        for (const ReplayEpochRow& row : report.epochs) {
          table.AddRow({scenario_name, planner, policy_name, "epoch",
                        std::to_string(row.epoch), Fmt(row.sim_time, 0),
                        std::to_string(row.shares + row.queries),
                        std::to_string(row.shares), std::to_string(row.queries),
                        std::to_string(row.follows),
                        std::to_string(row.unfollows),
                        Fmt(row.messages_per_request), Fmt(row.messages, 0),
                        Fmt(row.true_cost, 1), Fmt(row.true_hybrid, 1),
                        std::to_string(row.replans), Fmt(row.drift_score),
                        Fmt(replan_msgs * static_cast<double>(row.replans), 0),
                        Fmt(row.messages +
                                replan_msgs * static_cast<double>(row.replans),
                            0),
                        Fmt(row.wall_seconds * 1e3, 1)});
        }
        // Total row: the initial plan is free (every policy pays it).
        const size_t extra_replans = report.replans > 0 ? report.replans - 1 : 0;
        const double charge =
            replan_msgs * static_cast<double>(extra_replans);
        const uint64_t requests = report.shares + report.queries;
        table.AddRow({scenario_name, planner, policy_name, "total", "-1", "-",
                      std::to_string(requests), std::to_string(report.shares),
                      std::to_string(report.queries),
                      std::to_string(report.follows),
                      std::to_string(report.unfollows),
                      Fmt(report.messages_per_request), Fmt(report.messages, 0),
                      "-", "-", std::to_string(extra_replans), "-", Fmt(charge, 0),
                      Fmt(report.messages + charge, 0),
                      Fmt(report.wall_seconds * 1e3, 1)});
        std::printf("%s\n", report.ToString().c_str());
      }
    }
  }

  std::printf("\n");
  table.Print();
  table.WriteCsv(csv_path);
  table.WriteJson(json_path);
  return 0;
}
