// Figure 7: predicted throughput with data placement vs number of servers,
// normalized by the one-server optimum (every request = one message).
//
// Uses the analytic placement-aware cost (one message per distinct server in
// a request's push/pull view set) instead of the simulator, which lets the
// sweep extend to 10,000 servers cheaply — exactly what the paper plots.
//
// Paper shape: normalized throughput falls with servers for both schedules;
// FF wins below ~200 servers, PARALLELNOSY above; the ratio converges to the
// placement-free ratio of Figure 4 as co-location becomes negligible.
//
// Rows are (planner, partitioner, servers); pass --planners / --partitioners
// to sweep other registry planners and placement policies (e.g.
// --partitioners hash,edge-cut shows how much graph-aware placement recovers
// of the co-location the hash default gives away).

#include <cstdio>
#include <map>
#include <memory>

#include "bench/bench_common.h"
#include "core/cost_model.h"
#include "core/planner.h"
#include "gen/presets.h"
#include "store/partitioner.h"
#include "util/string_util.h"
#include "workload/workload.h"

using namespace piggy;
using namespace piggy::bench;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const size_t nodes = static_cast<size_t>(flags.Int("nodes", 15000));
  const uint64_t seed = static_cast<uint64_t>(flags.Int("seed", 42));
  const std::string planners = flags.Str("planners", "nosy,hybrid");
  const std::string partitioners = flags.Str("partitioners", "hash");
  const std::string csv_path = flags.Str("csv", "");
  const std::string json_path = flags.Str("json", "");
  flags.Finish();

  Banner("Figure 7 - predicted throughput (with data placement) vs servers",
         "expect: normalized throughput falls with fleet size; crossover "
         "around a couple hundred servers; ratio converges to the "
         "placement-free (Fig. 4) ratio");

  Graph g = MakeFlickrLike(nodes, seed).ValueOrDie();
  Workload w = GenerateWorkload(g, {.read_write_ratio = 5.0, .min_rate = 0.01})
                   .ValueOrDie();

  PlanContext ctx;
  const std::string ctx_str = ctx.ToString();

  // One-server cost = total request rate: the normalization optimum.
  const double optimum_cost = w.TotalProduction() + w.TotalConsumption();
  const std::vector<size_t> fleets = {1,   2,   5,    10,   20,   50,  100,
                                      200, 500, 1000, 2000, 5000, 10000};

  Table table(
      {"planner", "plan_context", "partitioner", "servers", "throughput_norm"});
  std::map<std::string, std::map<size_t, double>> curves;

  // Placements depend only on (policy, servers), not on the planner: build
  // each once up front (the edge-cut build is the expensive part).
  const std::vector<std::string> policies = StrSplit(partitioners, ',');
  std::map<std::string, std::map<size_t, std::unique_ptr<Partitioner>>> parts;
  for (const std::string& policy : policies) {
    for (size_t servers : fleets) {
      parts[policy][servers] = MakePartitioner(policy, g, w, servers).MoveValueOrDie();
    }
  }

  for (const std::string& name : StrSplit(planners, ',')) {
    auto planner = MakePlanner(name).MoveValueOrDie();
    PlanResult plan = planner->Plan(g, w, ctx).MoveValueOrDie();
    std::printf("%s placement-free predicted improvement ratio: %.3f\n",
                plan.planner.c_str(),
                ImprovementRatio(plan.hybrid_cost, plan.final_cost));
    for (const std::string& policy : policies) {
      for (size_t servers : fleets) {
        const Partitioner& part = *parts[policy][servers];
        double cost = PlacementAwareCost(g, w, plan.schedule, part);
        // The planner-comparison summary below tracks the first policy only.
        if (policy == policies.front()) curves[plan.planner][servers] = cost;
        table.AddRow({plan.planner, ctx_str, part.name(),
                      std::to_string(servers), Fmt(optimum_cost / cost)});
      }
    }
  }

  std::printf("\n");
  table.Print();
  if (curves.size() == 2) {
    auto first = curves.begin();
    auto second = std::next(first);
    std::printf("\npredicted improvement of %s over %s (should approach the "
                "placement-free ratio at 10000 servers): ",
                second->first.c_str(), first->first.c_str());
    for (size_t servers : fleets) {
      // Costs invert into throughput: improvement = cost(first)/cost(second).
      std::printf("%zu:%.3f ", servers,
                  first->second[servers] / second->second[servers]);
    }
    std::printf("\n");
  }
  table.WriteCsv(csv_path);
  table.WriteJson(json_path);
  return 0;
}
