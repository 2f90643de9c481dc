// Ablations of the design decisions called out in DESIGN.md, driven through
// the typed planner factories so every JSON row carries the planner registry
// name and PlanContext settings:
//
//   D1 - PARALLELNOSY cross-edge cap b (the paper's MapReduce memory fix):
//        quality vs cap size.
//   D2 - CHITCHAT densest-subgraph oracle: greedy peeling vs exhaustive on
//        small hub-graphs.
//   D3 - lock tie-breaking: deterministic hub-edge id vs salted hash.
//   D4 - candidate gain threshold epsilon.
//   D5 - executor: sequential reference vs MapReduce (identical schedules;
//        wall-clock comparison).

#include <cstdio>
#include <string>

#include "bench/bench_common.h"
#include "core/cost_model.h"
#include "core/planner.h"
#include "gen/presets.h"
#include "workload/workload.h"

using namespace piggy;
using namespace piggy::bench;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const size_t nodes = static_cast<size_t>(flags.Int("nodes", 8000));
  const uint64_t seed = static_cast<uint64_t>(flags.Int("seed", 42));

  // Optional dumps: each ablation table goes to PATH.d1 .. PATH.d5.
  const std::string csv = flags.Str("csv", "");
  const std::string json = flags.Str("json", "");
  flags.Finish();
  auto dump = [&csv, &json](const Table& table, const std::string& tag) {
    if (!csv.empty()) table.WriteCsv(csv + "." + tag);
    if (!json.empty()) table.WriteJson(json + "." + tag);
  };

  PlanContext ctx;
  const std::string ctx_str = ctx.ToString();

  Graph g = MakeFlickrLike(nodes, seed).ValueOrDie();
  Workload w = GenerateWorkload(g, {.read_write_ratio = 5.0, .min_rate = 0.01})
                   .ValueOrDie();

  Banner("Ablation D1 - PARALLELNOSY cross-edge cap b",
         "expect: quality saturates once b exceeds typical hub degree; tiny "
         "caps lose gains");
  {
    Table table({"planner", "plan_context", "cap_b", "improvement_ratio",
                 "iterations"});
    for (size_t cap : {1, 2, 4, 16, 64, 1024, 100000}) {
      ParallelNosyOptions opt;
      opt.max_hub_producers = cap;
      PlanResult plan =
          MakeParallelNosyPlanner(opt)->Plan(g, w, ctx).MoveValueOrDie();
      table.AddRow({plan.planner, ctx_str, std::to_string(cap),
                    Fmt(ImprovementRatio(plan.hybrid_cost, plan.final_cost)),
                    std::to_string(plan.iterations.size())});
    }
    table.Print();
    dump(table, "d1");
  }

  Banner("Ablation D2 - CHITCHAT oracle: peeling vs exhaustive (small graph)",
         "expect: comparable quality; exhaustive is exponentially slower and "
         "only feasible on tiny hub-graphs");
  {
    Graph small = MakeFlickrLike(1200, seed).ValueOrDie();
    Workload sw = GenerateWorkload(small, {.read_write_ratio = 5.0,
                                           .min_rate = 0.01})
                      .ValueOrDie();
    Table table({"planner", "plan_context", "oracle", "improvement_ratio",
                 "seconds"});
    for (bool exhaustive : {false, true}) {
      ChitChatOptions opt;
      opt.exhaustive_oracle_small = exhaustive;
      PlanResult plan =
          MakeChitChatPlanner(opt)->Plan(small, sw, ctx).MoveValueOrDie();
      table.AddRow({plan.planner, ctx_str,
                    exhaustive ? "exhaustive(<=14)" : "peeling",
                    Fmt(ImprovementRatio(plan.hybrid_cost, plan.final_cost)),
                    Fmt(plan.wall_seconds, 2)});
    }
    table.Print();
    dump(table, "d2");
  }

  Banner("Ablation D3 - lock tie-breaking",
         "expect: negligible quality difference; deterministic ids give "
         "reproducible schedules");
  {
    Table table({"planner", "plan_context", "tie_break", "improvement_ratio"});
    for (bool randomized : {false, true}) {
      ParallelNosyOptions opt;
      opt.randomized_tie_break = randomized;
      PlanResult plan =
          MakeParallelNosyPlanner(opt)->Plan(g, w, ctx).MoveValueOrDie();
      table.AddRow({plan.planner, ctx_str,
                    randomized ? "salted-hash" : "hub-edge-id",
                    Fmt(ImprovementRatio(plan.hybrid_cost, plan.final_cost))});
    }
    table.Print();
    dump(table, "d3");
  }

  Banner("Ablation D4 - candidate gain threshold epsilon",
         "expect: epsilon=0 (the paper's rule) is best; large thresholds "
         "forgo marginal hubs");
  {
    Table table({"planner", "plan_context", "min_gain", "improvement_ratio",
                 "hub_covers"});
    for (double eps : {0.0, 0.01, 0.1, 1.0, 10.0}) {
      ParallelNosyOptions opt;
      opt.min_gain = eps;
      PlanResult plan =
          MakeParallelNosyPlanner(opt)->Plan(g, w, ctx).MoveValueOrDie();
      table.AddRow({plan.planner, ctx_str, Fmt(eps, 2),
                    Fmt(ImprovementRatio(plan.hybrid_cost, plan.final_cost)),
                    std::to_string(plan.schedule.hub_covered_size())});
    }
    table.Print();
    dump(table, "d4");
  }

  Banner("Ablation D5 - executor: sequential vs MapReduce",
         "expect: identical improvement ratios (bit-identical schedules); "
         "MapReduce wins wall-clock on multi-core");
  {
    Table table({"planner", "plan_context", "executor", "improvement_ratio",
                 "seconds"});
    for (bool mapreduce : {false, true}) {
      ParallelNosyOptions opt;
      opt.use_mapreduce = mapreduce;
      PlanResult plan =
          MakeParallelNosyPlanner(opt)->Plan(g, w, ctx).MoveValueOrDie();
      table.AddRow({plan.planner, ctx_str,
                    mapreduce ? "mapreduce" : "sequential",
                    Fmt(ImprovementRatio(plan.hybrid_cost, plan.final_cost)),
                    Fmt(plan.wall_seconds, 2)});
    }
    table.Print();
    dump(table, "d5");
  }
  return 0;
}
