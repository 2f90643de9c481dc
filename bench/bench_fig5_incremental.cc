// Figure 5: incremental vs static re-optimization under graph growth.
//
// Protocol (paper Sec. 4.2): optimize half the flickr graph with the
// configured planner (--planner, default "nosy"); add batches of k random
// edges; compare two policies:
//   incremental — serve new edges directly (Sec. 3.3), keep the old schedule;
//   static      — re-run the planner on the grown graph.
// Both are reported as predicted improvement ratio over FF on the grown
// graph.
//
// Paper shape: the incremental policy degrades slowly with batch size and
// stays close to the static bound until batches approach a third of the
// initial graph; re-optimizing once per ~1/3-graph's worth of new edges
// suffices.

#include <cstdio>

#include "bench/bench_common.h"
#include "core/cost_model.h"
#include "core/incremental.h"
#include "core/planner.h"
#include "gen/presets.h"
#include "graph/graph_builder.h"
#include "util/rng.h"
#include "workload/workload.h"

using namespace piggy;
using namespace piggy::bench;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const size_t nodes = static_cast<size_t>(flags.Int("nodes", 15000));
  const uint64_t seed = static_cast<uint64_t>(flags.Int("seed", 42));
  const std::string planner_name = flags.Str("planner", "nosy");
  const std::string csv_path = flags.Str("csv", "");
  const std::string json_path = flags.Str("json", "");
  flags.Finish();

  Banner("Figure 5 - incremental vs static re-optimization under edge additions",
         "expect: incremental ratio degrades slowly with batch size; static "
         "re-optimization stays flat above it");

  auto planner = MakePlanner(planner_name).MoveValueOrDie();
  PlanContext ctx;
  const std::string ctx_str = ctx.ToString();

  // Full graph and workload (rates fixed from the full graph so both
  // policies are compared on identical request rates).
  Graph full = MakeFlickrLike(nodes, seed).ValueOrDie();
  Workload w = GenerateWorkload(full, {.read_write_ratio = 5.0,
                                       .min_rate = 0.01})
                   .ValueOrDie();

  // Split edges: half now, the rest is the addition pool.
  std::vector<Edge> edges = full.Edges();
  Rng rng(seed ^ 0xabcdef);
  rng.Shuffle(edges);
  const size_t half = edges.size() / 2;
  GraphBuilder builder(full.num_nodes());
  builder.EnsureNodes(full.num_nodes());
  for (size_t i = 0; i < half; ++i) builder.AddEdge(edges[i].src, edges[i].dst);
  Graph half_graph = std::move(builder).Build().ValueOrDie();
  std::printf("half graph: %zu/%zu edges; addition pool: %zu edges\n",
              half_graph.num_edges(), full.num_edges(), edges.size() - half);

  PlanResult base = planner->Plan(half_graph, w, ctx).MoveValueOrDie();
  std::printf("base optimization (%s): ratio %.3f over FF on half graph\n\n",
              base.planner.c_str(),
              ImprovementRatio(base.hybrid_cost, base.final_cost));

  Table table({"planner", "plan_context", "batch_size", "incremental_ratio",
               "static_ratio"});

  std::vector<size_t> batch_sizes;
  for (size_t k = 1000; k <= edges.size() - half; k *= 3) batch_sizes.push_back(k);
  batch_sizes.push_back(edges.size() - half);

  for (size_t k : batch_sizes) {
    // Incremental policy: fresh copy of the base schedule, add k edges.
    DynamicGraph dyn(half_graph);
    Schedule schedule = base.schedule;
    IncrementalMaintainer maintainer(&dyn, &schedule, &w);
    for (size_t i = half; i < half + k; ++i) {
      PIGGY_CHECK_OK(maintainer.AddEdge(edges[i].src, edges[i].dst));
    }
    Graph grown = dyn.Snapshot().ValueOrDie();
    double ff = HybridCost(grown, w);
    double incremental_cost = ScheduleCost(grown, w, schedule, ResidualPolicy::kFree);

    // Static policy: re-optimize the grown graph from scratch.
    PlanResult reopt = planner->Plan(grown, w, ctx).MoveValueOrDie();

    table.AddRow({base.planner, ctx_str, std::to_string(k),
                  Fmt(ImprovementRatio(ff, incremental_cost)),
                  Fmt(ImprovementRatio(ff, reopt.final_cost))});
  }

  table.Print();
  table.WriteCsv(csv_path);
  table.WriteJson(json_path);
  return 0;
}
