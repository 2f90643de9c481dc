// Figure 9 (a, b): predicted improvement ratio of the piggybacking planners
// on graph samples, as a function of the read/write ratio (mean consumption /
// mean production), for random-walk (9a) and breadth-first (9b) samples of
// the flickr-like and twitter-like graphs.
//
// Paper shape: CHITCHAT > PARALLELNOSY > 1 everywhere (the richer hub-graph
// space pays); both decay toward 1 as the workload becomes read-dominated
// (push-all-ish hybrid schedules approach optimality); breadth-first samples
// give larger gains than random-walk samples (they preserve high-degree hub
// neighborhoods).
//
// Rows are (planner, method, graph, read_write_ratio); pass --planners to
// sweep any registry subset.

#include <cstdio>

#include "bench/bench_common.h"
#include "core/cost_model.h"
#include "core/planner.h"
#include "gen/presets.h"
#include "sampling/samplers.h"
#include "util/string_util.h"
#include "workload/workload.h"

using namespace piggy;
using namespace piggy::bench;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const size_t nodes = static_cast<size_t>(flags.Int("nodes", 20000));
  const size_t sample_edges = static_cast<size_t>(flags.Int("sample_edges", 20000));
  const uint64_t seed = static_cast<uint64_t>(flags.Int("seed", 42));
  const std::string planners = flags.Str("planners", "chitchat,nosy");
  const std::string csv = flags.Str("csv", "");
  const std::string json = flags.Str("json", "");
  flags.Finish();

  Banner("Figure 9 - planner improvement ratios on graph samples vs "
         "read/write ratio",
         "expect: chitchat >= nosy > 1; gains decay toward 1 as the ratio "
         "grows; breadth-first samples beat random-walk samples");

  PlanContext ctx;
  const std::string ctx_str = ctx.ToString();

  struct Source {
    const char* name;
    Graph graph;
  };
  std::vector<Source> sources;
  sources.push_back({"flickr", MakeFlickrLike(nodes, seed).ValueOrDie()});
  sources.push_back({"twitter", MakeTwitterLike(nodes, seed).ValueOrDie()});

  const std::vector<double> ratios = {1, 2, 5, 10, 20, 50, 100};

  for (const char* method : {"random-walk", "breadth-first"}) {
    Table table({"planner", "plan_context", "method", "graph",
                 "read_write_ratio", "improvement_ratio"});
    std::printf("--- %s sampling (%zu target edges) ---\n", method, sample_edges);

    // One sample per source graph (the paper averages 5; see EXPERIMENTS.md).
    struct Sampled {
      const char* name;
      Graph graph;
    };
    std::vector<Sampled> samples;
    for (auto& [name, graph] : sources) {
      GraphSample s =
          (std::string(method) == "random-walk")
              ? RandomWalkSample(graph, sample_edges, seed).ValueOrDie()
              : BreadthFirstSample(graph, sample_edges, seed).ValueOrDie();
      std::printf("%s sample: %zu nodes, %zu edges\n", name,
                  s.graph.num_nodes(), s.graph.num_edges());
      samples.push_back({name, std::move(s.graph)});
    }

    for (const std::string& planner_name : StrSplit(planners, ',')) {
      auto planner = MakePlanner(planner_name).MoveValueOrDie();
      for (auto& [name, sample] : samples) {
        for (double ratio : ratios) {
          Workload w = GenerateWorkload(sample, {.read_write_ratio = ratio,
                                                 .min_rate = 0.01})
                           .ValueOrDie();
          PlanResult plan = planner->Plan(sample, w, ctx).MoveValueOrDie();
          table.AddRow({plan.planner, ctx_str, method, name, Fmt(ratio, 0),
                        Fmt(ImprovementRatio(plan.hybrid_cost, plan.final_cost))});
        }
      }
    }
    table.Print();
    if (!csv.empty()) table.WriteCsv(csv + "." + method);
    if (!json.empty()) table.WriteJson(json + "." + method);
    std::printf("\n");
  }
  return 0;
}
