// Figure 11 (beyond the paper): the concurrent serving plane under
// multi-threaded load.
//
// Sweeps client threads x serving mode: N client threads hammer one serving
// endpoint back to back with the rate-weighted share/query mix (a saturating
// open-per-thread load; see store/concurrent_driver.h) and each configuration
// reports aggregate throughput plus per-op p50/p95/p99 latency.
//
// Modes:
//   steady - serving only; no churn, no replans. The lock-scaling baseline.
//   replan - a churn thread cycles Follow/Unfollow pairs and periodically
//            posts background replans, so schedule swaps (planner on its own
//            thread, atomic publish, raced churn repaired via Sec-3.3 rules)
//            land *while* the clients are measuring. The p99 gap between the
//            two modes is what a stop-the-world replan would have cost every
//            request caught behind it.
//
// With --shards > 1 the same sweep runs against a sharded ClusterService
// (stripe-locked router, per-shard background replanners) next to the
// single-process FeedService rows.
//
// Expected shape (multi-core): aggregate ops/sec scales with threads until
// the exclusive-side work (churn repairs, schedule swaps) saturates the
// writer lock; replan-mode p99 stays within a small factor of steady-mode
// p99 because planning happens off-thread. On a 1-CPU container the threads
// time-slice and throughput stays roughly flat — the bench still exercises
// every concurrent path (CI runs it under TSan for exactly that).
//
//   ./bench_fig11_serving --nodes 2000 --requests 20000 --json fig11.json
//   ./bench_fig11_serving --threads 1,8 --modes replan --shards 4

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "cluster/cluster_service.h"
#include "gen/presets.h"
#include "graph/graph.h"
#include "obs/metrics.h"
#include "store/concurrent_driver.h"
#include "store/feed_service.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "workload/workload.h"

using namespace piggy;
using namespace piggy::bench;

namespace {

// Follow/Unfollow pairs absent from the initial graph: the churn thread
// cycles add-then-remove over these, so the graph always returns to its
// starting topology and the final Validate checks the original instance.
std::vector<std::pair<NodeId, NodeId>> MakeChurnPool(const Graph& g,
                                                     uint64_t seed,
                                                     size_t want) {
  std::vector<std::pair<NodeId, NodeId>> pool;
  Rng rng(Mix64(seed ^ 0xc4u));
  const size_t n = g.num_nodes();
  while (pool.size() < want) {
    const NodeId producer = static_cast<NodeId>(rng.Uniform(n));
    const NodeId follower = static_cast<NodeId>(rng.Uniform(n));
    if (producer == follower || g.HasEdge(producer, follower)) continue;
    pool.emplace_back(follower, producer);
  }
  return pool;
}

// One churn thread: Follow/Unfollow cycles against `ops`, posting a
// background replan every `replan_every` cycles, until `stop` is raised.
// Returns the number of churn ops applied.
template <typename Service>
size_t RunChurn(Service& service,
                const std::vector<std::pair<NodeId, NodeId>>& pool,
                size_t replan_every, int64_t interval_us,
                std::atomic<bool>& stop) {
  size_t ops = 0, cycles = 0;
  while (!stop.load(std::memory_order_acquire)) {
    const auto& [follower, producer] = pool[cycles % pool.size()];
    if (!service.Follow(follower, producer).ok()) break;
    if (!service.Unfollow(follower, producer).ok()) break;
    ops += 2;
    if (++cycles % replan_every == 0) {
      if (!service.StartBackgroundReplan().ok()) break;
    }
    if (interval_us > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(interval_us));
    }
  }
  return ops;
}

struct ModeResult {
  ConcurrentDriveReport report;
  size_t churn_ops = 0;
  size_t background_replans = 0;
};

// Bucketed-estimate vs nearest-rank-truth check: both statistics use the
// same rank convention, so they fall inside the same bucket and the estimate
// must sit within one geometric bucket width of the exact value (clamped to
// the histogram's range). Exits non-zero on violation — this is the bench's
// accuracy gate, not a soft report.
void CheckWithinOneBucket(const obs::Histogram& h, const char* what, double q,
                          double exact_us) {
  if (h.Count() == 0) return;
  const double est = h.Percentile(q);
  const double clamped =
      std::min(std::max(exact_us, h.min_value()), h.max_value());
  const double tol = h.bucket_ratio() * 1.0001;  // fp slack on the bound
  if (est <= clamped * tol && est >= clamped / tol) return;
  std::fprintf(stderr,
               "FAIL: %s p%.0f histogram estimate %.4f us vs exact %.4f us "
               "outside one bucket width (ratio %.4f)\n",
               what, q * 100, est, exact_us, h.bucket_ratio());
  std::exit(1);
}

void CheckHistogramAccuracy(const obs::Histogram& share_h,
                            const obs::Histogram& query_h,
                            const ConcurrentDriveReport& report) {
  CheckWithinOneBucket(share_h, "share", 0.50, report.share_latency.p50_us);
  CheckWithinOneBucket(share_h, "share", 0.95, report.share_latency.p95_us);
  CheckWithinOneBucket(share_h, "share", 0.99, report.share_latency.p99_us);
  CheckWithinOneBucket(query_h, "query", 0.50, report.query_latency.p50_us);
  CheckWithinOneBucket(query_h, "query", 0.95, report.query_latency.p95_us);
  CheckWithinOneBucket(query_h, "query", 0.99, report.query_latency.p99_us);
}

// Drives `service` from `threads` clients; in replan mode a churn thread and
// the service's background replanner run underneath the measurement.
template <typename Service>
Result<ModeResult> DriveMode(Service& service, bool replan_mode,
                             const std::vector<std::pair<NodeId, NodeId>>& pool,
                             size_t replan_every, int64_t churn_interval_us,
                             const ConcurrentDriverOptions& options) {
  ModeResult out;
  std::atomic<bool> stop{false};
  std::thread churn;
  if (replan_mode) {
    churn = std::thread([&] {
      out.churn_ops =
          RunChurn(service, pool, replan_every, churn_interval_us, stop);
    });
  }
  auto report = RunConcurrentDriver(service, options);
  stop.store(true, std::memory_order_release);
  if (churn.joinable()) churn.join();
  PIGGY_RETURN_NOT_OK(service.WaitForBackgroundReplan());
  PIGGY_ASSIGN_OR_RETURN(out.report, std::move(report));
  PIGGY_RETURN_NOT_OK(service.Validate());
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const size_t nodes = static_cast<size_t>(flags.Int("nodes", 2000));
  const uint64_t seed = static_cast<uint64_t>(flags.Int("seed", 42));
  const size_t requests = static_cast<size_t>(flags.Int("requests", 20000));
  const double ratio = flags.Double("ratio", 5.0);
  const size_t num_shards = static_cast<size_t>(flags.Int("shards", 0));
  const size_t replan_every = static_cast<size_t>(flags.Int("replan-every", 8));
  const int64_t churn_interval_us = flags.Int("churn-interval-us", 200);
  std::vector<size_t> thread_counts;
  for (const std::string& t : StrSplit(flags.Str("threads", "1,2,4,8,16"), ',')) {
    thread_counts.push_back(static_cast<size_t>(std::atoll(t.c_str())));
  }
  std::vector<std::string> modes = StrSplit(flags.Str("modes", "steady,replan"), ',');
  const std::string csv_path = flags.Str("csv", "");
  const std::string json_path = flags.Str("json", "");
  const std::string metrics_json = flags.Str("metrics-json", "");
  flags.Finish();

  Banner("Figure 11 - concurrent serving: threads x replan mode",
         "expect: aggregate ops/sec scales with threads on multi-core hosts; "
         "replan-mode p99 stays near steady-mode p99 because planning runs "
         "off the serving threads");

  Graph g = MakeFlickrLike(nodes, seed).ValueOrDie();
  Workload base =
      GenerateWorkload(g, {.read_write_ratio = ratio, .min_rate = 0.01})
          .ValueOrDie();
  const auto churn_pool = MakeChurnPool(g, seed, 64);
  std::printf("graph: %zu nodes, %zu edges; %zu total requests per config\n\n",
              g.num_nodes(), g.num_edges(), requests);

  Table table({"service", "mode", "threads", "shards", "requests", "wall_s",
               "ops_per_sec", "share_p50_us", "share_p95_us", "share_p99_us",
               "query_p50_us", "query_p95_us", "query_p99_us", "bg_replans",
               "churn_ops"});

  auto add_row = [&](const std::string& service, const std::string& mode,
                     size_t threads, size_t shards, const ModeResult& r) {
    table.AddRow({service, mode, std::to_string(threads),
                  std::to_string(shards),
                  std::to_string(r.report.shares + r.report.queries),
                  Fmt(r.report.wall_seconds), Fmt(r.report.ops_per_second, 0),
                  Fmt(r.report.share_latency.p50_us, 1),
                  Fmt(r.report.share_latency.p95_us, 1),
                  Fmt(r.report.share_latency.p99_us, 1),
                  Fmt(r.report.query_latency.p50_us, 1),
                  Fmt(r.report.query_latency.p95_us, 1),
                  Fmt(r.report.query_latency.p99_us, 1),
                  std::to_string(r.background_replans),
                  std::to_string(r.churn_ops)});
    std::printf("%-7s %-6s %s bg_replans=%zu churn=%zu\n", service.c_str(),
                mode.c_str(), r.report.ToString().c_str(),
                r.background_replans, r.churn_ops);
  };

  // One registry for the whole sweep; each config gets its own pair of
  // histograms, fed the exact same per-op samples the nearest-rank
  // percentiles are computed from. --metrics-json dumps the lot.
  obs::MetricsRegistry metrics;

  for (const std::string& mode : modes) {
    const bool replan_mode = mode == "replan";
    for (size_t threads : thread_counts) {
      ConcurrentDriverOptions driver;
      driver.client_threads = threads;
      driver.requests_per_thread = std::max<size_t>(1, requests / threads);
      driver.seed = seed;

      {
        std::string prefix = "feed.";
        prefix += mode;
        prefix += ".t";
        prefix += std::to_string(threads);
        obs::Histogram& share_h =
            metrics.GetHistogram(prefix + ".share_us", 0.05, 1e6, 96);
        obs::Histogram& query_h =
            metrics.GetHistogram(prefix + ".query_us", 0.05, 1e6, 96);
        driver.share_histogram = &share_h;
        driver.query_histogram = &query_h;
        FeedServiceOptions options;
        options.planner = "nosy";
        options.prototype.num_servers = 32;
        options.background_replan = replan_mode;
        auto service = FeedService::Create(g, base, options).MoveValueOrDie();
        ModeResult r = DriveMode(*service, replan_mode, churn_pool,
                                 replan_every, churn_interval_us, driver)
                           .ValueOrDie();
        r.background_replans = service->GetMetrics().background_replans;
        CheckHistogramAccuracy(share_h, query_h, r.report);
        add_row("feed", mode, threads, 1, r);
      }

      if (num_shards > 1) {
        std::string prefix = "cluster.";
        prefix += mode;
        prefix += ".t";
        prefix += std::to_string(threads);
        obs::Histogram& share_h =
            metrics.GetHistogram(prefix + ".share_us", 0.05, 1e6, 96);
        obs::Histogram& query_h =
            metrics.GetHistogram(prefix + ".query_us", 0.05, 1e6, 96);
        driver.share_histogram = &share_h;
        driver.query_histogram = &query_h;
        ClusterOptions options;
        options.num_shards = num_shards;
        options.shard.planner = "nosy";
        options.shard.prototype.num_servers = 32;
        options.shard.background_replan = replan_mode;
        auto cluster =
            ClusterService::Create(g, base, options).MoveValueOrDie();
        ModeResult r = DriveMode(*cluster, replan_mode, churn_pool,
                                 replan_every, churn_interval_us, driver)
                           .ValueOrDie();
        size_t bg = 0;
        for (size_t s = 0; s < cluster->num_shards(); ++s) {
          bg += cluster->shard(s).GetMetrics().background_replans;
        }
        r.background_replans = bg;
        CheckHistogramAccuracy(share_h, query_h, r.report);
        add_row("cluster", mode, threads, num_shards, r);
      }
    }
  }

  std::printf("\nhistogram accuracy: every bucketed p50/p95/p99 within one "
              "bucket width of the exact nearest-rank percentile\n\n");
  table.Print();
  table.WriteCsv(csv_path);
  table.WriteJson(json_path);
  if (!metrics_json.empty()) {
    std::FILE* f = std::fopen(metrics_json.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", metrics_json.c_str());
      return 1;
    }
    const std::string json = metrics.ToJson();
    std::fwrite(json.data(), 1, json.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("wrote metrics to %s\n", metrics_json.c_str());
  }
  return 0;
}
