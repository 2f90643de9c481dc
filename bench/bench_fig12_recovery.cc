// Figure 12 (beyond the paper): crash-recovery cost of the durable serving
// plane.
//
// Sweeps WAL length x snapshot cadence for both deployment shapes: a storm of
// shares/churn/rate-shifts runs through a durable FeedService (and a 4-shard
// ClusterService), the process "dies" (the service is dropped after an
// orderly flush), and recovery rebuilds it from the newest snapshot plus the
// WAL tail. Each row reports how much history recovery had to replay and the
// recovery wall time.
//
// Expected shape: with snapshots off (snapshot_every = 0) replayed ops — and
// recovery time — grow linearly with the op count; a snapshot cadence bounds
// the WAL tail, so recovery time flattens to roughly the cost of loading the
// newest snapshot plus replaying at most snapshot_every records. The cluster
// rows carry a constant overhead over the single-process rows (per-shard
// planes are rebuilt, the router re-derives its state from shard event
// logs).
//
//   ./bench_fig12_recovery --nodes 400 --json fig12.json
//   ./bench_fig12_recovery --ops 1000,5000,20000 --snapshots 0,2000,8000

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "cluster/cluster_service.h"
#include "gen/presets.h"
#include "graph/graph.h"
#include "store/feed_service.h"
#include "util/string_util.h"
#include "workload/workload.h"

using namespace piggy;
using namespace piggy::bench;

namespace {

struct StormOp {
  enum Kind { kShare, kFollow, kUnfollow, kRates } kind = kShare;
  NodeId user = 0;
  NodeId producer = 0;
  double rp = 0, rc = 0;
};

std::vector<StormOp> MakeStorm(size_t n_nodes, size_t n_ops, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<NodeId> node(0, static_cast<NodeId>(n_nodes - 1));
  std::uniform_int_distribution<int> kind(0, 99);
  std::vector<StormOp> ops;
  std::vector<std::pair<NodeId, NodeId>> followed;
  ops.reserve(n_ops);
  for (size_t i = 0; i < n_ops; ++i) {
    StormOp op;
    int k = kind(rng);
    if (k < 70) {
      op.kind = StormOp::kShare;
      op.user = node(rng);
    } else if (k < 85) {
      op.kind = StormOp::kFollow;
      op.user = node(rng);
      do op.producer = node(rng); while (op.producer == op.user);
      followed.emplace_back(op.user, op.producer);
    } else if (k < 95 && !followed.empty()) {
      op.kind = StormOp::kUnfollow;
      auto [f, p] = followed[rng() % followed.size()];
      op.user = f;
      op.producer = p;
    } else {
      op.kind = StormOp::kRates;
      op.user = node(rng);
      op.rp = 0.1 + static_cast<double>(rng() % 100) / 10.0;
      op.rc = 0.1 + static_cast<double>(rng() % 100) / 10.0;
    }
    ops.push_back(op);
  }
  return ops;
}

template <typename Service>
void ApplyStorm(Service& s, const std::vector<StormOp>& ops) {
  for (const auto& op : ops) {
    Status st;
    switch (op.kind) {
      case StormOp::kShare: st = s.Share(op.user); break;
      case StormOp::kFollow: st = s.Follow(op.user, op.producer); break;
      case StormOp::kUnfollow: st = s.Unfollow(op.user, op.producer); break;
      case StormOp::kRates: st = s.SetUserRates(op.user, op.rp, op.rc); break;
    }
    PIGGY_CHECK(st.ok());
  }
}

uint64_t ReplayedOps(const RecoveryStats& s) {
  return s.replayed_shares + s.replayed_follows + s.replayed_unfollows +
         s.replayed_rate_shifts;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const size_t nodes = static_cast<size_t>(flags.Int("nodes", 400));
  const uint64_t seed = static_cast<uint64_t>(flags.Int("seed", 29));
  std::vector<size_t> op_counts;
  for (const auto& s : StrSplit(flags.Str("ops", "1000,5000,20000"), ','))
    op_counts.push_back(static_cast<size_t>(std::atoll(s.c_str())));
  std::vector<uint64_t> cadences;
  for (const auto& s : StrSplit(flags.Str("snapshots", "0,2000,8000"), ','))
    cadences.push_back(static_cast<uint64_t>(std::atoll(s.c_str())));
  const std::string csv_path = flags.Str("csv", "");
  const std::string json_path = flags.Str("json", "");
  flags.Finish();

  Banner("Fig 12: recovery cost vs. WAL length and snapshot cadence",
         "replayed ops track the WAL tail: linear in the op count without "
         "snapshots, capped near the cadence with them; recovery wall time "
         "follows the replayed volume.");

  Graph g = MakeFlickrLike(nodes, 3).ValueOrDie();
  Workload w = GenerateWorkload(g, {.min_rate = 0.05}).ValueOrDie();
  const std::string root =
      (std::filesystem::temp_directory_path() /
       ("piggy_fig12_" + std::to_string(::getpid()))).string();

  Table table({"service", "ops", "snapshot_every", "snapshot_id",
               "snapshot_events", "wal_records", "replayed_ops",
               "recover_ms"});
  size_t run = 0;
  for (size_t ops_n : op_counts) {
    auto storm = MakeStorm(nodes, ops_n, seed);
    for (uint64_t cadence : cadences) {
      for (const char* service : {"feed", "cluster-4"}) {
        const std::string dir = root + "/run" + std::to_string(run++);
        RecoveryStats stats;
        if (std::string(service) == "feed") {
          FeedServiceOptions opts;
          opts.prototype.num_servers = 8;
          opts.durability.data_dir = dir;
          opts.durability.snapshot_every = cadence;
          {
            auto svc = FeedService::Create(g, w, opts).MoveValueOrDie();
            ApplyStorm(*svc, storm);
          }
          auto back = FeedService::Recover(opts, &stats).MoveValueOrDie();
          PIGGY_CHECK(back->Validate().ok());
        } else {
          ClusterOptions opts;
          opts.num_shards = 4;
          opts.shard.prototype.num_servers = 4;
          opts.durability.data_dir = dir;
          opts.durability.snapshot_every = cadence;
          {
            auto svc = ClusterService::Create(g, w, opts).MoveValueOrDie();
            ApplyStorm(*svc, storm);
          }
          auto back = ClusterService::Recover(opts, &stats).MoveValueOrDie();
          PIGGY_CHECK(back->Validate().ok());
        }
        table.AddRow({service, std::to_string(ops_n),
                      std::to_string(cadence), std::to_string(stats.snapshot_id),
                      std::to_string(stats.snapshot_events),
                      std::to_string(stats.wal_records),
                      std::to_string(ReplayedOps(stats)),
                      Fmt(stats.wall_seconds * 1000.0)});
        std::filesystem::remove_all(dir);
      }
    }
  }
  std::filesystem::remove_all(root);

  table.Print();
  table.WriteCsv(csv_path);
  table.WriteJson(json_path);
  return 0;
}
