// Differential test for in-place serving-plane patching: Follow/Unfollow
// patch the live plane with the schedule delta of the Sec-3.3 repair instead
// of rebuilding it. After every churn op the patched plane must be
// bit-identical to a fresh Prototype::Create on the same graph and schedule
// with the whole event log replayed through RestoreEvents: every view on
// every server, every push and pull list (as sets), every interest set and
// filter-free flag, and every user's stream. Only the fleet's trim counters
// may differ. Bounded views (capacity 4, so trimming, merge-in and refill all
// fire) and unbounded views run under both interest layouts.
//
// The building blocks are pinned directly too: the maintainer's delta
// against a before/after diff of the schedule, the two view operations, and
// the compressed list re-encode. A threaded case (label `concurrent`, so it
// runs under TSan in CI) serves Share/Query from several threads while
// another thread follows and unfollows on the same FeedService.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/incremental.h"
#include "core/planner.h"
#include "core/schedule.h"
#include "gen/presets.h"
#include "graph/compressed_adjacency.h"
#include "graph/dynamic_graph.h"
#include "graph/graph_builder.h"
#include "store/feed_service.h"
#include "store/prototype.h"
#include "store/view_store.h"
#include "util/rng.h"
#include "workload/workload.h"

namespace piggy {
namespace {

std::vector<NodeId> Sorted(std::span<const NodeId> s) {
  std::vector<NodeId> v(s.begin(), s.end());
  std::sort(v.begin(), v.end());
  return v;
}

// A plane built from scratch around the service's current graph and
// schedule, fed the live plane's event log. The CSR snapshot dies before the
// plane is used, so a plane that still borrowed it would fail under ASan.
std::unique_ptr<Prototype> Rebuild(FeedService& service) {
  Prototype* live = service.ServingPlane().MoveValueOrDie();
  std::unique_ptr<Prototype> fresh;
  {
    Graph g = service.graph().Snapshot().MoveValueOrDie();
    fresh = Prototype::Create(g, service.schedule(), service.options().prototype)
                .MoveValueOrDie();
  }
  PIGGY_CHECK_OK(fresh->RestoreEvents(live->EventLog()));
  return fresh;
}

// Everything but the counters, compared user by user; reports the first
// difference.
::testing::AssertionResult SamePlane(Prototype& live, Prototype& fresh) {
  if (live.num_users() != fresh.num_users()) {
    return ::testing::AssertionFailure() << "user counts differ";
  }
  const size_t n = live.num_users();
  std::vector<NodeId> scratch_live;
  std::vector<NodeId> scratch_fresh;
  for (NodeId u = 0; u < n; ++u) {
    if (Sorted(live.client().PushViews(u)) != Sorted(fresh.client().PushViews(u))) {
      return ::testing::AssertionFailure() << "push list of " << u;
    }
    if (Sorted(live.client().PullViews(u)) != Sorted(fresh.client().PullViews(u))) {
      return ::testing::AssertionFailure() << "pull list of " << u;
    }
    const auto a = live.client().Interest(u, &scratch_live);
    const auto b = fresh.client().Interest(u, &scratch_fresh);
    if (!std::equal(a.begin(), a.end(), b.begin(), b.end())) {
      return ::testing::AssertionFailure() << "interest set of " << u;
    }
    if (live.client().QueryFilterFree(u) != fresh.client().QueryFilterFree(u)) {
      return ::testing::AssertionFailure() << "filter-free flag of " << u;
    }
  }
  for (size_t s = 0; s < live.servers().size(); ++s) {
    if (live.servers()[s].num_views() != fresh.servers()[s].num_views()) {
      return ::testing::AssertionFailure() << "view count on server " << s;
    }
    for (NodeId w = 0; w < n; ++w) {
      if (live.servers()[s].ReadView(w) != fresh.servers()[s].ReadView(w)) {
        return ::testing::AssertionFailure() << "view " << w << " on server " << s;
      }
    }
  }
  for (NodeId u = 0; u < n; ++u) {
    if (live.QueryStream(u) != fresh.QueryStream(u)) {
      return ::testing::AssertionFailure() << "stream of " << u;
    }
  }
  if (live.options().layout == GraphLayout::kCompressed &&
      live.client().InterestBytes() != fresh.client().InterestBytes()) {
    // The in-place re-encode must be byte-identical to a fresh encode.
    return ::testing::AssertionFailure() << "compressed interest bytes";
  }
  return ::testing::AssertionSuccess();
}

struct PatchCase {
  size_t view_capacity;
  GraphLayout layout;
  const char* planner;
};

std::string CaseName(const PatchCase& c) {
  return std::string(c.planner) + "/cap" + std::to_string(c.view_capacity) + "/" +
         GraphLayoutName(c.layout);
}

FeedServiceOptions PatchOptions(const PatchCase& c) {
  FeedServiceOptions options;
  options.planner = c.planner;
  options.prototype.num_servers = 8;
  options.prototype.view_capacity = c.view_capacity;
  options.prototype.layout = c.layout;
  options.workload = {.read_write_ratio = 3.0, .min_rate = 0.05};
  options.audit_every = 1;
  return options;
}

TEST(ServingPatchTest, PatchedPlaneMatchesFreshRebuildAfterEveryChurnOp) {
  const size_t kNodes = 160;
  const std::vector<PatchCase> cases = {
      {4, GraphLayout::kFlatCsr, "nosy"},
      {4, GraphLayout::kCompressed, "nosy"},
      {0, GraphLayout::kFlatCsr, "nosy"},
      {0, GraphLayout::kCompressed, "nosy"},
      {4, GraphLayout::kFlatCsr, "chitchat"},
  };
  for (const PatchCase& c : cases) {
    SCOPED_TRACE(CaseName(c));
    Graph g = MakeFlickrLike(kNodes, 17).ValueOrDie();
    auto service = FeedService::Create(g, PatchOptions(c)).MoveValueOrDie();
    Rng rng(2024);
    size_t churn = 0;
    size_t shares = 0;
    for (int op = 0; op < 1500; ++op) {
      const double dice = rng.UniformDouble();
      const NodeId u = static_cast<NodeId>(rng.Uniform(kNodes));
      if (dice < 0.45) {
        ASSERT_TRUE(service->Share(u).ok());
        ++shares;
        continue;
      }
      if (dice < 0.75) {
        ASSERT_TRUE(service->QueryStream(u).ok()) << "audit failed at op " << op;
        continue;
      }
      if (dice < 0.87) {
        const NodeId p = static_cast<NodeId>(rng.Uniform(kNodes));
        if (p == u || service->graph().HasEdge(p, u)) continue;
        ASSERT_TRUE(service->Follow(u, p).ok());
      } else {
        // Unfollow an existing followee, so removals (and the repairs of the
        // hub covers they supported) are as common as additions.
        const auto followees = service->graph().InNeighbors(u);
        if (followees.empty()) continue;
        const NodeId p = followees[rng.Uniform(followees.size())];
        ASSERT_TRUE(service->Unfollow(u, p).ok());
      }
      ++churn;
      // The reference replays the live plane's own log, so pin that first.
      ASSERT_EQ(service->ServingPlane().MoveValueOrDie()->EventLog().size(), shares);
      auto fresh = Rebuild(*service);
      ASSERT_TRUE(SamePlane(*service->ServingPlane().MoveValueOrDie(), *fresh))
          << "after churn op " << churn << " (op " << op << ")";
    }
    ASSERT_TRUE(service->Validate().ok());
    const FeedService::Metrics m = service->GetMetrics();
    EXPECT_GT(churn, 200u);
    EXPECT_EQ(m.churn_ops, churn);
    EXPECT_EQ(m.serving_rebuilds, 0u);  // churn never rebuilds
    EXPECT_GT(m.repairs, 0u) << "no removal re-served a hub cover";
    if (c.view_capacity > 0) {
      EXPECT_GT(service->TrimmedEvents().MoveValueOrDie(), 0u);
    }
  }
}

// A hub's reader stays filter-free only while every producer in the hub's
// view is one it follows. Churn that puts a foreign producer into the hub's
// view must clear the reader's flag, or its unfiltered queries would leak
// that producer; undoing the churn must set it again.
TEST(ServingPatchTest, HubReaderFilterFlagTracksHubSources) {
  // 1 -> 2, 1 -> 3, 2 -> 3: user 3 reads 1's events through hub 2's view.
  Graph g = BuildGraph(5, {{1, 2}, {1, 3}, {2, 3}}).MoveValueOrDie();
  Schedule schedule;
  schedule.AddPush(1, 2);
  schedule.AddPull(2, 3);
  schedule.SetHubCover(1, 3, 2);
  Workload w = UniformWorkload(5, 1.0, 1.0);  // rp <= rc: new edges are pushed
  DynamicGraph graph(g);
  IncrementalMaintainer maintainer(&graph, &schedule, &w);
  PrototypeOptions options;
  options.num_servers = 2;
  options.view_capacity = 0;
  auto plane = Prototype::Create(g, schedule, options).MoveValueOrDie();
  ASSERT_TRUE(plane->client().QueryFilterFree(3));
  plane->ShareEvent(1);

  // 2 starts following 4: the push 4 -> 2 writes 4's events into hub 2's view.
  ScheduleDelta delta;
  ASSERT_TRUE(maintainer.AddEdge(4, 2, &delta).ok());
  ASSERT_EQ(delta.changes.size(), 1u);
  plane->ApplyChurn(Edge{4, 2}, /*added=*/true, delta);
  EXPECT_FALSE(plane->client().QueryFilterFree(3));
  plane->ShareEvent(4);
  const std::vector<EventTuple> feed = plane->QueryStream(3);
  ASSERT_EQ(feed.size(), 1u);
  EXPECT_EQ(feed[0].producer, 1u);
  EXPECT_TRUE(plane->AuditStream(3, feed).ok());

  // 2 unfollows 4 again: the hub view holds only 3's followees once more.
  delta = {};
  ASSERT_TRUE(maintainer.RemoveEdge(4, 2, &delta).ok());
  plane->ApplyChurn(Edge{4, 2}, /*added=*/false, delta);
  EXPECT_TRUE(plane->client().QueryFilterFree(3));
  Graph now = graph.Snapshot().MoveValueOrDie();
  auto fresh = Prototype::Create(now, schedule, options).MoveValueOrDie();
  ASSERT_TRUE(fresh->RestoreEvents(plane->EventLog()).ok());
  EXPECT_TRUE(SamePlane(*plane, *fresh));
}

// The audit FeedService runs takes followees from its own graph, not from
// the plane's interest sets, so a plane whose patch missed a churn op fails
// it. Here the plane stands still while the followee list moves, as if an
// Unfollow(3, 2) or a Follow(3, 4) had not reached it: the interest-set
// audit agrees with the stale plane, the followee audit does not.
TEST(ServingPatchTest, FolloweeAuditCatchesAPlaneThatMissedChurn) {
  Graph g = BuildGraph(5, {{1, 3}, {2, 3}}).MoveValueOrDie();
  Schedule schedule;
  schedule.AddPush(1, 3);
  schedule.AddPull(2, 3);
  PrototypeOptions options;
  options.num_servers = 2;
  options.view_capacity = 0;
  auto plane = Prototype::Create(g, schedule, options).MoveValueOrDie();
  plane->ShareEvent(1);
  plane->ShareEvent(2);
  plane->ShareEvent(4);

  const Prototype::AuditToken token = plane->BeginAudit();
  const std::vector<EventTuple> feed = plane->QueryStream(3);
  ASSERT_EQ(feed.size(), 2u);
  EXPECT_TRUE(plane->AuditStream(3, feed, token).ok());
  const std::vector<NodeId> current = {1, 2};
  EXPECT_TRUE(plane->AuditStream(3, feed, token, current).ok());

  const std::vector<NodeId> after_unfollow = {1};
  const Status leak = plane->AuditStream(3, feed, token, after_unfollow);
  EXPECT_FALSE(leak.ok());
  EXPECT_NE(leak.ToString().find("leaks producer 2"), std::string::npos)
      << leak.ToString();

  const std::vector<NodeId> after_follow = {1, 2, 4};
  const Status missing = plane->AuditStream(3, feed, token, after_follow);
  EXPECT_FALSE(missing.ok());
  EXPECT_NE(missing.ToString().find("oracle 3"), std::string::npos)
      << missing.ToString();
}

// Churn that races a background plan is applied to the pre-built plane at
// publish time through the same delta, after the raced shares.
TEST(ServingPatchTest, BackgroundReplanPublishesPatchedPlane) {
  for (const PatchCase& c : {PatchCase{4, GraphLayout::kFlatCsr, "nosy"},
                             PatchCase{0, GraphLayout::kCompressed, "nosy"}}) {
    SCOPED_TRACE(CaseName(c));
    const size_t kNodes = 160;
    Graph g = MakeFlickrLike(kNodes, 23).ValueOrDie();
    FeedServiceOptions options = PatchOptions(c);
    // Hold the background planner at its first progress report until the
    // test thread has raced it with shares and churn.
    struct Gate {
      std::mutex mu;
      std::condition_variable cv;
      bool armed = false;
      bool started = false;
      bool released = false;
    };
    auto gate = std::make_shared<Gate>();
    options.plan_context.progress = [gate](const PlanProgress&) {
      std::unique_lock<std::mutex> lock(gate->mu);
      if (!gate->armed || gate->started) return;
      gate->started = true;
      gate->cv.notify_all();
      gate->cv.wait(lock, [&gate] { return gate->released; });
    };
    auto service = FeedService::Create(g, options).MoveValueOrDie();
    Rng rng(77);
    for (int i = 0; i < 300; ++i) {
      ASSERT_TRUE(service->Share(static_cast<NodeId>(rng.Uniform(kNodes))).ok());
    }
    {
      std::lock_guard<std::mutex> lock(gate->mu);
      gate->armed = true;
    }
    ASSERT_TRUE(service->StartBackgroundReplan().ok());
    {
      std::unique_lock<std::mutex> lock(gate->mu);
      ASSERT_TRUE(gate->cv.wait_for(lock, std::chrono::seconds(60),
                                    [&gate] { return gate->started; }))
          << "background planner never reported progress";
    }
    size_t raced = 0;
    size_t raced_shares = 0;
    while (raced < 40) {
      const NodeId u = static_cast<NodeId>(rng.Uniform(kNodes));
      ASSERT_TRUE(service->Share(u).ok());
      ++raced_shares;
      const NodeId p = static_cast<NodeId>(rng.Uniform(kNodes));
      if (p == u) continue;
      if (service->graph().HasEdge(p, u)) {
        ASSERT_TRUE(service->Unfollow(u, p).ok());
      } else {
        ASSERT_TRUE(service->Follow(u, p).ok());
      }
      ++raced;
    }
    {
      std::lock_guard<std::mutex> lock(gate->mu);
      gate->released = true;
    }
    gate->cv.notify_all();
    ASSERT_TRUE(service->WaitForBackgroundReplan().ok());
    const FeedService::Metrics m = service->GetMetrics();
    ASSERT_EQ(m.background_replans, 1u);
    EXPECT_EQ(m.serving_rebuilds, 1u);  // the swap, and nothing lazy after it
    ASSERT_TRUE(service->Validate().ok());
    // Every share made while the plan flew reached the published plane.
    ASSERT_EQ(service->ServingPlane().MoveValueOrDie()->EventLog().size(),
              300u + raced_shares);
    auto fresh = Rebuild(*service);
    ASSERT_TRUE(SamePlane(*service->ServingPlane().MoveValueOrDie(), *fresh));
    EXPECT_EQ(service->GetMetrics().serving_rebuilds, 1u);
    for (NodeId u = 0; u < kNodes; ++u) {
      ASSERT_TRUE(service->QueryStream(u).ok()) << "audit of " << u;
    }
  }
}

// Applying a maintainer's reported delta to the schedule's materialized
// push/pull sets must reproduce the sets it left behind.
TEST(ServingPatchTest, MaintainerDeltaMatchesScheduleDiff) {
  const size_t kNodes = 150;
  Graph g = MakeFlickrLike(kNodes, 5).ValueOrDie();
  Workload w = GenerateWorkload(g, {.read_write_ratio = 3.0, .min_rate = 0.05})
                   .ValueOrDie();
  auto planner = MakePlanner("nosy").MoveValueOrDie();
  Schedule schedule = planner->Plan(g, w, PlanContext{}).MoveValueOrDie().schedule;
  DynamicGraph graph(g);
  IncrementalMaintainer maintainer(&graph, &schedule, &w);
  auto push = schedule.BuildPushSets(kNodes);
  auto pull = schedule.BuildPullSets(kNodes);
  auto apply = [](std::vector<std::vector<NodeId>>& sets, NodeId owner, NodeId x,
                  bool added) {
    auto& list = sets[owner];
    auto it = std::lower_bound(list.begin(), list.end(), x);
    if (added) {
      ASSERT_TRUE(it == list.end() || *it != x) << "added entry already present";
      list.insert(it, x);
    } else {
      ASSERT_TRUE(it != list.end() && *it == x) << "removed entry was absent";
      list.erase(it);
    }
  };
  Rng rng(9);
  size_t removals = 0;
  for (int op = 0; op < 400; ++op) {
    const NodeId v = static_cast<NodeId>(rng.Uniform(kNodes));
    ScheduleDelta delta;
    if (op % 2 == 0) {
      const NodeId u = static_cast<NodeId>(rng.Uniform(kNodes));
      if (u == v) continue;
      ASSERT_TRUE(maintainer.AddEdge(u, v, &delta).ok());
    } else {
      const auto in = graph.InNeighbors(v);
      if (in.empty()) continue;
      ASSERT_TRUE(maintainer.RemoveEdge(in[rng.Uniform(in.size())], v, &delta).ok());
    }
    for (const ScheduleChange& ch : delta.changes) {
      removals += ch.added ? 0 : 1;
      if (ch.kind == ScheduleChange::Kind::kPush) {
        apply(push, ch.edge.src, ch.edge.dst, ch.added);
      } else {
        apply(pull, ch.edge.dst, ch.edge.src, ch.added);
      }
    }
    ASSERT_EQ(push, schedule.BuildPushSets(kNodes)) << "op " << op;
    ASSERT_EQ(pull, schedule.BuildPullSets(kNodes)) << "op " << op;
  }
  EXPECT_GT(removals, 0u);
}

std::vector<EventTuple> MakeLog(const std::vector<NodeId>& producers) {
  std::vector<EventTuple> log;
  for (size_t i = 0; i < producers.size(); ++i) {
    log.push_back({producers[i], i + 1, i + 1});
  }
  return log;
}

// The newest `cap` events of `log` whose producer is in `sources`.
std::vector<EventTuple> Expected(const std::vector<EventTuple>& log,
                                 const std::vector<NodeId>& sources, size_t cap) {
  std::vector<EventTuple> out;
  for (const EventTuple& e : log) {
    if (std::find(sources.begin(), sources.end(), e.producer) != sources.end()) {
      out.push_back(e);
    }
  }
  if (cap > 0 && out.size() > cap) out.erase(out.begin(), out.end() - cap);
  return out;
}

TEST(ServingPatchTest, MergeInAndPurgeAndRefillKeepTheNewestMatchingEvents) {
  // Producers 1 and 2 push to view 7 from the start; 3 joins, then 1 leaves.
  const std::vector<EventTuple> log =
      MakeLog({1, 3, 2, 3, 1, 3, 3, 2, 1, 3, 2, 2, 3, 1});
  for (size_t cap : {0u, 1u, 3u, 4u, 100u}) {
    SCOPED_TRACE(cap);
    ViewStore store(0, cap);
    for (const EventTuple& e : log) {
      if (e.producer == 1 || e.producer == 2) store.UpdateBatch(std::vector<NodeId>{7}, e);
    }
    ASSERT_EQ(store.ReadView(7), Expected(log, {1, 2}, cap));
    store.MergeIn(7, 3, log);
    EXPECT_EQ(store.ReadView(7), Expected(log, {1, 2, 3}, cap));
    store.PurgeAndRefill(7, 1, std::vector<NodeId>{2, 3}, log);
    EXPECT_EQ(store.ReadView(7), Expected(log, {2, 3}, cap));
    store.PurgeAndRefill(7, 2, std::vector<NodeId>{3}, log);
    EXPECT_EQ(store.ReadView(7), Expected(log, {3}, cap));
    if (cap > 0 && cap < 6) {
      // Producer 3 alone has 6 events: the patches left some out.
      EXPECT_GT(store.metrics().trimmed_events, 0u);
    }
    if (cap == 0 || cap == 100) {
      EXPECT_EQ(store.metrics().trimmed_events, 0u);
    }
    // Purging the last producer drops the view entirely, as a rebuild that
    // never delivered to it would.
    store.PurgeAndRefill(7, 3, std::vector<NodeId>{}, log);
    EXPECT_TRUE(store.ReadView(7).empty());
    EXPECT_EQ(store.num_views(), 0u);
    // Merging a producer with no events creates nothing.
    store.MergeIn(8, 42, log);
    EXPECT_EQ(store.num_views(), 0u);
  }
}

TEST(ServingPatchTest, CompressedReplaceListMatchesFreshEncode) {
  Rng rng(31);
  std::vector<std::vector<NodeId>> lists(12);
  auto random_list = [&rng](size_t size) {
    std::vector<NodeId> list;
    NodeId v = 0;
    for (size_t k = 0; k < size; ++k) {
      v += 1 + static_cast<NodeId>(rng.Uniform(k % 7 == 0 ? 5000 : 40));
      list.push_back(v);
    }
    return list;
  };
  for (auto& list : lists) list = random_list(rng.Uniform(200));
  CompressedLists compressed = CompressedLists::FromLists(lists);
  for (int round = 0; round < 60; ++round) {
    const size_t i = rng.Uniform(lists.size());
    // Sizes straddle the 64-entry skip blocks, including empty lists.
    lists[i] = random_list(round % 5 == 0 ? 0 : rng.Uniform(300));
    compressed.ReplaceList(i, lists[i]);
    const CompressedLists fresh = CompressedLists::FromLists(lists);
    ASSERT_EQ(compressed.TotalBytes(), fresh.TotalBytes()) << "round " << round;
    ASSERT_EQ(compressed.TotalEntries(), fresh.TotalEntries());
    std::vector<NodeId> decoded;
    for (size_t j = 0; j < lists.size(); ++j) {
      compressed.DecodeInto(j, &decoded);
      ASSERT_EQ(decoded, lists[j]) << "list " << j << " round " << round;
      for (NodeId v : lists[j]) ASSERT_TRUE(compressed.Contains(j, v));
      if (!lists[j].empty()) {
        ASSERT_FALSE(compressed.Contains(j, lists[j].back() + 1));
      }
    }
  }
}

// Serving threads Share/Query while another thread follows and unfollows on
// the same FeedService. Under TSan this checks the patch stays inside the
// exclusive section; afterwards the plane must still equal a fresh rebuild.
TEST(ServingPatchTest, ConcurrentServingWithChurnThread) {
  const size_t kNodes = 200;
  Graph g = MakeFlickrLike(kNodes, 41).ValueOrDie();
  for (GraphLayout layout : {GraphLayout::kFlatCsr, GraphLayout::kCompressed}) {
    SCOPED_TRACE(GraphLayoutName(layout));
    auto service =
        FeedService::Create(g, PatchOptions({8, layout, "nosy"})).MoveValueOrDie();
    std::atomic<bool> stop{false};
    std::mutex failure_mu;
    std::string failure;
    auto record = [&](const std::string& what, const Status& st) {
      std::lock_guard<std::mutex> lock(failure_mu);
      if (failure.empty()) failure = what + ": " + st.ToString();
    };
    std::vector<std::thread> servers;
    for (int t = 0; t < 3; ++t) {
      servers.emplace_back([&, t] {
        Rng rng(100 + t);
        while (!stop.load(std::memory_order_acquire)) {
          const NodeId u = static_cast<NodeId>(rng.Uniform(kNodes));
          if (rng.UniformDouble() < 0.4) {
            if (Status st = service->Share(u); !st.ok()) record("Share", st);
          } else if (auto r = service->QueryStream(u); !r.ok()) {
            record("QueryStream", r.status());
          }
        }
      });
    }
    std::thread churner([&] {
      Rng rng(7);
      for (int op = 0; op < 300; ++op) {
        const NodeId u = static_cast<NodeId>(rng.Uniform(kNodes));
        const NodeId p = static_cast<NodeId>(rng.Uniform(kNodes));
        if (u == p) continue;
        // HasEdge races nothing here: this thread is the only writer of the
        // graph, and Follow/Unfollow are no-ops on a stale answer.
        Status st = service->graph().HasEdge(p, u) ? service->Unfollow(u, p)
                                                   : service->Follow(u, p);
        if (!st.ok()) record("churn", st);
      }
      stop.store(true, std::memory_order_release);
    });
    churner.join();
    for (std::thread& t : servers) t.join();
    ASSERT_TRUE(failure.empty()) << failure;
    ASSERT_TRUE(service->Validate().ok());
    EXPECT_EQ(service->GetMetrics().serving_rebuilds, 0u);
    auto fresh = Rebuild(*service);
    ASSERT_TRUE(SamePlane(*service->ServingPlane().MoveValueOrDie(), *fresh));
  }
}

}  // namespace
}  // namespace piggy
