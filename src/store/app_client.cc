#include "store/app_client.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "util/logging.h"

namespace piggy {

namespace {

// True iff sorted `sub` is a subset of sorted `super`.
bool SortedSubset(std::span<const NodeId> sub, std::span<const NodeId> super) {
  if (sub.size() > super.size()) return false;
  auto it = super.begin();
  for (NodeId v : sub) {
    it = std::lower_bound(it, super.end(), v);
    if (it == super.end() || *it != v) return false;
    ++it;
  }
  return true;
}

// Inserts x into the ascending tail v[from..]; returns false if present.
bool InsertSorted(std::vector<NodeId>& v, size_t from, NodeId x) {
  auto it = std::lower_bound(v.begin() + static_cast<ptrdiff_t>(from), v.end(), x);
  if (it != v.end() && *it == x) return false;
  v.insert(it, x);
  return true;
}

// Erases x from the ascending tail v[from..]; returns false if absent.
bool EraseSorted(std::vector<NodeId>& v, size_t from, NodeId x) {
  auto it = std::lower_bound(v.begin() + static_cast<ptrdiff_t>(from), v.end(), x);
  if (it == v.end() || *it != x) return false;
  v.erase(it);
  return true;
}

size_t FlatBytes(const std::vector<NodeId>& list) {
  return list.capacity() * sizeof(NodeId);
}

}  // namespace

AppClient::AppClient(const Graph& graph, const Schedule& schedule,
                     const Partitioner* partitioner, std::vector<ViewStore>* servers,
                     size_t feed_size, GraphLayout layout)
    : partitioner_(partitioner),
      servers_(servers),
      feed_size_(feed_size),
      layout_(layout) {
  PIGGY_CHECK(partitioner_ != nullptr);
  PIGGY_CHECK(servers_ != nullptr);
  PIGGY_CHECK_EQ(servers_->size(), partitioner_->num_servers());

  const size_t n = graph.num_nodes();
  push_views_ = schedule.BuildPushSets(n);
  pull_views_ = schedule.BuildPullSets(n);
  interest_.resize(n);
  for (NodeId u = 0; u < n; ++u) {
    // Own view first in both lists (updates and queries always touch it).
    push_views_[u].insert(push_views_[u].begin(), u);
    pull_views_[u].insert(pull_views_[u].begin(), u);
    auto followees = graph.InNeighbors(u);
    interest_[u].reserve(followees.size() + 1);
    interest_[u].assign(followees.begin(), followees.end());
    auto it = std::lower_bound(interest_[u].begin(), interest_[u].end(), u);
    interest_[u].insert(it, u);
  }
  sources_.resize(n);
  readers_.resize(n);
  for (NodeId u = 0; u < n; ++u) {
    // Ascending u keeps every inverse list sorted.
    for (NodeId w : push_views_[u]) sources_[w].push_back(u);
    for (NodeId w : pull_views_[u]) readers_[w].push_back(u);
  }
  // Schedule-implied membership: view w can only ever contain events from
  // producers whose push set includes w. When that producer set is a subset
  // of interest[u] for every view u pulls, the query-side interest filter is
  // an identity — mark u filter-free and its queries skip the filter (and,
  // under the compressed layout, the per-query decode) entirely. Covers the
  // common non-hub pulls: own views and followee-owned views.
  filter_free_.resize(n);
  for (NodeId u = 0; u < n; ++u) {
    filter_free_[u] = ComputeFilterFree(u, interest_[u]) ? 1 : 0;
  }

  if (layout_ == GraphLayout::kCompressed) {
    interest_compressed_ = CompressedLists::FromLists(interest_);
    interest_ = {};  // keep only the compressed form resident
    interest_bytes_ = interest_compressed_.TotalBytes();
  } else {
    size_t bytes = interest_.size() * sizeof(std::vector<NodeId>);
    for (const std::vector<NodeId>& list : interest_) bytes += FlatBytes(list);
    interest_bytes_ = bytes;
  }
}

bool AppClient::ComputeFilterFree(NodeId u, std::span<const NodeId> interest) const {
  for (NodeId w : pull_views_[u]) {
    if (!SortedSubset(sources_[w], interest)) return false;
  }
  return true;
}

std::span<const NodeId> AppClient::Interest(NodeId u,
                                            std::vector<NodeId>* scratch) const {
  if (layout_ == GraphLayout::kCompressed) {
    interest_compressed_.DecodeInto(u, scratch);
    return *scratch;
  }
  return interest_[u];
}

void AppClient::SetInterest(NodeId u, NodeId producer, bool present) {
  if (layout_ == GraphLayout::kCompressed) {
    std::vector<NodeId> list;
    interest_compressed_.DecodeInto(u, &list);
    const bool changed = present ? InsertSorted(list, 0, producer)
                                 : EraseSorted(list, 0, producer);
    if (!changed) return;
    interest_compressed_.ReplaceList(u, list);
    interest_bytes_ = interest_compressed_.TotalBytes();
    return;
  }
  std::vector<NodeId>& list = interest_[u];
  interest_bytes_ -= FlatBytes(list);
  if (present) {
    InsertSorted(list, 0, producer);
  } else {
    EraseSorted(list, 0, producer);
  }
  interest_bytes_ += FlatBytes(list);
}

void AppClient::ApplyChurn(const Edge& edge, bool added, const ScheduleDelta& delta,
                           std::span<const EventTuple> log) {
  PIGGY_CHECK_LT(edge.src, num_users());
  PIGGY_CHECK_LT(edge.dst, num_users());
  SetInterest(edge.dst, edge.src, added);
  // Users whose filter-free flag may have moved: the follower (interest set)
  // and every reader of a view whose pull list or producer set changed.
  std::vector<NodeId> stale = {edge.dst};
  for (const ScheduleChange& change : delta.changes) {
    const NodeId u = change.edge.src;
    const NodeId v = change.edge.dst;
    if (change.kind == ScheduleChange::Kind::kPush) {
      // u's shares are written into v's view.
      ViewStore& server = (*servers_)[partitioner_->ServerOf(v)];
      if (change.added) {
        InsertSorted(push_views_[u], 1, v);
        if (InsertSorted(sources_[v], 0, u)) server.MergeIn(v, u, log);
      } else {
        EraseSorted(push_views_[u], 1, v);
        if (EraseSorted(sources_[v], 0, u)) {
          server.PurgeAndRefill(v, u, sources_[v], log);
        }
      }
      stale.insert(stale.end(), readers_[v].begin(), readers_[v].end());
    } else {
      // v's queries read u's view.
      if (change.added) {
        InsertSorted(pull_views_[v], 1, u);
        InsertSorted(readers_[u], 0, v);
      } else {
        EraseSorted(pull_views_[v], 1, u);
        EraseSorted(readers_[u], 0, v);
      }
      stale.push_back(v);
    }
  }
  std::sort(stale.begin(), stale.end());
  stale.erase(std::unique(stale.begin(), stale.end()), stale.end());
  std::vector<NodeId> scratch;
  for (NodeId u : stale) {
    filter_free_[u] = ComputeFilterFree(u, Interest(u, &scratch)) ? 1 : 0;
  }
}

std::vector<AppClient::ServerBatch> AppClient::GroupByServer(
    std::span<const NodeId> views) const {
  // Per-call scratch so concurrent requests never share grouping state.
  std::vector<std::pair<uint32_t, NodeId>> placed;
  placed.reserve(views.size());
  for (NodeId view : views) {
    placed.emplace_back(partitioner_->ServerOf(view), view);
  }
  std::stable_sort(placed.begin(), placed.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<ServerBatch> batches;
  for (size_t i = 0; i < placed.size();) {
    ServerBatch batch;
    batch.server = placed[i].first;
    while (i < placed.size() && placed[i].first == batch.server) {
      batch.views.push_back(placed[i].second);
      ++i;
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

void AppClient::ShareEvent(NodeId u, uint64_t event_id, uint64_t timestamp) {
  PIGGY_CHECK_LT(u, push_views_.size());
  share_requests_.fetch_add(1, std::memory_order_relaxed);
  EventTuple event{u, event_id, timestamp};
  for (const ServerBatch& batch : GroupByServer(push_views_[u])) {
    (*servers_)[batch.server].UpdateBatch(batch.views, event);
    update_messages_.fetch_add(1, std::memory_order_relaxed);
  }
}

std::vector<EventTuple> AppClient::QueryStream(NodeId u) {
  PIGGY_CHECK_LT(u, pull_views_.size());
  query_requests_.fetch_add(1, std::memory_order_relaxed);
  // Filter-free users (schedule-implied membership, see the constructor)
  // never materialize the interest span. Filtered users under the compressed
  // layout decode it into scratch — the trade the layout option makes: a
  // varint walk per filtered query for a fraction of the resident bytes.
  // Flat layout serves the stored list directly. The scratch is
  // thread_local, not per-call: a malloc per query would dominate the decode
  // itself at million-user scale, and each serving thread owning one buffer
  // keeps concurrent queries race-free (the span never escapes this call).
  const bool filtered = filter_free_[u] == 0;
  static thread_local std::vector<NodeId> scratch;
  std::span<const NodeId> interest;
  if (filtered) {
    if (layout_ == GraphLayout::kCompressed) {
      interest_compressed_.DecodeInto(u, &scratch);
      interest = scratch;
    } else {
      interest = interest_[u];
    }
  }
  std::vector<EventTuple> merged;
  for (const ServerBatch& batch : GroupByServer(pull_views_[u])) {
    ViewStore& server = (*servers_)[batch.server];
    std::vector<EventTuple> part =
        filtered ? server.QueryBatch(batch.views, interest, feed_size_)
                 : server.QueryBatch(batch.views, feed_size_);
    merged.insert(merged.end(), part.begin(), part.end());
    query_messages_.fetch_add(1, std::memory_order_relaxed);
  }
  return TopKNewest(std::move(merged), feed_size_);
}

}  // namespace piggy
