// Application-logic client (Algorithm 3 of the paper).
//
// Translates user requests into batched data-store messages:
//
//   share(u, e):  insert e into u's own view and every view in u's push set
//                 h[u]; one update message per distinct server.
//   query(u):     query u's own view and every view in u's pull set l[u];
//                 one query message per distinct server; merge the replies
//                 into the 10 latest events (the generic `filter`).
//
// Push and pull sets come from the request schedule; the client logic is
// schedule-agnostic exactly as the paper stresses.
//
// Churn is applied in place (ApplyChurn): one Follow/Unfollow edits the
// interest set of the follower, the view lists named by the schedule delta,
// the inverse indexes, and the filter-free flags of the users whose pulled
// views changed — never the whole client.
//
// Thread safety: request grouping uses per-call scratch and the counters are
// relaxed atomics — ShareEvent / QueryStream may be called from any number
// of threads concurrently. The view lists and interest sets change only in
// ApplyChurn, which must not overlap any other call (FeedService runs it
// under its exclusive lock).

#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "core/incremental.h"
#include "core/schedule.h"
#include "graph/compressed_adjacency.h"
#include "graph/graph.h"
#include "store/partitioner.h"
#include "store/view_store.h"

namespace piggy {

/// \brief Client-side counters; messages are the throughput currency.
struct ClientMetrics {
  uint64_t share_requests = 0;
  uint64_t query_requests = 0;
  uint64_t update_messages = 0;
  uint64_t query_messages = 0;

  uint64_t requests() const { return share_requests + query_requests; }
  double MessagesPerRequest() const {
    uint64_t r = requests();
    return r ? static_cast<double>(update_messages + query_messages) /
                   static_cast<double>(r)
             : 0.0;
  }
};

/// \brief One application-logic server acting as data-store client.
class AppClient {
 public:
  /// \param graph       social graph (read during construction only);
  ///                    provides the interest sets
  /// \param schedule    request schedule (borrowed only during construction)
  /// \param partitioner view placement (borrowed)
  /// \param servers     data-store fleet (borrowed, mutated by requests)
  /// \param feed_size   events per assembled stream (paper: 10)
  /// \param layout      interest-set storage layout (flat CSR or compressed)
  AppClient(const Graph& graph, const Schedule& schedule,
            const Partitioner* partitioner, std::vector<ViewStore>* servers,
            size_t feed_size = 10, GraphLayout layout = GraphLayout::kFlatCsr);

  /// Shares a new event by user u (Algorithm 3, update path).
  void ShareEvent(NodeId u, uint64_t event_id, uint64_t timestamp);

  /// Assembles u's event stream (Algorithm 3, query path).
  std::vector<EventTuple> QueryStream(NodeId u);

  /// Patches the client and the fleet's views for one churn op: graph edge
  /// `edge` (producer -> follower) was added or removed, and the schedule
  /// changed by `delta`. `log` is every shared event in share order; views
  /// gaining or losing a producer are merged from / refilled out of it.
  /// Afterwards every view list, interest set, view and filter-free flag is
  /// what a client built from the new graph and schedule, fed `log`, holds.
  /// Must not overlap any other call on this client.
  void ApplyChurn(const Edge& edge, bool added, const ScheduleDelta& delta,
                  std::span<const EventTuple> log);

  /// u's interest set ({u} ∪ followees, sorted). Under the compressed layout
  /// it is decoded into *scratch and the span points there.
  std::span<const NodeId> Interest(NodeId u, std::vector<NodeId>* scratch) const;

  /// Users this client serves.
  size_t num_users() const { return push_views_.size(); }

  /// Snapshot of the counters (relaxed loads; exact once writers quiesce).
  ClientMetrics metrics() const {
    ClientMetrics m;
    m.share_requests = share_requests_.load(std::memory_order_relaxed);
    m.query_requests = query_requests_.load(std::memory_order_relaxed);
    m.update_messages = update_messages_.load(std::memory_order_relaxed);
    m.query_messages = query_messages_.load(std::memory_order_relaxed);
    return m;
  }
  void ResetMetrics() {
    share_requests_.store(0, std::memory_order_relaxed);
    query_requests_.store(0, std::memory_order_relaxed);
    update_messages_.store(0, std::memory_order_relaxed);
    query_messages_.store(0, std::memory_order_relaxed);
  }

  /// The views written on u's shares (own view first).
  std::span<const NodeId> PushViews(NodeId u) const { return push_views_[u]; }
  /// The views read on u's queries (own view first).
  std::span<const NodeId> PullViews(NodeId u) const { return pull_views_[u]; }

  /// True when u's queries skip the interest filter entirely: the schedule
  /// guarantees every producer that can land in u's pulled views is already
  /// in u's interest set (computed at construction, kept by ApplyChurn).
  bool QueryFilterFree(NodeId u) const { return filter_free_[u] != 0; }

  /// The interest-set storage layout this client was built with.
  GraphLayout layout() const { return layout_; }
  /// Resident bytes of the interest sets under the active layout (payload
  /// plus per-list bookkeeping) — the memory the layout option trades against
  /// query-path decode work.
  size_t InterestBytes() const { return interest_bytes_; }

 private:
  const Partitioner* partitioner_;
  std::vector<ViewStore>* servers_;
  size_t feed_size_;

  // Materialized per-user view lists: h[u] / l[u] plus the own view (own view
  // first, the schedule's entries after it in ascending order).
  std::vector<std::vector<NodeId>> push_views_;
  std::vector<std::vector<NodeId>> pull_views_;
  // The inverses: sources_[w] = sorted {x : w in push_views_[x]} (the
  // producers whose events view w stores) and readers_[w] = sorted
  // {u : w in pull_views_[u]} (the users whose queries read view w).
  std::vector<std::vector<NodeId>> sources_;
  std::vector<std::vector<NodeId>> readers_;
  // interest[u] = sorted {u} ∪ followees(u); the query-side filter. Stored
  // flat (interest_) or delta-varint compressed (interest_compressed_,
  // decoded into per-call scratch on queries) per layout_.
  GraphLayout layout_;
  std::vector<std::vector<NodeId>> interest_;
  CompressedLists interest_compressed_;
  size_t interest_bytes_ = 0;
  // filter_free_[u] != 0 when every producer reachable through u's pull set
  // is schedule-guaranteed to be in interest[u], making the query-side
  // filter an identity — those queries never touch the interest set (and
  // under the compressed layout never pay the decode). One byte per user.
  std::vector<uint8_t> filter_free_;

  std::atomic<uint64_t> share_requests_{0};
  std::atomic<uint64_t> query_requests_{0};
  std::atomic<uint64_t> update_messages_{0};
  std::atomic<uint64_t> query_messages_{0};

  // (server, views...) runs for one request, built in per-call scratch.
  struct ServerBatch {
    uint32_t server;
    std::vector<NodeId> views;
  };
  std::vector<ServerBatch> GroupByServer(std::span<const NodeId> views) const;

  /// Whether every view u pulls holds only producers in `interest` (u's).
  bool ComputeFilterFree(NodeId u, std::span<const NodeId> interest) const;
  /// Adds (present) or removes `producer` in u's interest set, re-encoding
  /// only that list under the compressed layout (whose splice still costs
  /// O(total interest bytes + users); see CompressedLists::ReplaceList).
  void SetInterest(NodeId u, NodeId producer, bool present);
};

}  // namespace piggy
