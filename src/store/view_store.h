// One data-store server holding materialized per-user views.
//
// Mirrors the paper's prototype (Sec. 4.3): memcached plus a thin server-side
// layer that aggregates and filters tuples on queries and trims views on
// insert. A view is a list of (producer, event id, timestamp) tuples — the
// event-stream *index*; rendering (texts, pictures) is out of scope exactly
// as in the paper.
//
// Thread safety: each server guards its views and counters with one internal
// mutex, so concurrent UpdateBatch / QueryBatch calls from many client
// threads are safe and contention is per-server (the fleet is the stripe
// set). Events may arrive slightly out of timestamp order under concurrency;
// UpdateBatch inserts in sorted position (near the tail in practice).

#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "util/u64_containers.h"

namespace piggy {

/// \brief The 24-byte event tuple of the paper's prototype.
struct EventTuple {
  NodeId producer = 0;
  uint64_t event_id = 0;
  uint64_t timestamp = 0;

  bool operator==(const EventTuple&) const = default;
};

/// Orders events newest-first (timestamp desc, then event id desc).
inline bool NewerThan(const EventTuple& a, const EventTuple& b) {
  if (a.timestamp != b.timestamp) return a.timestamp > b.timestamp;
  return a.event_id > b.event_id;
}

/// \brief Per-server counters (message = one batched client request).
struct ServerMetrics {
  uint64_t update_messages = 0;  ///< batched update requests received
  uint64_t query_messages = 0;   ///< batched query requests received
  uint64_t view_writes = 0;      ///< individual view insertions
  uint64_t view_reads = 0;       ///< individual views scanned by queries
  uint64_t trimmed_events = 0;   ///< events dropped by capacity trimming
};

/// \brief In-memory view server.
class ViewStore {
 public:
  /// `view_capacity` caps events retained per view (0 = unbounded).
  explicit ViewStore(uint32_t server_id, size_t view_capacity = 128)
      : server_id_(server_id),
        view_capacity_(view_capacity),
        mu_(std::make_unique<std::mutex>()) {}

  uint32_t server_id() const { return server_id_; }

  /// Applies one batched update message: inserts `event` into every view in
  /// `views` (all hosted here). Events usually arrive in nondecreasing
  /// timestamp order; concurrent clients may invert neighbours, so the
  /// insert walks back from the tail to the sorted position.
  void UpdateBatch(std::span<const NodeId> views, const EventTuple& event);

  /// Applies one batched query message: returns the `k` newest events across
  /// `views` whose producer appears in the sorted `interest` span. The
  /// interest filter is what keeps a pull from a hub's view from leaking
  /// events of producers the querying user does not follow.
  std::vector<EventTuple> QueryBatch(std::span<const NodeId> views,
                                     std::span<const NodeId> interest, size_t k);

  /// Unfiltered batched query: the `k` newest events across `views` with no
  /// interest membership test. Only correct when the caller proved every
  /// producer that can appear in these views is interesting (see AppClient's
  /// schedule-implied membership precompute); output is then bit-identical to
  /// the filtered overload without touching the interest set at all.
  std::vector<EventTuple> QueryBatch(std::span<const NodeId> views, size_t k);

  /// Churn patch for a push x -> `owner` that just entered the schedule:
  /// merges x's newest `view_capacity` events (all of them when unbounded),
  /// found by walking `log` backwards, into the view and trims it. `log` is
  /// every shared event in share order, and x must not already push to
  /// `owner`. Afterwards the view holds the newest `view_capacity` events of
  /// `log` whose producer pushes to `owner` — what replaying `log` into a
  /// fresh fleet would store. Events the capacity leaves out count as
  /// trimmed (at least one whenever any is left out).
  void MergeIn(NodeId owner, NodeId producer, std::span<const EventTuple> log);

  /// Churn patch for a push x -> `owner` that just left the schedule: drops
  /// x's events from the view and, if the view was full, refills it with the
  /// newest older events of `log` whose producer is in the sorted
  /// `sources` (the producers still pushing to `owner`). Same end state as
  /// MergeIn's: the newest `view_capacity` matching events of `log`.
  void PurgeAndRefill(NodeId owner, NodeId producer, std::span<const NodeId> sources,
                      std::span<const EventTuple> log);

  /// Direct read of a full view (tests / audits). Empty if absent.
  std::vector<EventTuple> ReadView(NodeId owner) const;

  size_t num_views() const {
    std::lock_guard<std::mutex> lock(*mu_);
    return views_.size();
  }
  /// Snapshot of the counters (coherent: taken under the server mutex).
  ServerMetrics metrics() const {
    std::lock_guard<std::mutex> lock(*mu_);
    return metrics_;
  }
  void ResetMetrics() {
    std::lock_guard<std::mutex> lock(*mu_);
    metrics_ = ServerMetrics{};
  }

 private:
  uint32_t server_id_;
  size_t view_capacity_;
  // One mutex per server: the fleet is the concurrency stripe set. Boxed so
  // ViewStore stays movable (the fleet lives in a std::vector).
  std::unique_ptr<std::mutex> mu_;
  // Views keyed by owner id; events stored oldest-first (append order).
  U64Map<std::vector<EventTuple>> views_;
  ServerMetrics metrics_;
};

/// Merges candidate lists and keeps the `k` newest (helper shared with the
/// client-side merge).
std::vector<EventTuple> TopKNewest(std::vector<EventTuple> events, size_t k);

}  // namespace piggy
