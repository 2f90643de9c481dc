// Incremental schedule maintenance under graph churn (paper Sec. 3.3).
//
// The optimizers treat the graph as static; between re-optimizations the
// schedule is kept valid with two local rules:
//
//  * edge added    — serve it directly, choosing the cheaper of push and pull
//                    (exactly the hybrid policy for that edge);
//  * edge removed  — if the removed edge was a push x -> w supporting hub
//                    covers (x -> y via w), or a pull w -> y supporting
//                    covers (x -> y via w), every dependent covered edge is
//                    re-served directly. The removed edge's own entries are
//                    dropped.
//
// Over time churn degrades schedule quality (never validity); Figure 5 shows
// re-optimization is only needed after very large batches. The maintainer
// keeps reverse indexes from supporting push/pull edges to their dependent
// covers so removals cost O(dependents).
//
// Every mutating call can report the push/pull entries it actually changed
// (a ScheduleDelta), so a serving plane materialized from the schedule can be
// patched in place instead of rebuilt.

#pragma once

#include <cstdint>
#include <vector>

#include "core/schedule.h"
#include "graph/dynamic_graph.h"
#include "util/status.h"
#include "util/u64_containers.h"
#include "workload/workload.h"

namespace piggy {

/// \brief One push (H) or pull (L) entry a maintainer call changed.
struct ScheduleChange {
  enum class Kind : uint8_t { kPush, kPull };
  Kind kind = Kind::kPush;
  bool added = false;  ///< true: entered the schedule; false: left it
  Edge edge{};         ///< the entry u -> v
};

/// \brief The push/pull entries one maintainer call added or removed, in the
/// order it changed them. Hub-cover bookkeeping is not reported: only H and L
/// shape what a serving plane materializes.
struct ScheduleDelta {
  std::vector<ScheduleChange> changes;
};

/// \brief Keeps a schedule valid while its graph evolves.
///
/// The maintainer borrows the graph, schedule and workload; they must outlive
/// it. The workload must cover every node id ever used (rates are looked up,
/// never recomputed — matching the paper's fixed-workload evaluation).
class IncrementalMaintainer {
 public:
  IncrementalMaintainer(DynamicGraph* graph, Schedule* schedule,
                        const Workload* workload);

  /// Adds edge u -> v to the graph and serves it directly (cheaper side).
  /// No-op (OK) if the edge already exists. Every call below appends the
  /// push/pull entries it changed to `delta` when one is given.
  Status AddEdge(NodeId u, NodeId v, ScheduleDelta* delta = nullptr);

  /// Removes edge u -> v, repairing any hub covers that depended on it.
  Status RemoveEdge(NodeId u, NodeId v, ScheduleDelta* delta = nullptr);

  /// Re-applies the Sec-3.3 add rule to an edge u -> v that is already in
  /// the graph but may be unserved by the (freshly swapped-in) schedule.
  /// Used when churn raced a background plan: the plan was computed against
  /// a snapshot without this edge, so it is served directly here.
  void RepairEdgeAdded(NodeId u, NodeId v, ScheduleDelta* delta = nullptr);

  /// Re-applies the Sec-3.3 remove rule for an edge u -> v already gone
  /// from the graph: drops its cover entry and any push/pull support it gave
  /// other covers, re-serving dependents directly. Used when churn raced a
  /// background plan computed against a snapshot that still had the edge.
  void RepairEdgeRemoved(NodeId u, NodeId v, ScheduleDelta* delta = nullptr);

  /// Number of covered edges re-served directly due to removals so far.
  size_t repairs() const { return repairs_; }

  /// Rebuilds the reverse support indexes from the schedule (call after the
  /// schedule was re-optimized wholesale).
  void RebuildIndexes();

 private:
  void ServeDirect(NodeId u, NodeId v, ScheduleDelta* delta);
  // Schedule edits that also record the change into `delta` (if any).
  void AddPush(NodeId u, NodeId v, ScheduleDelta* delta);
  void AddPull(NodeId u, NodeId v, ScheduleDelta* delta);
  void RemovePush(NodeId u, NodeId v, ScheduleDelta* delta);
  void RemovePull(NodeId u, NodeId v, ScheduleDelta* delta);
  void DropCoverEntry(NodeId u, NodeId v, NodeId hub);
  static void EraseFrom(std::vector<NodeId>& v, NodeId x);

  DynamicGraph* graph_;
  Schedule* schedule_;
  const Workload* workload_;

  // by_push_[(x,w)] = consumers y with cover (x -> y) via hub w.
  U64Map<std::vector<NodeId>> by_push_;
  // by_pull_[(w,y)] = producers x with cover (x -> y) via hub w.
  U64Map<std::vector<NodeId>> by_pull_;
  size_t repairs_ = 0;
};

}  // namespace piggy
