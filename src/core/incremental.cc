#include "core/incremental.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/cost_model.h"
#include "util/string_util.h"

namespace piggy {

IncrementalMaintainer::IncrementalMaintainer(DynamicGraph* graph,
                                             Schedule* schedule,
                                             const Workload* workload)
    : graph_(graph), schedule_(schedule), workload_(workload) {
  PIGGY_CHECK(graph_ != nullptr);
  PIGGY_CHECK(schedule_ != nullptr);
  PIGGY_CHECK(workload_ != nullptr);
  RebuildIndexes();
}

void IncrementalMaintainer::RebuildIndexes() {
  by_push_.Clear();
  by_pull_.Clear();
  schedule_->ForEachHubCover([this](const Edge& e, NodeId w) {
    uint64_t push_key = EdgeKey(e.src, w);
    if (auto* list = by_push_.Find(push_key)) {
      list->push_back(e.dst);
    } else {
      by_push_.Put(push_key, {e.dst});
    }
    uint64_t pull_key = EdgeKey(w, e.dst);
    if (auto* list = by_pull_.Find(pull_key)) {
      list->push_back(e.src);
    } else {
      by_pull_.Put(pull_key, {e.src});
    }
  });
}

void IncrementalMaintainer::EraseFrom(std::vector<NodeId>& v, NodeId x) {
  auto it = std::find(v.begin(), v.end(), x);
  if (it != v.end()) v.erase(it);
}

namespace {

void Record(ScheduleDelta* delta, ScheduleChange::Kind kind, bool added,
            NodeId u, NodeId v) {
  if (delta != nullptr) delta->changes.push_back({kind, added, Edge{u, v}});
}

}  // namespace

void IncrementalMaintainer::AddPush(NodeId u, NodeId v, ScheduleDelta* delta) {
  if (schedule_->AddPush(u, v)) {
    Record(delta, ScheduleChange::Kind::kPush, /*added=*/true, u, v);
  }
}

void IncrementalMaintainer::AddPull(NodeId u, NodeId v, ScheduleDelta* delta) {
  if (schedule_->AddPull(u, v)) {
    Record(delta, ScheduleChange::Kind::kPull, /*added=*/true, u, v);
  }
}

void IncrementalMaintainer::RemovePush(NodeId u, NodeId v, ScheduleDelta* delta) {
  if (schedule_->RemovePush(u, v)) {
    Record(delta, ScheduleChange::Kind::kPush, /*added=*/false, u, v);
  }
}

void IncrementalMaintainer::RemovePull(NodeId u, NodeId v, ScheduleDelta* delta) {
  if (schedule_->RemovePull(u, v)) {
    Record(delta, ScheduleChange::Kind::kPull, /*added=*/false, u, v);
  }
}

void IncrementalMaintainer::ServeDirect(NodeId u, NodeId v, ScheduleDelta* delta) {
  if (workload_->rp(u) <= workload_->rc(v)) {
    AddPush(u, v, delta);
  } else {
    AddPull(u, v, delta);
  }
}

void IncrementalMaintainer::DropCoverEntry(NodeId u, NodeId v, NodeId hub) {
  schedule_->ClearHubCover(u, v);
  if (auto* list = by_push_.Find(EdgeKey(u, hub))) EraseFrom(*list, v);
  if (auto* list = by_pull_.Find(EdgeKey(hub, v))) EraseFrom(*list, u);
}

Status IncrementalMaintainer::AddEdge(NodeId u, NodeId v, ScheduleDelta* delta) {
  if (u == v) return Status::InvalidArgument("self-loop");
  if (u >= workload_->num_users() || v >= workload_->num_users()) {
    return Status::OutOfRange(
        StrFormat("node %u or %u outside workload (%zu users)", u, v,
                  workload_->num_users()));
  }
  graph_->EnsureNodes(static_cast<size_t>(std::max(u, v)) + 1);
  if (!graph_->AddEdge(u, v)) return Status::OK();  // already present
  if (!schedule_->IsAssigned(u, v)) ServeDirect(u, v, delta);
  return Status::OK();
}

void IncrementalMaintainer::RepairEdgeAdded(NodeId u, NodeId v,
                                            ScheduleDelta* delta) {
  if (!graph_->HasEdge(u, v)) return;  // removed again while the plan flew
  if (!schedule_->IsAssigned(u, v)) ServeDirect(u, v, delta);
}

Status IncrementalMaintainer::RemoveEdge(NodeId u, NodeId v, ScheduleDelta* delta) {
  if (!graph_->RemoveEdge(u, v)) {
    return Status::NotFound(StrFormat("edge %u->%u not in graph", u, v));
  }
  RepairEdgeRemoved(u, v, delta);
  return Status::OK();
}

void IncrementalMaintainer::RepairEdgeRemoved(NodeId u, NodeId v,
                                              ScheduleDelta* delta) {
  // The removed edge's own cover entry, if any.
  if (auto hub = schedule_->HubFor(u, v)) DropCoverEntry(u, v, *hub);

  // If u -> v was a supporting push (v acting as hub), re-serve dependents.
  if (schedule_->IsPush(u, v)) {
    RemovePush(u, v, delta);
    if (auto* list = by_push_.Find(EdgeKey(u, v))) {
      std::vector<NodeId> dependents = *list;  // DropCoverEntry mutates *list
      for (NodeId y : dependents) {
        DropCoverEntry(u, y, v);
        if (graph_->HasEdge(u, y) && !schedule_->IsAssigned(u, y)) {
          ServeDirect(u, y, delta);
          ++repairs_;
        }
      }
      by_push_.Erase(EdgeKey(u, v));
    }
  }

  // If u -> v was a supporting pull (u acting as hub), re-serve dependents.
  if (schedule_->IsPull(u, v)) {
    RemovePull(u, v, delta);
    if (auto* list = by_pull_.Find(EdgeKey(u, v))) {
      std::vector<NodeId> dependents = *list;
      for (NodeId x : dependents) {
        DropCoverEntry(x, v, u);
        if (graph_->HasEdge(x, v) && !schedule_->IsAssigned(x, v)) {
          ServeDirect(x, v, delta);
          ++repairs_;
        }
      }
      by_pull_.Erase(EdgeKey(u, v));
    }
  }
}

}  // namespace piggy
