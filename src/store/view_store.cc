#include "store/view_store.h"

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "simd/kernels.h"

namespace piggy {

// The gather-based interest filter reads the producer key as the first 32-bit
// word of each stored tuple at a fixed word stride.
static_assert(sizeof(EventTuple) == 24, "EventTuple layout drives the key stride");
static_assert(offsetof(EventTuple, producer) == 0,
              "producer must be the leading key word");

std::vector<EventTuple> TopKNewest(std::vector<EventTuple> events, size_t k) {
  std::sort(events.begin(), events.end(), NewerThan);
  // The same event can arrive from several views (e.g. two hubs both storing
  // a producer's events); streams have set semantics, so drop duplicates.
  events.erase(std::unique(events.begin(), events.end()), events.end());
  if (events.size() > k) events.resize(k);
  return events;
}

void ViewStore::UpdateBatch(std::span<const NodeId> views, const EventTuple& event) {
  std::lock_guard<std::mutex> lock(*mu_);
  ++metrics_.update_messages;
  for (NodeId owner : views) {
    std::vector<EventTuple>* view = views_.Find(owner);
    if (view == nullptr) {
      views_.Put(owner, {event});
    } else {
      // Oldest-first order; concurrent writers may deliver slightly stale
      // timestamps, so walk back from the tail to the sorted slot (one step
      // at most in the common case).
      auto pos = view->end();
      while (pos != view->begin() && NewerThan(*(pos - 1), event)) --pos;
      view->insert(pos, event);
      if (view_capacity_ > 0 && view->size() > view_capacity_) {
        // Sorted oldest-first, so the front is the oldest.
        view->erase(view->begin());
        ++metrics_.trimmed_events;
      }
    }
    ++metrics_.view_writes;
  }
}

namespace {

// Share (oldest-first) order of the log and of every view.
bool OlderThan(const EventTuple& a, const EventTuple& b) { return NewerThan(b, a); }

}  // namespace

void ViewStore::MergeIn(NodeId owner, NodeId producer,
                        std::span<const EventTuple> log) {
  std::lock_guard<std::mutex> lock(*mu_);
  std::vector<EventTuple>* view = views_.Find(owner);
  const size_t cap = view_capacity_;
  // In a full view anything older than its oldest event would be trimmed
  // right away, so the backward walk stops there.
  const EventTuple* floor =
      view != nullptr && cap > 0 && view->size() >= cap ? &view->front() : nullptr;
  std::vector<EventTuple> picked;  // newest-first
  uint64_t dropped = 0;
  for (auto it = log.rbegin(); it != log.rend(); ++it) {
    if (it->producer != producer) continue;
    if ((cap > 0 && picked.size() == cap) ||
        (floor != nullptr && OlderThan(*it, *floor))) {
      ++dropped;  // this one and every older event of the producer
      break;
    }
    picked.push_back(*it);
  }
  if (picked.empty()) {
    metrics_.trimmed_events += dropped;
    return;
  }
  std::reverse(picked.begin(), picked.end());
  std::vector<EventTuple> merged;
  if (view != nullptr) {
    merged.reserve(view->size() + picked.size());
    std::merge(view->begin(), view->end(), picked.begin(), picked.end(),
               std::back_inserter(merged), OlderThan);
  } else {
    merged = std::move(picked);
  }
  if (cap > 0 && merged.size() > cap) {
    const size_t excess = merged.size() - cap;
    merged.erase(merged.begin(), merged.begin() + static_cast<ptrdiff_t>(excess));
    dropped += excess;
  }
  metrics_.trimmed_events += dropped;
  if (view != nullptr) {
    *view = std::move(merged);
  } else {
    views_.Put(owner, std::move(merged));
  }
}

void ViewStore::PurgeAndRefill(NodeId owner, NodeId producer,
                               std::span<const NodeId> sources,
                               std::span<const EventTuple> log) {
  std::lock_guard<std::mutex> lock(*mu_);
  std::vector<EventTuple>* view = views_.Find(owner);
  if (view == nullptr) return;
  const bool was_full = view_capacity_ > 0 && view->size() >= view_capacity_;
  const EventTuple oldest = view->front();
  const auto kept = std::remove_if(view->begin(), view->end(),
                                   [producer](const EventTuple& e) {
                                     return e.producer == producer;
                                   });
  const size_t removed = static_cast<size_t>(view->end() - kept);
  view->erase(kept, view->end());
  if (removed > 0 && was_full) {
    // The full view held every matching event from `oldest` on, so the
    // refill comes from strictly older events, newest first.
    std::vector<EventTuple> refill;  // newest-first
    const auto start = std::lower_bound(log.begin(), log.end(), oldest, OlderThan);
    for (auto it = start; it != log.begin() && refill.size() < removed;) {
      --it;
      if (std::binary_search(sources.begin(), sources.end(), it->producer)) {
        refill.push_back(*it);
      }
    }
    view->insert(view->begin(), refill.rbegin(), refill.rend());
  }
  if (view->empty()) views_.Erase(owner);
}

std::vector<EventTuple> ViewStore::QueryBatch(std::span<const NodeId> views,
                                              std::span<const NodeId> interest,
                                              size_t k) {
  std::lock_guard<std::mutex> lock(*mu_);
  ++metrics_.query_messages;
  std::vector<EventTuple> candidates;
  std::vector<uint32_t> sel;
  for (NodeId owner : views) {
    ++metrics_.view_reads;
    const std::vector<EventTuple>* view = views_.Find(owner);
    if (view == nullptr) continue;
    // Newest-first interest scan, vectorized: each view contributes at most k
    // matching events; indices come back in descending (newest-first) order.
    sel.clear();
    simd::SelectKeyedNewestInto(reinterpret_cast<const uint32_t*>(view->data()),
                                sizeof(EventTuple) / sizeof(uint32_t), view->size(),
                                interest, k, &sel);
    for (uint32_t r : sel) candidates.push_back((*view)[r]);
  }
  return TopKNewest(std::move(candidates), k);
}

std::vector<EventTuple> ViewStore::QueryBatch(std::span<const NodeId> views,
                                              size_t k) {
  std::lock_guard<std::mutex> lock(*mu_);
  ++metrics_.query_messages;
  std::vector<EventTuple> candidates;
  for (NodeId owner : views) {
    ++metrics_.view_reads;
    const std::vector<EventTuple>* view = views_.Find(owner);
    if (view == nullptr) continue;
    // Views are sorted oldest-first, so the newest k are the tail; emit in
    // descending record order to mirror the filtered scan exactly.
    const size_t take = std::min(k, view->size());
    for (size_t r = view->size(); r > view->size() - take; --r) {
      candidates.push_back((*view)[r - 1]);
    }
  }
  return TopKNewest(std::move(candidates), k);
}

std::vector<EventTuple> ViewStore::ReadView(NodeId owner) const {
  std::lock_guard<std::mutex> lock(*mu_);
  const std::vector<EventTuple>* view = views_.Find(owner);
  return view ? *view : std::vector<EventTuple>{};
}

}  // namespace piggy
