#include "reference.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace feedbench {

namespace {

std::string Describe(const char* fmt, uint64_t a, uint64_t b = 0, uint64_t c = 0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, static_cast<unsigned long long>(a),
                static_cast<unsigned long long>(b), static_cast<unsigned long long>(c));
  return buf;
}

}  // namespace

FollowSets::FollowSets(const piggy::Graph& g) : followees_(g.num_nodes()) {
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    auto in = g.InNeighbors(v);
    followees_[v].assign(in.begin(), in.end());
    std::sort(followees_[v].begin(), followees_[v].end());
  }
}

bool FollowSets::Follows(NodeId follower, NodeId producer) const {
  const auto& f = followees_[follower];
  return std::binary_search(f.begin(), f.end(), producer);
}

bool FollowSets::Add(NodeId follower, NodeId producer) {
  auto& f = followees_[follower];
  auto it = std::lower_bound(f.begin(), f.end(), producer);
  if (it != f.end() && *it == producer) return false;
  f.insert(it, producer);
  return true;
}

bool FollowSets::Remove(NodeId follower, NodeId producer) {
  auto& f = followees_[follower];
  auto it = std::lower_bound(f.begin(), f.end(), producer);
  if (it == f.end() || *it != producer) return false;
  f.erase(it);
  return true;
}

ShareLog::ShareLog(size_t num_users, size_t capacity)
    : producers_(capacity), by_producer_(num_users) {}

uint64_t ShareLog::Record(NodeId producer) {
  if (size_ < producers_.size()) {
    producers_[size_] = producer;
  } else {
    producers_.push_back(producer);
  }
  return ++size_;
}

void ShareLog::Index() const {
  for (; indexed_ < size_; ++indexed_) by_producer_[producers_[indexed_]].push_back(indexed_ + 1);
}

std::vector<uint64_t> ShareLog::NewestFeed(NodeId user,
                                           const std::vector<NodeId>& followees,
                                           size_t k) const {
  Index();
  std::vector<uint64_t> candidates;
  auto take = [&](NodeId p) {
    const auto& seqs = by_producer_[p];
    const size_t from = seqs.size() > k ? seqs.size() - k : 0;
    candidates.insert(candidates.end(), seqs.begin() + static_cast<ptrdiff_t>(from),
                      seqs.end());
  };
  take(user);
  for (NodeId p : followees) {
    if (p != user) take(p);
  }
  const size_t keep = std::min(k, candidates.size());
  std::partial_sort(candidates.begin(), candidates.begin() + static_cast<ptrdiff_t>(keep),
                    candidates.end(), std::greater<uint64_t>());
  candidates.resize(keep);
  return candidates;
}

size_t ShareLog::CountNewer(uint64_t seq, NodeId owner, const std::vector<NodeId>& followees,
                            size_t limit) const {
  Index();
  size_t count = 0;
  auto add = [&](NodeId p) {
    const auto& seqs = by_producer_[p];
    count += static_cast<size_t>(seqs.end() - std::upper_bound(seqs.begin(), seqs.end(), seq));
  };
  add(owner);
  for (size_t i = 0; i < followees.size() && count < limit; ++i) {
    if (followees[i] != owner) add(followees[i]);
  }
  return count;
}

std::string CheckFeed(NodeId user, const std::vector<EventTuple>& feed,
                      const FollowSets& follows, const ShareLog& log, size_t k) {
  if (feed.size() > k) {
    return Describe("feed of user %llu has %llu events, more than %llu", user,
                    feed.size(), k);
  }
  for (size_t i = 0; i < feed.size(); ++i) {
    const EventTuple& e = feed[i];
    if (e.event_id == 0 || e.event_id > log.size() || e.timestamp != e.event_id) {
      return Describe("feed of user %llu shows event %llu, which the benchmark never "
                      "shared (log holds %llu)", user, e.event_id, log.size());
    }
    if (log.ProducerOf(e.event_id) != e.producer) {
      return Describe("feed of user %llu credits event %llu to producer %llu", user,
                      e.event_id, e.producer);
    }
    if (e.producer != user && !follows.Follows(user, e.producer)) {
      return Describe("feed of user %llu shows producer %llu, which it does not follow",
                      user, e.producer);
    }
    if (i > 0 && feed[i - 1].event_id <= e.event_id) {
      return Describe("feed of user %llu is not strictly newest-first at position %llu",
                      user, i);
    }
  }
  return {};
}

Completeness CheckComplete(NodeId user, const std::vector<EventTuple>& feed,
                           const FollowSets& follows, const ShareLog& log, size_t k,
                           size_t view_capacity, std::string* why) {
  const std::vector<uint64_t> want = log.NewestFeed(user, follows.Followees(user), k);
  // Could share `seq` have been trimmed from every view that carries it here?
  auto could_be_trimmed = [&](uint64_t seq) {
    if (view_capacity == 0) return false;
    const NodeId p = log.ProducerOf(seq);
    auto full = [&](NodeId owner) {
      return log.CountNewer(seq, owner, follows.Followees(owner), view_capacity) >=
             view_capacity;
    };
    if (full(user) || full(p)) return true;
    for (NodeId w : follows.Followees(user)) {
      if (w != p && follows.Follows(w, p) && full(w)) return true;
    }
    return false;
  };
  bool missing = false;
  for (uint64_t seq : want) {
    const bool shown = std::any_of(feed.begin(), feed.end(), [seq](const EventTuple& e) {
      return e.event_id == seq;
    });
    if (shown) continue;
    if (!could_be_trimmed(seq)) {
      *why = Describe("feed of user %llu lacks share %llu of producer %llu, which no full "
                      "view could have trimmed", user, seq, log.ProducerOf(seq));
      return Completeness::kWrong;
    }
    missing = true;
  }
  if (missing) return Completeness::kTrimmed;
  if (feed.size() != want.size()) {
    *why = Describe("feed of user %llu has %llu events, the reference %llu", user,
                    feed.size(), want.size());
    return Completeness::kWrong;
  }
  return Completeness::kComplete;
}

std::string CheckSchedule(const piggy::Graph& g, const piggy::Workload& w,
                          const piggy::Schedule& s, double reported_cost) {
  double cost = 0, hybrid = 0;
  std::string error;
  g.ForEachEdge([&](const piggy::Edge& e) {
    const bool push = s.IsPush(e.src, e.dst);
    const bool pull = s.IsPull(e.src, e.dst);
    if (push) cost += w.rp(e.src);
    if (pull) cost += w.rc(e.dst);
    hybrid += std::min(w.rp(e.src), w.rc(e.dst));
    if (push || pull || !error.empty()) return;
    const auto hub = s.HubFor(e.src, e.dst);
    if (!hub) {
      error = Describe("edge %llu -> %llu is neither pushed, pulled nor hub-covered",
                       e.src, e.dst);
      return;
    }
    const NodeId h = *hub;
    if (!g.HasEdge(e.src, h) || !s.IsPush(e.src, h) || !g.HasEdge(h, e.dst) ||
        !s.IsPull(h, e.dst)) {
      error = Describe("edge %llu -> %llu is covered by hub %llu without both legs",
                       e.src, e.dst, h);
    }
  });
  if (!error.empty()) return error;
  const double tolerance = 1e-9 * std::max(1.0, std::fabs(cost));
  if (std::fabs(cost - reported_cost) > tolerance) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "schedule cost %.9g differs from the reported %.9g",
                  cost, reported_cost);
    return buf;
  }
  if (cost > hybrid + tolerance) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "schedule cost %.9g exceeds the hybrid cost %.9g",
                  cost, hybrid);
    return buf;
  }
  return {};
}

}  // namespace feedbench
