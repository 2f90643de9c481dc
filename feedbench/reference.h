// The benchmark's own reference model and output checks.
//
// Nothing here calls into the serving plane or the planners: the checks
// recompute what a correct answer must be from the follow graph and the log
// of shares the benchmark itself issued, so a fault in the program cannot
// also hide itself in the reference.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/schedule.h"
#include "graph/graph.h"
#include "store/view_store.h"
#include "workload/workload.h"

namespace feedbench {

using piggy::EventTuple;
using piggy::NodeId;

/// splitmix64: a fully specified generator, so a seed gives the same inputs
/// on every standard library.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) { return n == 0 ? 0 : Next() % n; }

 private:
  uint64_t state_;
};

/// Who follows whom, as the benchmark tracks it through churn: sorted
/// followee lists (the producers whose events a user's feed may show).
class FollowSets {
 public:
  explicit FollowSets(const piggy::Graph& g);
  size_t num_users() const { return followees_.size(); }
  const std::vector<NodeId>& Followees(NodeId v) const { return followees_[v]; }
  bool Follows(NodeId follower, NodeId producer) const;
  /// Returns false when the edge was already present / absent.
  bool Add(NodeId follower, NodeId producer);
  bool Remove(NodeId follower, NodeId producer);

 private:
  std::vector<std::vector<NodeId>> followees_;
};

/// Every share the benchmark made, in issue order. Share number k (1-based)
/// is the event the program must report with event id and timestamp k.
class ShareLog {
 public:
  /// Room for `capacity` shares is allocated and touched here, so recording
  /// that many allocates nothing and the benchmark's own memory stays level
  /// while the program's is measured.
  ShareLog(size_t num_users, size_t capacity);
  uint64_t Record(NodeId producer);
  uint64_t size() const { return size_; }
  NodeId ProducerOf(uint64_t seq) const { return producers_[seq - 1]; }
  /// The `k` newest shares of `user` and its followees, newest first.
  std::vector<uint64_t> NewestFeed(NodeId user, const std::vector<NodeId>& followees,
                                   size_t k) const;
  /// Shares newer than share `seq` made by `owner` or one of `followees`,
  /// counted up to `limit`.
  size_t CountNewer(uint64_t seq, NodeId owner, const std::vector<NodeId>& followees,
                    size_t limit) const;

 private:
  /// Brings the per-producer index up to date; built only when a sweep asks,
  /// so the serving loop does not pay for it.
  void Index() const;

  std::vector<NodeId> producers_;
  uint64_t size_ = 0;
  mutable std::vector<std::vector<uint64_t>> by_producer_;
  mutable uint64_t indexed_ = 0;
};

/// Per-query check: at most `k` events, each a share the benchmark made by
/// the user or a current followee, strictly newest first (so no duplicates).
/// Returns an empty string when the feed passes, else what is wrong.
std::string CheckFeed(NodeId user, const std::vector<EventTuple>& feed,
                      const FollowSets& follows, const ShareLog& log, size_t k);

/// Completeness sweep of one feed against the `k` newest shares of the user
/// and its followees. Views hold at most `view_capacity` events (0 =
/// unbounded), so a missing share is excused only when some view that could
/// carry it to this user had since taken in `view_capacity` newer shares and
/// so may have trimmed it (the known trimming fault): the user's own view,
/// the producer's view, or the view of a followee that follows the producer
/// (a hub), each fed by its owner's and its owner's followees' shares.
enum class Completeness { kComplete, kTrimmed, kWrong };
Completeness CheckComplete(NodeId user, const std::vector<EventTuple>& feed,
                           const FollowSets& follows, const ShareLog& log, size_t k,
                           size_t view_capacity, std::string* why);

/// Schedule check: every edge is pushed, pulled, or hub-covered through a w
/// whose legs u -> w (pushed) and w -> v (pulled) are graph edges. The cost
/// recomputed from the rates must match `reported_cost` to rounding and may
/// not exceed the hybrid cost sum(min(rp, rc)).
std::string CheckSchedule(const piggy::Graph& g, const piggy::Workload& w,
                          const piggy::Schedule& s, double reported_cost);

}  // namespace feedbench
