// Distance range join (ε-join): report every pair (p, q) in P x Q with
// dist(p, q) <= epsilon. The fixed-radius sibling of the K-CPQ: the
// paper's EXH algorithm with its bound T fixed at ε instead of tightened.
// DistanceRangeJoin runs the K-CPQ state machine (cpq/resumable.h) inline
// under QueryObjective::EpsilonJoin: a node pair is pruned when its
// MINMINDIST > ε, children are visited in entry order, and every leaf pair
// at distance <= ε (ε included) is kept. Pairs, disk and node accesses,
// work counters and the certificate are pinned by
// tests/golden/differential_distance_join.txt.

#ifndef KCPQ_CPQ_DISTANCE_JOIN_H_
#define KCPQ_CPQ_DISTANCE_JOIN_H_

#include <vector>

#include "cpq/cpq.h"

namespace kcpq {

struct DistanceJoinOptions {
  Metric metric = Metric::kL2;
  HeightStrategy height_strategy = HeightStrategy::kFixAtRoot;
  /// Self-join semantics as in SelfKClosestPairs: both trees are the same,
  /// reflexive pairs skipped, each unordered pair reported once.
  bool self_join = false;
  /// Safety valve: fail with ResourceExhausted instead of materializing
  /// more result pairs than this (an over-large epsilon can ask for the
  /// whole cross product). 0 = unlimited.
  uint64_t max_results = 0;

  /// The join's context: its limits and accounting (see
  /// CpqOptions::context; null = unlimited, unaccounted). A stopped join
  /// returns OK with the pairs found so far; quality.guaranteed_lower_bound
  /// certifies that every *unreported* qualifying pair is at least that far
  /// apart (so is_exact holds when the frontier lies beyond ε), and
  /// quality.missing_pair_bound caps how many qualifying pairs the partial
  /// result can be missing (the sum of pair capacities over deferred node
  /// pairs with MINMINDIST <= ε). The memory budget meters the
  /// materialized results on top of the traversal's candidate state.
  QueryContext* context = nullptr;
};

/// All pairs within `epsilon` (a true distance, not power-space), in
/// ascending distance order. `epsilon` must be >= 0.
Result<std::vector<PairResult>> DistanceRangeJoin(
    const RStarTree& tree_p, const RStarTree& tree_q, double epsilon,
    const DistanceJoinOptions& options = {}, CpqStats* stats = nullptr);

/// Brute-force reference (tests/benches).
std::vector<PairResult> BruteForceDistanceRangeJoin(
    const std::vector<std::pair<Point, uint64_t>>& p,
    const std::vector<std::pair<Point, uint64_t>>& q, double epsilon,
    bool self_join = false, Metric metric = Metric::kL2);

}  // namespace kcpq

#endif  // KCPQ_CPQ_DISTANCE_JOIN_H_
