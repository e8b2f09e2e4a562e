// QueryObjective: the policy that turns the branch-and-bound engine into a
// family of queries instead of one.
//
// The paper's K-CPQ algorithms are one instantiation of a more general MBR
// branch-and-bound: order candidate node pairs by an optimistic bound,
// prune the ones that provably cannot beat the K-th best result, and stop
// when the frontier proves optimality. Which bound, which direction, and
// which pairs are eligible is the *objective*; everything else (descent,
// heaps, prefetch, resumable state machines, certificates) is shared.
//
// The whole engine works in a single **key space**: every candidate and
// result carries a `double key`, smaller = more promising, and all
// machinery — candidate ordering, the pair min-heap, the CP5 cutoff, the
// prune test `key > T`, prefetch pop-order selection, frontier folds, and
// the per-rank certificate — is written against keys ascending. The
// objective defines the mapping:
//
//   family        key of a node pair            key of a point pair
//   ------------  ----------------------------  -------------------
//   kClosest      MINMINDIST (power space)      distance (power)
//   kFarthest     -MAXMAXDIST (power space)     -distance (power)
//   kRangeClosest MINMINDIST (power space)      distance (power)
//
// Negating MAXMAXDIST makes "ascending key" mean "descending farthest
// bound", so the farthest-pairs query reuses the min-heap, the `key > T`
// prune, and the ascending prefetch order unchanged. Soundness carries
// over symmetrically: for closest pairs MINMINDIST lower-bounds every pair
// distance beneath a node pair, hence (node key) <= (any pair key beneath
// it); for farthest pairs MAXMAXDIST upper-bounds every pair distance, so
// -MAXMAXDIST again satisfies (node key) <= (any pair key beneath it).
// That single inequality is all the engine ever relies on.
//
// Only the edges dispatch on family: converting a key back to a distance,
// whether a reported bound is a lower or an upper bound (certificate
// direction), whether the plane-sweep leaf kernel's axis-gap skip is
// sound, whether candidate capacities may tighten T, and — for the
// range-restricted family — which subtrees and leaf pairs are eligible
// at all.
//
// The ε-join (cpq/distance_join.h) is the closest family with T fixed:
// QueryObjective::EpsilonJoin carries ε the way kRangeClosest carries its
// rect, and the engine runs EXH with T = ε from the start, never
// tightening it, keeping every leaf pair with key <= T.

#ifndef KCPQ_CPQ_OBJECTIVE_H_
#define KCPQ_CPQ_OBJECTIVE_H_

#include <algorithm>
#include <limits>

#include "geometry/minkowski.h"
#include "geometry/rect.h"

namespace kcpq {

/// Which optimisation problem the branch-and-bound solves.
enum class QueryFamily {
  /// The paper's K closest pairs (ascending distance).
  kClosest,
  /// K farthest pairs: MAXMAXDIST-driven, results descending by distance,
  /// anytime certificates are *upper* bounds.
  kFarthest,
  /// Range-restricted closest pairs (Xue et al. / Chan-Rahul-Xue): the K
  /// closest pairs whose two points both lie inside a query rectangle.
  kRangeClosest,
};

const char* QueryFamilyName(QueryFamily f);

namespace obs {
class Histogram;  // obs/metrics.h
}  // namespace obs

/// The per-family latency histogram (kcpq_query_seconds_<family>) every
/// engine folds its wall clock into, so family p50/p99 are derivable from
/// /metrics alone. Defined in cpq.cc next to the name table.
obs::Histogram* FamilyQuerySeconds(QueryFamily f);

/// Value-type policy consumed by CpqEngine, the resumable state machines,
/// the HS hybrid queue, and the CLI/EXPLAIN edges. Cheap to copy.
class QueryObjective {
 public:
  QueryObjective() = default;
  QueryObjective(QueryFamily family, Metric metric, const Rect& rect = Rect{})
      : family_(family), metric_(metric), rect_(rect) {}

  /// The ε-join's objective: closest pairs with the pruning bound fixed at
  /// `epsilon` (a true distance, >= 0). Every pair at distance <= ε
  /// qualifies, so the answer is a set of unbounded size, not a top K.
  static QueryObjective EpsilonJoin(Metric metric, double epsilon) {
    QueryObjective o(QueryFamily::kClosest, metric);
    o.fixed_bound_ = true;
    o.initial_bound_ = DistanceToPow(epsilon, metric);
    return o;
  }

  QueryFamily family() const { return family_; }
  Metric metric() const { return metric_; }
  const Rect& rect() const { return rect_; }

  /// Smaller key = smaller distance. Everything distance-monotone (axis-gap
  /// sweep skips, capacity-based tightening via MINMAXDIST/MAXMAXDIST
  /// counting) is sound exactly for minimizing objectives.
  bool minimizing() const { return family_ != QueryFamily::kFarthest; }

  /// True when a query rectangle restricts pair eligibility.
  bool restricted() const { return family_ == QueryFamily::kRangeClosest; }

  /// Key of a candidate node pair: optimistic bound over all point pairs
  /// beneath it. Invariant: NodeKey(a, b) <= LeafKey of every eligible
  /// pair under (a, b).
  double NodeKey(const Rect& a, const Rect& b) const {
    return minimizing() ? MinMinDistPow(a, b, metric_)
                        : -MaxMaxDistPow(a, b, metric_);
  }

  /// Key of a leaf pair (entry rects; degenerate rects = points, where
  /// MINMIN == MAXMAX == the point distance, so both families are exact).
  double LeafKey(const Rect& a, const Rect& b) const {
    return minimizing() ? MinMinDistPow(a, b, metric_)
                        : -MaxMaxDistPow(a, b, metric_);
  }

  /// The most optimistic key any pair can have: the root pre-trip frontier
  /// fold, and the identity for min-folds over keys.
  double WeakestKey() const {
    return minimizing() ? 0.0 : -std::numeric_limits<double>::infinity();
  }

  /// Key -> true distance (for results and certificates). Handles the
  /// +infinity "uncovered rank" sentinel: for minimizing objectives it
  /// stays +infinity (vacuous lower bound), for kFarthest it collapses to
  /// 0 (the strongest upper bound: nothing farther than 0 is missing).
  double KeyToDistance(double key) const {
    const double pow = minimizing() ? key : -key;
    return PowToDistance(std::max(0.0, pow), metric_);
  }

  /// Interior pre-prune for the restricted family: a subtree whose MBR has
  /// positive MINMINDIST to the query rect contains no eligible point, so
  /// node pairs involving it are skipped at generation time (they are
  /// never "considered", keeping the EXPLAIN accounting identity intact).
  bool SubtreeEligible(const Rect& mbr) const {
    return !restricted() || MinMinDistPow(mbr, rect_, metric_) == 0.0;
  }

  /// Leaf-pair eligibility: both points (entry rects) inside the rect.
  bool LeafPairEligible(const Rect& ep, const Rect& eq) const {
    return !restricted() || (rect_.Contains(ep) && rect_.Contains(eq));
  }

  /// Whether T may be tightened from candidate capacities (the K=1
  /// MINMAXDIST rule and the Section 3.8 guaranteed-count bound, or their
  /// farthest mirror). Unsound for kRangeClosest: the counted pairs may
  /// lie outside the rectangle, so only found results tighten T there.
  bool CanTightenFromCapacities() const {
    return family_ != QueryFamily::kRangeClosest;
  }

  /// Whether the plane sweep may cut at the pruning bound. The sweep skip
  /// relies on AxisGapPow *lower-bounding* the pair's key, which holds
  /// only when smaller distance means smaller key; the K-CPQ engine sweeps
  /// kFarthest with the cut at +infinity (nothing skipped), and HS keeps
  /// its nested loop for it.
  bool SweepUsable() const { return minimizing(); }

  /// Certificate direction: kFarthest certifies "every missing pair is at
  /// most this far" — an upper bound (QueryQuality::bound_is_upper).
  bool BoundIsUpper() const { return family_ == QueryFamily::kFarthest; }

  /// True for the ε-join: T starts at InitialBound() and never moves, a
  /// leaf pair with key == T qualifies, and the result set is unbounded.
  bool fixed_bound() const { return fixed_bound_; }

  /// The pruning bound T before any pair is found (key space): ε's power
  /// for the ε-join, +infinity for the K-best families.
  double InitialBound() const { return initial_bound_; }

 private:
  QueryFamily family_ = QueryFamily::kClosest;
  Metric metric_ = Metric::kL2;
  Rect rect_{};
  bool fixed_bound_ = false;
  double initial_bound_ = std::numeric_limits<double>::infinity();
};

}  // namespace kcpq

#endif  // KCPQ_CPQ_OBJECTIVE_H_
