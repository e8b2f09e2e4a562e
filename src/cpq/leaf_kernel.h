// Plane-sweep leaf kernel, shared by every leaf/leaf (and object/object)
// combination loop in the query engines (cpq/engine.cc, distance_join.cc,
// hs/hs.cc, brute.cc).
//
// Idea (classic in the closest-pair literature — the optimized
// divide-and-conquer of Pereira & Lobo and the plane-sweep KCPQ variants
// that followed the paper): order both entry sets along one axis and visit
// pairs in sweep order. For a reference entry `r` and the other set's
// entries in ascending lower-coordinate order, the axis separation
// `other.lo - r.hi` is non-decreasing, and its power-space value
// (AxisGapPow) lower-bounds the pair's full distance under every Minkowski
// metric. So the first time the axis separation alone exceeds the pruning
// bound, the scan for `r` stops: every remaining pair is provably farther
// than the bound, without computing a single full distance.
//
// The kernel only *enumerates* the surviving pairs; the caller's visitor
// keeps its own filtering / counting / result handling, which is what makes
// one template serve four engines with different semantics. The visitor
// returns false to abort the whole sweep (used by the ε-join's max_results
// guard). The bound is re-read through a callable on every skip test, so a
// bound tightened by the visitor mid-sweep prunes the remaining pairs of
// the same leaf pair — strictly better than the nested loop's behavior.
//
// Sort once, merge per pair: the kernel walks index orders of the two
// leaves rather than sorted copies. A leaf read through a buffer frame
// carries both axis orders (Node::axis_order, built once per residency),
// so its sweep sorts nothing; a leaf without orders (a capacity-0 read, a
// hand-built node) has its sweep axis ordered into the caller's
// SweepScratch, at the cost of the sort it replaces. Both orders are the
// permutation std::sort yields on the entries (SortAxisOrder), so the
// visit order is the same either way.
//
// Pair coverage: each cross pair (a, b) is visited exactly once, by
// whichever side enters the sweep first (smaller lo on the sweep axis; ties
// go to `a`). Orientation is preserved: the visitor always receives
// (a-item, b-item) regardless of which side was the reference.
//
// Soundness is *minimizing-only*: the skip relies on AxisGapPow
// lower-bounding the pair's key, which holds when smaller distance means
// smaller key (closest / range-closest). Farthest-pair queries negate
// MAXMAXDIST, breaking that monotonicity, so QueryObjective::SweepUsable()
// gates every call site back to the nested loop for that family.

#ifndef KCPQ_CPQ_LEAF_KERNEL_H_
#define KCPQ_CPQ_LEAF_KERNEL_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "geometry/minkowski.h"
#include "geometry/rect.h"
#include "rtree/node.h"

namespace kcpq {
namespace cpq_internal {

/// Reusable index buffers for leaves that arrive without axis orders.
struct SweepScratch {
  std::vector<uint32_t> a;
  std::vector<uint32_t> b;
};

/// The axis along which the union of both nodes' extents is largest —
/// maximizing spread maximizes the chance the axis test fires early.
inline int BestSweepAxis(const Node& a, const Node& b) {
  double lo[kDims], hi[kDims];
  for (int d = 0; d < kDims; ++d) {
    lo[d] = std::numeric_limits<double>::infinity();
    hi[d] = -std::numeric_limits<double>::infinity();
  }
  for (const Node* node : {&a, &b}) {
    for (const Entry& e : node->entries) {
      for (int d = 0; d < kDims; ++d) {
        lo[d] = std::min(lo[d], e.rect.lo[d]);
        hi[d] = std::max(hi[d], e.rect.hi[d]);
      }
    }
  }
  int best = 0;
  double best_spread = -1.0;
  for (int d = 0; d < kDims; ++d) {
    const double spread = hi[d] - lo[d];
    if (spread > best_spread) {
      best_spread = spread;
      best = d;
    }
  }
  return best;
}

/// `node`'s entries in ascending rect.lo[axis] order: its prebuilt order
/// when it has one, else one sorted into `scratch`.
inline const uint32_t* SweepOrder(const Node& node, int axis,
                                  std::vector<uint32_t>* scratch) {
  if (node.HasAxisOrders()) return node.AxisOrder(axis);
  scratch->resize(node.entries.size());
  SortAxisOrder(node.entries, axis, scratch->data());
  return scratch->data();
}

/// Sweeps `a` x `b` and calls `visit(a_entry, b_entry)` for every pair
/// whose sweep-axis separation does not already violate `bound()` (power
/// space). `strict` selects the violation test: with strict = false a pair
/// is skipped when AxisGapPow >= bound (for engines that discard distances
/// >= bound, like the K-CPQ result heap); with strict = true only when
/// AxisGapPow > bound (for the ε-join, whose results include distance ==
/// epsilon exactly). `visit` returns false to abort. Returns the number of
/// pairs visited, so callers can account skips as |a|·|b| − visited.
template <typename BoundFn, typename VisitFn>
uint64_t PlaneSweepPairs(const Node& a, const Node& b, Metric metric,
                         bool strict, SweepScratch* scratch, BoundFn bound,
                         VisitFn visit) {
  const int axis = BestSweepAxis(a, b);
  const uint32_t* order_a = SweepOrder(a, axis, &scratch->a);
  const uint32_t* order_b = SweepOrder(b, axis, &scratch->b);
  const size_t na = a.entries.size();
  const size_t nb = b.entries.size();
  const auto at_a = [&](size_t i) -> const Entry& {
    return a.entries[order_a[i]];
  };
  const auto at_b = [&](size_t j) -> const Entry& {
    return b.entries[order_b[j]];
  };

  // The axis separation between the reference and a later entry of the
  // other list: positive only when the later entry starts past the
  // reference's upper face, in which case it is the exact axis gap.
  const auto beyond_bound = [&](double ref_hi, const Entry& other) {
    const double gap = other.rect.lo[axis] - ref_hi;
    if (gap <= 0.0) return false;
    const double axis_pow = AxisGapPow(gap, metric);
    const double t = bound();
    return strict ? axis_pow > t : axis_pow >= t;
  };

  uint64_t visited = 0;
  size_t i = 0, j = 0;
  while (i < na && j < nb) {
    if (at_a(i).rect.lo[axis] <= at_b(j).rect.lo[axis]) {
      const Entry& ref = at_a(i);
      const double ref_hi = ref.rect.hi[axis];
      for (size_t jj = j; jj < nb; ++jj) {
        if (beyond_bound(ref_hi, at_b(jj))) break;
        ++visited;
        if (!visit(ref, at_b(jj))) return visited;
      }
      ++i;
    } else {
      const Entry& ref = at_b(j);
      const double ref_hi = ref.rect.hi[axis];
      for (size_t ii = i; ii < na; ++ii) {
        if (beyond_bound(ref_hi, at_a(ii))) break;
        ++visited;
        if (!visit(at_a(ii), ref)) return visited;
      }
      ++j;
    }
  }
  return visited;
}

}  // namespace cpq_internal
}  // namespace kcpq

#endif  // KCPQ_CPQ_LEAF_KERNEL_H_
