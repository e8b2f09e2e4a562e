// Plane-sweep kernel: the one pair enumeration of the K-CPQ engine
// (cpq/engine.cc, which also runs the ε-join of distance_join.cc). It
// combines every leaf pair (PlaneSweepPairs), and the same sweep
// (SweepPairs) enumerates the child pairs of every node-pair expansion
// (CpqEngine::SweepCandidates), cut at the pruning bound held before the
// expansion, or at +infinity where nothing may be cut (NAIVE, farthest).
// HS sweeps its minimizing leaf pairs (hs/hs.cc), and brute.cc offers it
// beside the nested-loop oracle. Nested loops remain only there: the
// oracle must stay independent of the code it validates, and HS's queue
// breaks equal keys by push order, so HS keeps the order its counters
// were pinned with for node pairs and farthest leaves.
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
// nodes rather than sorted copies. A node the engines read through a
// buffer frame carries every axis order (Node::axis_order, built once per
// residency), so its sweep sorts nothing; a node without orders (a
// capacity-0 read, a hand-built node) has its sweep axis ordered into the
// caller's SweepScratch, at the cost of the sort it replaces. Both orders
// are the permutation std::sort yields on the entries (SortAxisOrder), so
// the visit order is the same either way.
//
// Pair coverage: each cross pair (a, b) is visited exactly once, by
// whichever side enters the sweep first (smaller lo on the sweep axis; ties
// go to `a`). Orientation is preserved: the visitor always receives
// (a-item, b-item) regardless of which side was the reference.
//
// Soundness is *minimizing-only*: the skip relies on AxisGapPow
// lower-bounding the pair's key, which holds when smaller distance means
// smaller key (closest / range-closest). Farthest-pair queries negate
// MAXMAXDIST, breaking that monotonicity, so where
// QueryObjective::SweepUsable() is false the K-CPQ engine sweeps with a
// cut of +infinity under the strict test, which skips nothing.

#ifndef KCPQ_CPQ_LEAF_KERNEL_H_
#define KCPQ_CPQ_LEAF_KERNEL_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "geometry/minkowski.h"
#include "geometry/rect.h"
#include "rtree/node.h"

namespace kcpq {
namespace cpq_internal {

/// Reusable index buffers for nodes that arrive without axis orders.
struct SweepScratch {
  std::vector<uint32_t> a;
  std::vector<uint32_t> b;
};

/// One side of a sweep: `size` entries visited in `order`, ascending by
/// rect.lo on the sweep axis.
struct SweepList {
  const Entry* entries = nullptr;
  const uint32_t* order = nullptr;
  size_t size = 0;
  const Entry& operator[](size_t r) const { return entries[order[r]]; }
};

/// The per-axis union extent of two entry arrays.
struct SweepBox {
  double lo[kDims];
  double hi[kDims];

  SweepBox(const Entry* a, size_t na, const Entry* b, size_t nb) {
    for (int d = 0; d < kDims; ++d) {
      lo[d] = std::numeric_limits<double>::infinity();
      hi[d] = -std::numeric_limits<double>::infinity();
    }
    for (const auto& [entries, n] : {std::pair{a, na}, std::pair{b, nb}}) {
      for (size_t i = 0; i < n; ++i) {
        for (int d = 0; d < kDims; ++d) {
          lo[d] = std::min(lo[d], entries[i].rect.lo[d]);
          hi[d] = std::max(hi[d], entries[i].rect.hi[d]);
        }
      }
    }
  }

  /// The axis along which the extent is largest — maximizing spread
  /// maximizes the chance the axis test fires early.
  int WidestAxis() const {
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
};

/// `node`'s entries in ascending rect.lo[axis] order: its prebuilt order
/// when it has one, else one sorted into `scratch`.
inline const uint32_t* SweepOrder(const Node& node, int axis,
                                  std::vector<uint32_t>* scratch) {
  if (node.HasAxisOrders()) return node.AxisOrder(axis);
  scratch->resize(node.entries.size());
  SortAxisOrder(node.entries, axis, scratch->data());
  return scratch->data();
}

/// The one sweep behind the leaf kernel and every node-pair expansion.
/// Visits `a` x `b` in sweep order along `axis` and calls
/// `visit(a_entry, b_entry)` for every pair whose axis separation does not
/// already violate `cut()` (power space). `strict` selects the violation
/// test: with strict = false a pair is cut when AxisGapPow >= cut (for
/// engines that discard keys >= the bound, like the K-CPQ result heap);
/// with strict = true only when AxisGapPow > cut (the ε-join keeps
/// distance == ε, and HEAP keeps child pairs with key == T); a strict cut
/// of +infinity never fires, so every pair is visited. `visit` returns
/// false to abort. Once a reference's scan is cut, every later
/// entry of the other list is cut too (their gaps only grow, and the cut
/// never rises); with `report_cut` each such pair is passed to
/// `on_cut(a_entry, b_entry)`, otherwise the scan just stops. Returns the
/// number of pairs visited, so callers can account cuts as
/// |a|·|b| − visited.
///
/// Exactness: the gap is `b.lo - a.hi` or `a.lo - b.hi`, the expression
/// MinMinDistSquared / MinMinDistPow use for that axis, so a pair's
/// power-space MINMINDIST is never below its AxisGapPow in floating point
/// (a sum or max of non-negative terms is at least each term), and its
/// MINMAXDIST and MAXMAXDIST never below its MINMINDIST
/// (geometry/minkowski.h).
template <typename CutFn, typename VisitFn, typename OnCutFn>
uint64_t SweepPairs(const SweepList& a, const SweepList& b, int axis,
                    Metric metric, bool strict, CutFn cut, VisitFn visit,
                    bool report_cut, OnCutFn on_cut) {
  // The axis separation between the reference and a later entry of the
  // other list: positive only when the later entry starts past the
  // reference's upper face, in which case it is the exact axis gap.
  const auto beyond = [&](double ref_hi, const Entry& other) {
    const double gap = other.rect.lo[axis] - ref_hi;
    if (gap <= 0.0) return false;
    const double axis_pow = AxisGapPow(gap, metric);
    const double t = cut();
    return strict ? axis_pow > t : axis_pow >= t;
  };

  uint64_t visited = 0;
  size_t i = 0, j = 0;
  while (i < a.size && j < b.size) {
    if (a[i].rect.lo[axis] <= b[j].rect.lo[axis]) {
      const Entry& ref = a[i];
      const double ref_hi = ref.rect.hi[axis];
      size_t jj = j;
      for (; jj < b.size && !beyond(ref_hi, b[jj]); ++jj) {
        ++visited;
        if (!visit(ref, b[jj])) return visited;
      }
      if (report_cut) {
        for (; jj < b.size; ++jj) on_cut(ref, b[jj]);
      }
      ++i;
    } else {
      const Entry& ref = b[j];
      const double ref_hi = ref.rect.hi[axis];
      size_t ii = i;
      for (; ii < a.size && !beyond(ref_hi, a[ii]); ++ii) {
        ++visited;
        if (!visit(a[ii], ref)) return visited;
      }
      if (report_cut) {
        for (; ii < a.size; ++ii) on_cut(a[ii], ref);
      }
      ++j;
    }
  }
  return visited;
}

/// The leaf kernel: SweepPairs over two whole nodes along their widest
/// axis, re-reading `bound()` on every cut test and reporting no cut
/// pairs. `visit` returns false to abort. Returns the number of pairs
/// visited.
template <typename BoundFn, typename VisitFn>
uint64_t PlaneSweepPairs(const Node& a, const Node& b, Metric metric,
                         bool strict, SweepScratch* scratch, BoundFn bound,
                         VisitFn visit) {
  const int axis = SweepBox(a.entries.data(), a.entries.size(),
                            b.entries.data(), b.entries.size())
                       .WidestAxis();
  const SweepList list_a{a.entries.data(), SweepOrder(a, axis, &scratch->a),
                         a.entries.size()};
  const SweepList list_b{b.entries.data(), SweepOrder(b, axis, &scratch->b),
                         b.entries.size()};
  return SweepPairs(list_a, list_b, axis, metric, strict, bound, visit,
                    /*report_cut=*/false, [](const Entry&, const Entry&) {});
}

}  // namespace cpq_internal
}  // namespace kcpq

#endif  // KCPQ_CPQ_LEAF_KERNEL_H_
