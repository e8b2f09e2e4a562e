// MBR-to-MBR distance metrics (paper Section 2.3).
//
// For two MBRs M_P, M_Q whose subtrees contain point sets P', Q':
//
//   MINMINDIST(M_P, M_Q) <= dist(p, q) <= MAXMAXDIST(M_P, M_Q)
//                           for every p in P', q in Q'        (Inequality 1)
//   dist(p, q) <= MINMAXDIST(M_P, M_Q)
//                           for at least one pair (p, q)      (Inequality 2)
//
// Inequality 2 relies on MBR minimality: at least one indexed point touches
// each face of each MBR. MINMAXDIST is defined as
//   min over faces f_P of M_P, f_Q of M_Q of MAXDIST(f_P, f_Q),
// where MAXDIST of two faces is the largest distance between a point on one
// and a point on the other. The guaranteed points on f_P and f_Q are then at
// distance <= MAXDIST(f_P, f_Q), which proves the bound.
//
// This header holds the per-axis MINMINDIST gap of every metric
// (AxisMinGap) and the squared Euclidean (L2) forms of MINMINDIST and
// MAXMAXDIST, inline because every L2 node-pair key and leaf-pair distance
// runs through them (see point.h for why squared). MINMAXDIST has one
// definition for every metric, MinMaxDistPow in minkowski.h. A point is
// the degenerate rect Rect::FromPoint(p). tests/metrics_test.cc checks all
// three against the brute-force face/corner enumerations in
// metrics_reference.h.

#ifndef KCPQ_GEOMETRY_METRICS_H_
#define KCPQ_GEOMETRY_METRICS_H_

#include <algorithm>
#include <cmath>

#include "geometry/point.h"
#include "geometry/rect.h"

namespace kcpq {

/// The axis-`d` separation of `a` and `b`: the gap between the intervals
/// when they are apart, +0.0 when they meet. One expression, with no
/// branch in the source: when the intervals are apart one difference is
/// the exact gap and the other is negative; when they meet both are <= 0
/// and the outer max yields its first operand, +0.0, also for a -0.0
/// difference (std::max(x, 0.0) would keep -0.0). Every MINMINDIST, for
/// every metric, sums or maxes these terms.
inline double AxisMinGap(const Rect& a, const Rect& b, int d) {
  return std::max(0.0, std::max(b.lo[d] - a.hi[d], a.lo[d] - b.hi[d]));
}

/// Smallest possible squared distance between a point in `a` and a point in
/// `b`. Zero when the rectangles intersect. Inline: every node-pair key and
/// leaf-pair distance of the L2 engines runs through it. A positive
/// per-axis gap is `b.lo - a.hi` or `a.lo - b.hi`, exactly the expression
/// the plane sweep (cpq/leaf_kernel.h) tests, so the sum is never below the
/// sweep axis's own term in floating point.
inline double MinMinDistSquared(const Rect& a, const Rect& b) {
  double sum = 0.0;
  for (int d = 0; d < kDims; ++d) {
    const double gap = AxisMinGap(a, b, d);
    sum += gap * gap;
  }
  return sum;
}

/// Largest possible squared distance between a point in `a` and a point in
/// `b` (attained at a pair of corners).
inline double MaxMaxDistSquared(const Rect& a, const Rect& b) {
  double sum = 0.0;
  for (int d = 0; d < kDims; ++d) {
    const double gap =
        std::max(std::fabs(a.hi[d] - b.lo[d]), std::fabs(b.hi[d] - a.lo[d]));
    sum += gap * gap;
  }
  return sum;
}

}  // namespace kcpq

#endif  // KCPQ_GEOMETRY_METRICS_H_
