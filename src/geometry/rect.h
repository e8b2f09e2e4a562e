// Axis-aligned rectangles (MBRs — minimum bounding rectangles).
//
// An R-tree node's MBR tightly contains everything in its subtree; by
// minimality, at least one indexed point touches each face of the MBR — the
// property the paper's MINMAXDIST pruning metric relies on (Section 2.3).

#ifndef KCPQ_GEOMETRY_RECT_H_
#define KCPQ_GEOMETRY_RECT_H_

#include <algorithm>
#include <limits>

#include "geometry/point.h"

namespace kcpq {

/// Closed axis-aligned box [lo, hi] in each dimension. Passive data carrier;
/// helpers never enforce invariants beyond what their contracts state.
struct Rect {
  double lo[kDims] = {};
  double hi[kDims] = {};

  /// A degenerate rectangle containing exactly `p`.
  static Rect FromPoint(const Point& p) {
    Rect r;
    for (int d = 0; d < kDims; ++d) r.lo[d] = r.hi[d] = p.coord[d];
    return r;
  }

  /// The "empty" rectangle: identity for Expand (lo = +inf, hi = -inf).
  static Rect Empty() {
    Rect r;
    for (int d = 0; d < kDims; ++d) {
      r.lo[d] = std::numeric_limits<double>::infinity();
      r.hi[d] = -std::numeric_limits<double>::infinity();
    }
    return r;
  }

  bool IsEmpty() const { return lo[0] > hi[0]; }

  /// True iff lo <= hi and the extent hi - lo is finite in all dimensions
  /// (a real, possibly degenerate box). NaN and infinite coordinates are
  /// invalid: a NaN fails lo <= hi, and an infinite bound makes the extent
  /// infinite or NaN. Two comparisons per dimension, as node decoding runs
  /// this on every entry.
  bool IsValid() const {
    for (int d = 0; d < kDims; ++d) {
      if (!(lo[d] <= hi[d] &&
            hi[d] - lo[d] <= std::numeric_limits<double>::max())) {
        return false;
      }
    }
    return true;
  }

  /// Product of side lengths.
  double Area() const {
    double a = 1.0;
    for (int d = 0; d < kDims; ++d) a *= hi[d] - lo[d];
    return a;
  }

  /// Sum of side lengths (the R*-tree split criterion calls this margin).
  double Margin() const {
    double m = 0.0;
    for (int d = 0; d < kDims; ++d) m += hi[d] - lo[d];
    return m;
  }

  Point Center() const {
    Point c;
    for (int d = 0; d < kDims; ++d) c.coord[d] = 0.5 * (lo[d] + hi[d]);
    return c;
  }

  bool Contains(const Point& p) const {
    for (int d = 0; d < kDims; ++d) {
      if (p.coord[d] < lo[d] || p.coord[d] > hi[d]) return false;
    }
    return true;
  }

  bool Contains(const Rect& r) const {
    for (int d = 0; d < kDims; ++d) {
      if (r.lo[d] < lo[d] || r.hi[d] > hi[d]) return false;
    }
    return true;
  }

  bool Intersects(const Rect& r) const {
    for (int d = 0; d < kDims; ++d) {
      if (r.hi[d] < lo[d] || r.lo[d] > hi[d]) return false;
    }
    return true;
  }

  /// Grows in place to contain `p`.
  void Expand(const Point& p) {
    for (int d = 0; d < kDims; ++d) {
      lo[d] = std::min(lo[d], p.coord[d]);
      hi[d] = std::max(hi[d], p.coord[d]);
    }
  }

  /// Grows in place to contain `r`.
  void Expand(const Rect& r) {
    for (int d = 0; d < kDims; ++d) {
      lo[d] = std::min(lo[d], r.lo[d]);
      hi[d] = std::max(hi[d], r.hi[d]);
    }
  }

  friend bool operator==(const Rect& a, const Rect& b) {
    for (int d = 0; d < kDims; ++d) {
      if (a.lo[d] != b.lo[d] || a.hi[d] != b.hi[d]) return false;
    }
    return true;
  }
};

/// Smallest rectangle containing both arguments.
inline Rect Union(const Rect& a, const Rect& b) {
  Rect r = a;
  r.Expand(b);
  return r;
}

/// Area of the geometric intersection; 0 when disjoint.
inline double IntersectionArea(const Rect& a, const Rect& b) {
  double area = 1.0;
  for (int d = 0; d < kDims; ++d) {
    const double side = std::min(a.hi[d], b.hi[d]) - std::max(a.lo[d], b.lo[d]);
    if (side <= 0.0) return 0.0;
    area *= side;
  }
  return area;
}

/// Area growth of `a` needed to also cover `b` (R-tree ChooseSubtree cost).
inline double Enlargement(const Rect& a, const Rect& b) {
  return Union(a, b).Area() - a.Area();
}

/// A pair of points, one in `a` and one in `b`, realizing MINMINDIST: per
/// dimension the nearest interval ends, or the intersection midpoint when
/// the intervals meet. Degenerate rects yield the rects' points themselves
/// — so extended-object query results degrade gracefully to point results.
inline void ClosestPoints(const Rect& a, const Rect& b, Point* pa,
                          Point* pb) {
  for (int d = 0; d < kDims; ++d) {
    if (a.hi[d] < b.lo[d]) {
      pa->coord[d] = a.hi[d];
      pb->coord[d] = b.lo[d];
    } else if (b.hi[d] < a.lo[d]) {
      pa->coord[d] = a.lo[d];
      pb->coord[d] = b.hi[d];
    } else {
      const double mid =
          0.5 * (std::max(a.lo[d], b.lo[d]) + std::min(a.hi[d], b.hi[d]));
      pa->coord[d] = mid;
      pb->coord[d] = mid;
    }
  }
}

}  // namespace kcpq

#endif  // KCPQ_GEOMETRY_RECT_H_
