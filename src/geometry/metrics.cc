#include "geometry/metrics.h"

#include <algorithm>
#include <limits>

namespace kcpq {

namespace {

// Largest |u - w| over w in [lo, hi].
double MaxGapToInterval(double u, double lo, double hi) {
  return std::max(std::fabs(u - lo), std::fabs(u - hi));
}

}  // namespace

double MinMaxDistSquared(const Rect& a, const Rect& b) {
  // A face of `a` is (k, u): the set of points with coord[k] == u (where u is
  // a.lo[k] or a.hi[k]) and every other coordinate free within `a`. MAXDIST
  // of a face pair decomposes per dimension:
  //   - the face's fixed dimension contributes the distance from its fixed
  //     value to the farthest end of the *other* box's interval (or, for
  //     parallel faces, simply |u - v|),
  //   - every dimension free on both faces contributes the largest gap
  //     between the two intervals.
  double maxgap2[kDims];
  for (int d = 0; d < kDims; ++d) {
    const double g =
        std::max(std::fabs(a.hi[d] - b.lo[d]), std::fabs(b.hi[d] - a.lo[d]));
    maxgap2[d] = g * g;
  }
  double maxgap2_sum = 0.0;
  for (int d = 0; d < kDims; ++d) maxgap2_sum += maxgap2[d];

  double best = std::numeric_limits<double>::infinity();
  for (int k = 0; k < kDims; ++k) {
    for (const double u : {a.lo[k], a.hi[k]}) {
      const double ug = MaxGapToInterval(u, b.lo[k], b.hi[k]);
      for (int l = 0; l < kDims; ++l) {
        for (const double v : {b.lo[l], b.hi[l]}) {
          double d2;
          if (k == l) {
            // Parallel faces: fixed dim contributes |u - v|; others maxgap.
            d2 = (u - v) * (u - v) + (maxgap2_sum - maxgap2[k]);
          } else {
            // Perpendicular faces: dim k constrained only by u (the other
            // face spans b's full interval in k), dim l symmetrically.
            const double vg = MaxGapToInterval(v, a.lo[l], a.hi[l]);
            d2 = ug * ug + vg * vg +
                 (maxgap2_sum - maxgap2[k] - maxgap2[l]);
          }
          best = std::min(best, d2);
        }
      }
    }
  }
  return best;
}

double MinDistSquared(const Point& p, const Rect& r) {
  double sum = 0.0;
  for (int d = 0; d < kDims; ++d) {
    double gap = 0.0;
    if (p.coord[d] < r.lo[d]) {
      gap = r.lo[d] - p.coord[d];
    } else if (p.coord[d] > r.hi[d]) {
      gap = p.coord[d] - r.hi[d];
    }
    sum += gap * gap;
  }
  return sum;
}

double MaxDistSquared(const Point& p, const Rect& r) {
  double sum = 0.0;
  for (int d = 0; d < kDims; ++d) {
    const double gap = MaxGapToInterval(p.coord[d], r.lo[d], r.hi[d]);
    sum += gap * gap;
  }
  return sum;
}

double MinMaxDistSquared(const Point& p, const Rect& r) {
  // Roussopoulos et al.: for each dimension k, take the nearer face of r in
  // k and the farther coordinate in every other dimension; minimize over k.
  double far2[kDims];
  double far2_sum = 0.0;
  for (int d = 0; d < kDims; ++d) {
    const double g = MaxGapToInterval(p.coord[d], r.lo[d], r.hi[d]);
    far2[d] = g * g;
    far2_sum += far2[d];
  }
  double best = std::numeric_limits<double>::infinity();
  for (int k = 0; k < kDims; ++k) {
    const double mid = 0.5 * (r.lo[k] + r.hi[k]);
    const double near = p.coord[k] <= mid ? r.lo[k] : r.hi[k];
    const double nk = p.coord[k] - near;
    best = std::min(best, nk * nk + (far2_sum - far2[k]));
  }
  return best;
}

}  // namespace kcpq
