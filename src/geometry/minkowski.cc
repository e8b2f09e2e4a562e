#include "geometry/minkowski.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace kcpq {

namespace {

// Per-dimension farthest separation.
double MaxGap(const Rect& a, const Rect& b, int d) {
  return std::max(std::fabs(a.hi[d] - b.lo[d]), std::fabs(b.hi[d] - a.lo[d]));
}

double MaxGapToInterval(double u, double lo, double hi) {
  return std::max(std::fabs(u - lo), std::fabs(u - hi));
}

// Combines per-dimension contributions under the metric's power space:
// L1 sums |g|, L2 sums g^2, Linf maxes.
struct Combiner {
  Metric metric;
  double acc = 0.0;

  // One axis's power-space term (>= 0).
  void AddPow(double term) {
    acc = metric == Metric::kLinf ? std::max(acc, term) : acc + term;
  }
  // One axis's signed separation.
  void Add(double g) { AddPow(AxisGapPow(std::fabs(g), metric)); }
};

// MINMAXDIST for one metric. A face of `a` is (k, u): coordinate k pinned
// to u (a.lo[k] or a.hi[k]), every other coordinate free within `a`. The
// MAXDIST of a face pair ((k, u) of a, (l, v) of b) decomposes per axis d:
//   - pinned on both faces (d == k == l): |u - v|;
//   - pinned on one face: the pinned value's farthest separation from the
//     other box's interval in d;
//   - free on both: MaxGap(a, b, d).
// Each separation is at least the axis's MINMINDIST gap and at most its
// MaxGap, so each face pair's value, combined in axis order, lies between
// MinMinDistPow and MaxMaxDistPow exactly. The MaxGap terms are computed
// once per rect pair. One instantiation per metric keeps the metric's
// branches out of the face-pair loop (about 2x faster than a run-time
// metric on a 2-D rect pair).
template <Metric kMetric>
double MinMaxDistPowOf(const Rect& a, const Rect& b) {
  double free_both[kDims];
  for (int d = 0; d < kDims; ++d) {
    free_both[d] = AxisGapPow(MaxGap(a, b, d), kMetric);
  }
  double best = std::numeric_limits<double>::infinity();
  for (int k = 0; k < kDims; ++k) {
    for (const double u : {a.lo[k], a.hi[k]}) {
      for (int l = 0; l < kDims; ++l) {
        for (const double v : {b.lo[l], b.hi[l]}) {
          Combiner c{kMetric};
          for (int d = 0; d < kDims; ++d) {
            if (d == k && d == l) {
              c.Add(u - v);
            } else if (d == k) {
              c.Add(MaxGapToInterval(u, b.lo[d], b.hi[d]));
            } else if (d == l) {
              c.Add(MaxGapToInterval(v, a.lo[d], a.hi[d]));
            } else {
              c.AddPow(free_both[d]);
            }
          }
          best = std::min(best, c.acc);
        }
      }
    }
  }
  return best;
}

}  // namespace

const char* MetricName(Metric metric) {
  switch (metric) {
    case Metric::kL1:
      return "L1";
    case Metric::kL2:
      return "L2";
    case Metric::kLinf:
      return "Linf";
  }
  return "?";
}

double PointDistancePow(const Point& a, const Point& b, Metric metric) {
  if (metric == Metric::kL2) return SquaredDistance(a, b);
  Combiner c{metric};
  for (int d = 0; d < kDims; ++d) c.Add(a.coord[d] - b.coord[d]);
  return c.acc;
}

double PowToDistance(double pow_value, Metric metric) {
  return metric == Metric::kL2 ? std::sqrt(pow_value) : pow_value;
}

double DistanceToPow(double distance, Metric metric) {
  return metric == Metric::kL2 ? distance * distance : distance;
}

namespace minkowski_internal {

double MinMinDistPowNonL2(const Rect& a, const Rect& b, Metric metric) {
  Combiner c{metric};
  for (int d = 0; d < kDims; ++d) c.Add(AxisMinGap(a, b, d));
  return c.acc;
}

double MaxMaxDistPowNonL2(const Rect& a, const Rect& b, Metric metric) {
  Combiner c{metric};
  for (int d = 0; d < kDims; ++d) c.Add(MaxGap(a, b, d));
  return c.acc;
}

}  // namespace minkowski_internal

double MinMaxDistPow(const Rect& a, const Rect& b, Metric metric) {
  switch (metric) {
    case Metric::kL1:
      return MinMaxDistPowOf<Metric::kL1>(a, b);
    case Metric::kL2:
      return MinMaxDistPowOf<Metric::kL2>(a, b);
    case Metric::kLinf:
      return MinMaxDistPowOf<Metric::kLinf>(a, b);
  }
  return MinMaxDistPowOf<Metric::kL2>(a, b);
}

}  // namespace kcpq
