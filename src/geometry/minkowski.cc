#include "geometry/minkowski.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace kcpq {

namespace {

// Per-dimension separation gap (0 when the intervals meet).
double Gap(const Rect& a, const Rect& b, int d) {
  if (a.hi[d] < b.lo[d]) return b.lo[d] - a.hi[d];
  if (b.hi[d] < a.lo[d]) return a.lo[d] - b.hi[d];
  return 0.0;
}

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

  void Add(double g) {
    switch (metric) {
      case Metric::kL1:
        acc += std::fabs(g);
        break;
      case Metric::kL2:
        acc += g * g;
        break;
      case Metric::kLinf:
        acc = std::max(acc, std::fabs(g));
        break;
    }
  }
};

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
  for (int d = 0; d < kDims; ++d) c.Add(Gap(a, b, d));
  return c.acc;
}

double MaxMaxDistPowNonL2(const Rect& a, const Rect& b, Metric metric) {
  Combiner c{metric};
  for (int d = 0; d < kDims; ++d) c.Add(MaxGap(a, b, d));
  return c.acc;
}

}  // namespace minkowski_internal

double MinMaxDistPow(const Rect& a, const Rect& b, Metric metric) {
  if (metric == Metric::kL2) return MinMaxDistSquared(a, b);
  // Same face-pair decomposition as metrics.cc, but dimension
  // contributions combine under the metric instead of summing squares.
  // Soundness only needs per-dimension decomposability of the norm, which
  // every Minkowski norm has.
  double best = std::numeric_limits<double>::infinity();
  for (int k = 0; k < kDims; ++k) {
    for (const double u : {a.lo[k], a.hi[k]}) {
      for (int l = 0; l < kDims; ++l) {
        for (const double v : {b.lo[l], b.hi[l]}) {
          Combiner c{metric};
          for (int d = 0; d < kDims; ++d) {
            if (d == k && d == l) {
              c.Add(u - v);  // both faces fixed in this dimension
            } else if (d == k) {
              c.Add(MaxGapToInterval(u, b.lo[d], b.hi[d]));
            } else if (d == l) {
              c.Add(MaxGapToInterval(v, a.lo[d], a.hi[d]));
            } else {
              c.Add(MaxGap(a, b, d));
            }
          }
          best = std::min(best, c.acc);
        }
      }
    }
  }
  return best;
}

}  // namespace kcpq
