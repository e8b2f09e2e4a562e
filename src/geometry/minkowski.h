// Metric-generalized MBR distance functions.
//
// The paper (Section 2.1) notes its methods "can be easily adapted to any
// Minkowski metric"; this header is that adaptation. All pruning logic in
// the query engines only ever *compares* distances, so each metric works in
// a monotone "power space" that avoids roots on hot paths:
//
//   kL1   : power = the L1 distance itself
//   kL2   : power = squared Euclidean distance
//   kLinf : power = the Chebyshev distance itself
//
// PowToDistance converts a power-space value to the true distance at
// result-reporting time. MinMinDistPow and MaxMaxDistPow delegate L2 to the
// inline squared forms in metrics.h, so the L2 engines' key computations
// compile to straight-line code, while the L1/Linf forms stay out of line.
// MinMaxDistPow is the one MINMAXDIST, for every metric.
//
// Every function combines per-axis terms in axis order (L1 and L2 sum,
// Linf takes the max), and each MINMAXDIST term lies between the axis's
// MINMINDIST and MAXMAXDIST terms. Rounding is monotone, so for every rect
// pair and every axis d
//   AxisGapPow(gap_d) <= MinMinDistPow <= MinMaxDistPow <= MaxMaxDistPow
// holds exactly in floating point. The pruning rules of cpq/engine.cc and
// cpq/leaf_kernel.h rest on this chain.

#ifndef KCPQ_GEOMETRY_MINKOWSKI_H_
#define KCPQ_GEOMETRY_MINKOWSKI_H_

#include "geometry/metrics.h"
#include "geometry/point.h"
#include "geometry/rect.h"

namespace kcpq {

/// Distance metric for closest-pair queries.
enum class Metric {
  kL1,    // Manhattan
  kL2,    // Euclidean (the paper's default)
  kLinf,  // Chebyshev
};

const char* MetricName(Metric metric);

/// Distance between two points in power space.
double PointDistancePow(const Point& a, const Point& b, Metric metric);

/// Power-space contribution of a single-axis separation `gap` (>= 0): gap²
/// for L2, gap for L1 and Linf. For every Minkowski metric this
/// lower-bounds the full power-space distance of any pair separated by
/// `gap` along one axis — the plane-sweep leaf kernel's skip test
/// (cpq/leaf_kernel.h) relies on exactly this monotone bound.
inline double AxisGapPow(double gap, Metric metric) {
  return metric == Metric::kL2 ? gap * gap : gap;
}

/// Power-space value -> true distance (sqrt for L2, identity otherwise).
double PowToDistance(double pow_value, Metric metric);

/// True distance -> power-space value (inverse of PowToDistance).
double DistanceToPow(double distance, Metric metric);

namespace minkowski_internal {
/// The L1/Linf (non-L2) branches of MinMinDistPow and MaxMaxDistPow.
double MinMinDistPowNonL2(const Rect& a, const Rect& b, Metric metric);
double MaxMaxDistPowNonL2(const Rect& a, const Rect& b, Metric metric);
}  // namespace minkowski_internal

/// Generalizations of the Section 2.3 MBR metrics (contracts in metrics.h),
/// in the metric's power space.
inline double MinMinDistPow(const Rect& a, const Rect& b, Metric metric) {
  if (metric == Metric::kL2) return MinMinDistSquared(a, b);
  return minkowski_internal::MinMinDistPowNonL2(a, b, metric);
}
inline double MaxMaxDistPow(const Rect& a, const Rect& b, Metric metric) {
  if (metric == Metric::kL2) return MaxMaxDistSquared(a, b);
  return minkowski_internal::MaxMaxDistPowNonL2(a, b, metric);
}
/// Min over face pairs of the face-pair MAXDIST (see metrics.h). Symmetric
/// bit for bit: MinMaxDistPow(a, b) == MinMaxDistPow(b, a).
double MinMaxDistPow(const Rect& a, const Rect& b, Metric metric);

}  // namespace kcpq

#endif  // KCPQ_GEOMETRY_MINKOWSKI_H_
