// Brute-force reference implementations of the Section 2.3 metrics, written
// straight from their definitions (enumerating faces and corners). They are
// exponential in kDims and exist to validate the L2 closed forms in
// metrics.h and minkowski.h. Both sides take maxima and minima of the same
// per-axis sums, so tests/metrics_test.cc asserts bit-for-bit equality
// between them (no tolerance) on unit, tall and thin, and far-offset rects.

#ifndef KCPQ_GEOMETRY_METRICS_REFERENCE_H_
#define KCPQ_GEOMETRY_METRICS_REFERENCE_H_

#include "geometry/rect.h"

namespace kcpq {

/// MAXMAXDIST via enumeration of all corner pairs (2^kDims x 2^kDims).
double MaxMaxDistSquaredReference(const Rect& a, const Rect& b);

/// MINMAXDIST via enumeration of all face pairs; each face-pair MAXDIST is
/// maximized over the corners of the two faces (exact for axis-aligned
/// faces since squared distance is convex per dimension).
double MinMaxDistSquaredReference(const Rect& a, const Rect& b);

/// MINMINDIST via projection of the clamped coordinates (reference form that
/// minimizes over one box explicitly).
double MinMinDistSquaredReference(const Rect& a, const Rect& b);

}  // namespace kcpq

#endif  // KCPQ_GEOMETRY_METRICS_REFERENCE_H_
