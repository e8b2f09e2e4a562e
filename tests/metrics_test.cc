// Property tests for the Section 2.3 MBR metrics under L2: hand-computed
// cases, bit-for-bit equality with the brute-force face/corner reference
// implementations (and, for the per-axis MINMINDIST gap, under L1 and Linf
// too), and the paper's Inequalities 1 and 2 on sampled point sets. A
// point is the degenerate rect Rect::FromPoint(p).

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "geometry/metrics.h"
#include "geometry/metrics_reference.h"
#include "geometry/minkowski.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace kcpq {
namespace {

using testing::RandomPointIn;
using testing::RandomRect;

Point P(double x, double y) { return Point{{x, y}}; }

Rect R(double lx, double ly, double hx, double hy) {
  Rect r;
  r.lo[0] = lx;
  r.lo[1] = ly;
  r.hi[0] = hx;
  r.hi[1] = hy;
  return r;
}

/// The one MINMAXDIST, in squared Euclidean space.
double MinMaxDistL2(const Rect& a, const Rect& b) {
  return MinMaxDistPow(a, b, Metric::kL2);
}

/// A rect in one of three shapes: the unit square's RandomRect; tall and
/// thin (aspect ratio up to 1e12, either axis long); or a unit-scale rect
/// offset to |x| ~ 1e15, where one ulp is 0.125.
Rect ShapedRect(Xoshiro256pp& rng, int shape) {
  switch (shape) {
    case 0:
      return RandomRect(rng);
    case 1: {
      const int thin = static_cast<int>(rng.NextBounded(2));
      Rect r;
      r.lo[thin] = 1e-2 * rng.NextDouble();
      r.hi[thin] = r.lo[thin] + 1e-4 * (1.0 + 9.0 * rng.NextDouble());
      r.lo[1 - thin] = 1e8 * rng.NextDouble();
      r.hi[1 - thin] = r.lo[1 - thin] + 1e8 * rng.NextDouble();
      return r;
    }
    default: {
      const double shift = rng.NextBounded(2) == 0 ? 1e15 : -1e15;
      Rect r = RandomRect(rng);
      for (int d = 0; d < kDims; ++d) {
        r.lo[d] = r.lo[d] * 64.0 + shift;
        r.hi[d] = r.hi[d] * 64.0 + shift;
      }
      return r;
    }
  }
}

TEST(MetricsTest, MinMinDistDisjointRects) {
  // Separated along x only: gap 1.
  EXPECT_DOUBLE_EQ(MinMinDistSquared(R(0, 0, 1, 1), R(2, 0, 3, 1)), 1.0);
  // Diagonal separation: gap (1, 2).
  EXPECT_DOUBLE_EQ(MinMinDistSquared(R(0, 0, 1, 1), R(2, 3, 4, 5)), 5.0);
}

TEST(MetricsTest, MinMinDistZeroWhenIntersecting) {
  EXPECT_DOUBLE_EQ(MinMinDistSquared(R(0, 0, 2, 2), R(1, 1, 3, 3)), 0.0);
  EXPECT_DOUBLE_EQ(MinMinDistSquared(R(0, 0, 2, 2), R(2, 2, 3, 3)), 0.0);
  EXPECT_DOUBLE_EQ(MinMinDistSquared(R(0, 0, 2, 2), R(0.5, 0.5, 1, 1)), 0.0);
}

TEST(MetricsTest, MaxMaxDistHandComputed) {
  // Unit squares at (0,0) and (2,0): farthest corners (0,0)-(3,1).
  EXPECT_DOUBLE_EQ(MaxMaxDistSquared(R(0, 0, 1, 1), R(2, 0, 3, 1)), 10.0);
  // A rect with itself: the diagonal.
  EXPECT_DOUBLE_EQ(MaxMaxDistSquared(R(0, 0, 1, 2), R(0, 0, 1, 2)), 5.0);
}

TEST(MetricsTest, MinMaxDistHandComputedAlignedSquares) {
  // Two unit squares side by side with a gap of 1 along x, same y-extent.
  // Best face pair: A's right edge (x=1) vs B's left edge (x=2);
  // MAXDIST over those parallel edges: dx=1, dy worst-case 1 -> 2.
  EXPECT_DOUBLE_EQ(MinMaxDistL2(R(0, 0, 1, 1), R(2, 0, 3, 1)), 2.0);
}

Rect Pt(double x, double y) { return Rect::FromPoint(P(x, y)); }

TEST(MetricsTest, MinMaxDistTallThinDoesNotCancel) {
  // Bottom face against bottom face: dy = 0, dx at most 3e-3. A form that
  // subtracts from the sum of squared extents (~1e16) cancels this to 0.
  EXPECT_DOUBLE_EQ(MinMaxDistL2(R(0, 0, 1e-3, 1e8), R(2e-3, 0, 3e-3, 1e8)),
                   9e-6);
}

TEST(MetricsTest, PointRectMinDist) {
  const Rect r = R(1, 1, 3, 3);
  EXPECT_DOUBLE_EQ(MinMinDistSquared(Pt(2, 2), r), 0.0);  // inside
  EXPECT_DOUBLE_EQ(MinMinDistSquared(Pt(0, 2), r), 1.0);  // left of
  EXPECT_DOUBLE_EQ(MinMinDistSquared(Pt(0, 0), r), 2.0);  // diagonal corner
  EXPECT_DOUBLE_EQ(MinMinDistSquared(Pt(1, 1), r), 0.0);  // on boundary
}

TEST(MetricsTest, PointRectMaxDist) {
  const Rect r = R(0, 0, 2, 2);
  EXPECT_DOUBLE_EQ(MaxMaxDistSquared(Pt(0, 0), r), 8.0);
  EXPECT_DOUBLE_EQ(MaxMaxDistSquared(Pt(1, 1), r), 2.0);  // center -> corner
  EXPECT_DOUBLE_EQ(MaxMaxDistSquared(Pt(3, 1), r), 10.0);
}

TEST(MetricsTest, PointRectMinMaxDistRoussopoulos) {
  // Classic example: query left of a square. Nearest face in x is the left
  // edge; the other dim takes the farther coordinate.
  const Rect r = R(1, 0, 2, 2);
  // k = x: (1-0)^2 + max(|0-0|,|0-2|)^2 = 1 + 4 = 5
  // k = y: (0-0)^2 + max(|0-1|,|0-2|)^2 = 0 + 4 = 4  -> min = 4
  EXPECT_DOUBLE_EQ(MinMaxDistL2(Pt(0, 0), r), 4.0);
}

// ---------------------------------------------------------------------------
// Property sweeps: closed forms vs brute-force references on random rects.
// ---------------------------------------------------------------------------

class MetricsPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MetricsPropertyTest, ClosedFormsMatchReferences) {
  // Both sides combine the same per-axis differences in axis order, so
  // they agree bit for bit, on tall, thin and far-offset rects too.
  Xoshiro256pp rng(GetParam());
  for (int shape = 0; shape < 3; ++shape) {
    for (int i = 0; i < 500; ++i) {
      const Rect a = ShapedRect(rng, shape);
      const Rect b = ShapedRect(rng, shape);
      EXPECT_EQ(MinMinDistSquared(a, b), MinMinDistSquaredReference(a, b));
      EXPECT_EQ(MaxMaxDistSquared(a, b), MaxMaxDistSquaredReference(a, b));
      EXPECT_EQ(MinMaxDistL2(a, b), MinMaxDistSquaredReference(a, b));
    }
  }
  // Touching, nested and overlapping intervals, +-0.0 coordinates,
  // one-ulp gaps and degenerate rects: every MINMINDIST gap is the
  // reference's clamp form bit for bit under L1, L2 and Linf, and +0.0
  // wherever the intervals meet.
  for (int i = 0; i < 2000; ++i) {
    const auto [a, b] = testing::GapEdgeCasePair(rng);
    for (const Metric metric : {Metric::kL1, Metric::kL2, Metric::kLinf}) {
      testing::ExpectMinMinBitExact(a, b, metric);
    }
    EXPECT_TRUE(testing::SameBits(MinMinDistSquared(a, b),
                                  MinMinDistSquaredReference(a, b)));
    EXPECT_EQ(MaxMaxDistSquared(a, b), MaxMaxDistSquaredReference(a, b));
    EXPECT_EQ(MinMaxDistL2(a, b), MinMaxDistSquaredReference(a, b));
  }
}

TEST_P(MetricsPropertyTest, MetricOrderingHolds) {
  // MINMINDIST <= MINMAXDIST <= MAXMAXDIST for every pair of rects, exactly.
  Xoshiro256pp rng(GetParam() ^ 0xabcdef);
  for (int shape = 0; shape < 3; ++shape) {
    for (int i = 0; i < 500; ++i) {
      const Rect a = ShapedRect(rng, shape);
      const Rect b = ShapedRect(rng, shape);
      const double minmin = MinMinDistSquared(a, b);
      const double minmax = MinMaxDistL2(a, b);
      const double maxmax = MaxMaxDistSquared(a, b);
      EXPECT_LE(minmin, minmax);
      EXPECT_LE(minmax, maxmax);
    }
  }
}

TEST_P(MetricsPropertyTest, Symmetry) {
  Xoshiro256pp rng(GetParam() ^ 0x123456);
  for (int shape = 0; shape < 3; ++shape) {
    for (int i = 0; i < 300; ++i) {
      const Rect a = ShapedRect(rng, shape);
      const Rect b = ShapedRect(rng, shape);
      EXPECT_EQ(MinMinDistSquared(a, b), MinMinDistSquared(b, a));
      EXPECT_EQ(MaxMaxDistSquared(a, b), MaxMaxDistSquared(b, a));
      EXPECT_EQ(MinMaxDistL2(a, b), MinMaxDistL2(b, a));
    }
  }
}

TEST_P(MetricsPropertyTest, Inequality1OnSampledPoints) {
  // For any points inside the rects: MINMIN <= dist^2 <= MAXMAX.
  Xoshiro256pp rng(GetParam() ^ 0x777);
  for (int i = 0; i < 100; ++i) {
    const Rect a = RandomRect(rng);
    const Rect b = RandomRect(rng);
    const double minmin = MinMinDistSquared(a, b);
    const double maxmax = MaxMaxDistSquared(a, b);
    for (int j = 0; j < 30; ++j) {
      const Point pa = RandomPointIn(rng, a);
      const Point pb = RandomPointIn(rng, b);
      const double d2 = SquaredDistance(pa, pb);
      ASSERT_GE(d2, minmin - 1e-12);
      ASSERT_LE(d2, maxmax + 1e-12);
    }
  }
}

TEST_P(MetricsPropertyTest, Inequality2OnMinimalMbrs) {
  // Build *minimum* bounding rectangles from sampled point sets (so at
  // least one point touches each face) and check that some pair of points
  // is within MINMAXDIST.
  Xoshiro256pp rng(GetParam() ^ 0xbeef);
  for (int i = 0; i < 100; ++i) {
    const Rect wa = RandomRect(rng);
    const Rect wb = RandomRect(rng);
    std::vector<Point> pas, pbs;
    Rect a = Rect::Empty(), b = Rect::Empty();
    for (int j = 0; j < 12; ++j) {
      pas.push_back(RandomPointIn(rng, wa));
      a.Expand(pas.back());
      pbs.push_back(RandomPointIn(rng, wb));
      b.Expand(pbs.back());
    }
    // Snap extreme points onto the MBR faces: already true by construction
    // (the MBR is computed from the points), so Inequality 2 must hold.
    const double minmax = MinMaxDistL2(a, b);
    double best = std::numeric_limits<double>::infinity();
    for (const Point& pa : pas) {
      for (const Point& pb : pbs) {
        best = std::min(best, SquaredDistance(pa, pb));
      }
    }
    ASSERT_LE(best, minmax + 1e-12);
  }
}

TEST_P(MetricsPropertyTest, PointMetricsAgreeWithDegenerateRects) {
  // The engines pass a point to the rect metrics as Rect::FromPoint(p). On
  // two such rects all three metrics equal the point distance exactly (this
  // equivalence is what lets the join algorithms treat points and MBRs
  // uniformly), and on a point and a rect they match the references.
  Xoshiro256pp rng(GetParam() ^ 0x5555);
  for (int i = 0; i < 300; ++i) {
    const Rect r = RandomRect(rng);
    const Point p = P(rng.NextDouble(), rng.NextDouble());
    const Point q = P(rng.NextDouble(), rng.NextDouble());
    const Rect pr = Rect::FromPoint(p);
    const Rect qr = Rect::FromPoint(q);
    EXPECT_EQ(MinMinDistSquared(pr, qr), SquaredDistance(p, q));
    EXPECT_EQ(MinMaxDistL2(pr, qr), SquaredDistance(p, q));
    EXPECT_EQ(MaxMaxDistSquared(pr, qr), SquaredDistance(p, q));
    EXPECT_EQ(MinMinDistSquared(pr, r), MinMinDistSquaredReference(pr, r));
    EXPECT_EQ(MinMaxDistL2(pr, r), MinMaxDistSquaredReference(pr, r));
    EXPECT_EQ(MaxMaxDistSquared(pr, r), MaxMaxDistSquaredReference(pr, r));
  }
}

TEST_P(MetricsPropertyTest, PointMinMaxDistBoundsSampledMinimalSets) {
  // Roussopoulos MINMAXDIST, as MINMAXDIST with a degenerate first rect:
  // some point of a minimal MBR's point set lies within it.
  Xoshiro256pp rng(GetParam() ^ 0x9999);
  for (int i = 0; i < 100; ++i) {
    const Rect w = RandomRect(rng);
    std::vector<Point> pts;
    Rect mbr = Rect::Empty();
    for (int j = 0; j < 10; ++j) {
      pts.push_back(RandomPointIn(rng, w));
      mbr.Expand(pts.back());
    }
    const Point q = P(rng.NextDouble() * 3 - 1, rng.NextDouble() * 3 - 1);
    const double minmax = MinMaxDistL2(Rect::FromPoint(q), mbr);
    double best = std::numeric_limits<double>::infinity();
    for (const Point& p : pts) best = std::min(best, SquaredDistance(q, p));
    ASSERT_LE(best, minmax + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetricsPropertyTest,
                         ::testing::Values(1, 2, 3, 42, 1234, 99999));

TEST(MetricsTest, DegenerateRectPairs) {
  // Both degenerate: all three metrics collapse to the point distance.
  const Rect a = Rect::FromPoint(P(0, 0));
  const Rect b = Rect::FromPoint(P(3, 4));
  EXPECT_DOUBLE_EQ(MinMinDistSquared(a, b), 25.0);
  EXPECT_DOUBLE_EQ(MinMaxDistL2(a, b), 25.0);
  EXPECT_DOUBLE_EQ(MaxMaxDistSquared(a, b), 25.0);
}

TEST(MetricsTest, IdenticalRects) {
  const Rect a = R(0, 0, 2, 1);
  EXPECT_DOUBLE_EQ(MinMinDistSquared(a, a), 0.0);
  // MAXMAX: the diagonal, twice over: corners (0,0)-(2,1).
  EXPECT_DOUBLE_EQ(MaxMaxDistSquared(a, a), 5.0);
  // MINMAX <= MAXMAX and >= 0.
  const double mm = MinMaxDistL2(a, a);
  EXPECT_GE(mm, 0.0);
  EXPECT_LE(mm, 5.0);
}

}  // namespace
}  // namespace kcpq
