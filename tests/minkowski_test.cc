// Tests for the Minkowski-metric generalization: L1/Linf MBR metric
// properties (mirroring metrics_test.cc) and K-CPQ correctness under
// non-Euclidean metrics.

#include <algorithm>
#include <cmath>
#include <limits>

#include "cpq/brute.h"
#include "cpq/cpq.h"
#include "geometry/minkowski.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace kcpq {
namespace {

using testing::MakeUniformItems;
using testing::RandomPointIn;
using testing::RandomRect;
using testing::TreeFixture;

Point P(double x, double y) { return Point{{x, y}}; }

TEST(MinkowskiPointTest, PointDistancePowSpecialCases) {
  const Point a = P(0, 0), b = P(3, -4);
  EXPECT_DOUBLE_EQ(PointDistancePow(a, b, Metric::kL1), 7.0);
  EXPECT_DOUBLE_EQ(PointDistancePow(a, b, Metric::kL2), 25.0);
  EXPECT_DOUBLE_EQ(PointDistancePow(a, b, Metric::kLinf), 4.0);
}

TEST(MinkowskiPointTest, PowConversionRoundTrip) {
  for (const Metric metric : {Metric::kL1, Metric::kL2, Metric::kLinf}) {
    for (const double d : {0.0, 0.5, 1.0, 42.0}) {
      EXPECT_NEAR(PowToDistance(DistanceToPow(d, metric), metric), d, 1e-12);
    }
  }
}

TEST(MinkowskiPointTest, PowAgreesWithTrueMinkowskiDistance) {
  Xoshiro256pp rng(1);
  for (int i = 0; i < 200; ++i) {
    const Point a = P(rng.NextDouble(), rng.NextDouble());
    const Point b = P(rng.NextDouble(), rng.NextDouble());
    EXPECT_NEAR(PowToDistance(PointDistancePow(a, b, Metric::kL1), Metric::kL1),
                MinkowskiDistance(a, b, 1.0), 1e-12);
    EXPECT_NEAR(PowToDistance(PointDistancePow(a, b, Metric::kL2), Metric::kL2),
                MinkowskiDistance(a, b, 2.0), 1e-12);
    EXPECT_NEAR(
        PowToDistance(PointDistancePow(a, b, Metric::kLinf), Metric::kLinf),
        MinkowskiDistanceInf(a, b), 1e-12);
  }
}

TEST(MinkowskiMetricsTest, L2DelegatesToSquaredForms) {
  Xoshiro256pp rng(2);
  for (int i = 0; i < 100; ++i) {
    const Rect a = RandomRect(rng), b = RandomRect(rng);
    EXPECT_DOUBLE_EQ(MinMinDistPow(a, b, Metric::kL2), MinMinDistSquared(a, b));
    EXPECT_DOUBLE_EQ(MaxMaxDistPow(a, b, Metric::kL2), MaxMaxDistSquared(a, b));
  }
}

class MinkowskiMetricPropertyTest : public ::testing::TestWithParam<Metric> {};

TEST_P(MinkowskiMetricPropertyTest, OrderingHolds) {
  const Metric metric = GetParam();
  Xoshiro256pp rng(3);
  for (int i = 0; i < 300; ++i) {
    const Rect a = RandomRect(rng), b = RandomRect(rng);
    const double minmin = MinMinDistPow(a, b, metric);
    const double minmax = MinMaxDistPow(a, b, metric);
    const double maxmax = MaxMaxDistPow(a, b, metric);
    ASSERT_LE(minmin, minmax);
    ASSERT_LE(minmax, maxmax);
  }
}

TEST_P(MinkowskiMetricPropertyTest, Inequality1OnSampledPoints) {
  const Metric metric = GetParam();
  Xoshiro256pp rng(4);
  for (int i = 0; i < 100; ++i) {
    const Rect a = RandomRect(rng), b = RandomRect(rng);
    const double minmin = MinMinDistPow(a, b, metric);
    const double maxmax = MaxMaxDistPow(a, b, metric);
    for (int j = 0; j < 20; ++j) {
      const double d = PointDistancePow(RandomPointIn(rng, a),
                                        RandomPointIn(rng, b), metric);
      ASSERT_GE(d, minmin - 1e-12);
      ASSERT_LE(d, maxmax + 1e-12);
    }
  }
}

TEST_P(MinkowskiMetricPropertyTest, Inequality2OnMinimalMbrs) {
  const Metric metric = GetParam();
  Xoshiro256pp rng(5);
  for (int i = 0; i < 100; ++i) {
    const Rect wa = RandomRect(rng), wb = RandomRect(rng);
    std::vector<Point> pas, pbs;
    Rect a = Rect::Empty(), b = Rect::Empty();
    for (int j = 0; j < 10; ++j) {
      pas.push_back(RandomPointIn(rng, wa));
      a.Expand(pas.back());
      pbs.push_back(RandomPointIn(rng, wb));
      b.Expand(pbs.back());
    }
    const double minmax = MinMaxDistPow(a, b, metric);
    double best = std::numeric_limits<double>::infinity();
    for (const Point& pa : pas) {
      for (const Point& pb : pbs) {
        best = std::min(best, PointDistancePow(pa, pb, metric));
      }
    }
    ASSERT_LE(best, minmax + 1e-12);
  }
}

TEST_P(MinkowskiMetricPropertyTest, DegenerateRectsCollapseToPointDistance) {
  const Metric metric = GetParam();
  Xoshiro256pp rng(6);
  for (int i = 0; i < 100; ++i) {
    const Point p = P(rng.NextDouble(), rng.NextDouble());
    const Point q = P(rng.NextDouble(), rng.NextDouble());
    const Rect rp = Rect::FromPoint(p), rq = Rect::FromPoint(q);
    const double d = PointDistancePow(p, q, metric);
    EXPECT_NEAR(MinMinDistPow(rp, rq, metric), d, 1e-12);
    EXPECT_NEAR(MinMaxDistPow(rp, rq, metric), d, 1e-12);
    EXPECT_NEAR(MaxMaxDistPow(rp, rq, metric), d, 1e-12);
  }
}

// The chain the K-CPQ pruning rules rely on (CpqEngine::SweepCandidates
// and TightenBoundFromCandidates): for every rect pair and every axis,
// AxisGapPow(gap) <= MINMINDIST <= MINMAXDIST <= MAXMAXDIST holds exactly
// in floating point, with no tolerance, and MINMAXDIST is symmetric bit for
// bit.
TEST_P(MinkowskiMetricPropertyTest, MaxMaxNeverBelowMinMinExactly) {
  const Metric metric = GetParam();
  const auto expect_ordered = [metric](const Rect& a, const Rect& b) {
    const double minmin = MinMinDistPow(a, b, metric);
    const double minmax = MinMaxDistPow(a, b, metric);
    const double maxmax = MaxMaxDistPow(a, b, metric);
    for (int d = 0; d < kDims; ++d) {
      const double gap = std::max(b.lo[d] - a.hi[d], a.lo[d] - b.hi[d]);
      if (gap > 0.0) {
        ASSERT_LE(AxisGapPow(gap, metric), minmin) << d;
      }
    }
    ASSERT_LE(minmin, minmax);
    ASSERT_LE(minmax, maxmax);
    ASSERT_EQ(minmax, MinMaxDistPow(b, a, metric));
    ASSERT_GE(MaxMaxDistPow(b, a, metric), MinMinDistPow(b, a, metric));
  };
  const auto box = [](double x0, double y0, double x1, double y1) {
    Rect r;
    r.lo[0] = x0;
    r.lo[1] = y0;
    r.hi[0] = x1;
    r.hi[1] = y1;
    return r;
  };
  Xoshiro256pp rng(7);
  for (int i = 0; i < 2000; ++i) {
    // Random: unit-square rects, then the same shapes scaled and shifted
    // over many binades so the subtractions round differently.
    const Rect a = RandomRect(rng), b = RandomRect(rng);
    expect_ordered(a, b);
    const double scale =
        std::ldexp(1.0, static_cast<int>(rng.Next() % 80) - 40);
    const double shift = (rng.NextDouble() - 0.5) * 1e6;
    Rect sa = a, sb = b;
    for (int d = 0; d < kDims; ++d) {
      sa.lo[d] = a.lo[d] * scale + shift;
      sa.hi[d] = a.hi[d] * scale + shift;
      sb.lo[d] = b.lo[d] * scale + shift;
      sb.hi[d] = b.hi[d] * scale + shift;
    }
    expect_ordered(sa, sb);
    // Degenerate: point/point and point/rect.
    const Rect p = Rect::FromPoint(RandomPointIn(rng, a));
    const Rect q = Rect::FromPoint(RandomPointIn(rng, b));
    expect_ordered(p, q);
    expect_ordered(p, b);
    // Nested (a point-shrunk box inside `a`) and identical.
    const Point c = RandomPointIn(rng, a);
    expect_ordered(a, box(a.lo[0], a.lo[1], c.coord[0], c.coord[1]));
    expect_ordered(a, a);
    expect_ordered(p, p);
    // Touching: b shifted to share a's right edge, then a's top corner.
    expect_ordered(a, box(a.hi[0], b.lo[1], a.hi[0] + (b.hi[0] - b.lo[0]),
                          b.hi[1]));
    expect_ordered(a, box(a.hi[0], a.hi[1], a.hi[0] + 0.1, a.hi[1] + 0.3));
    // Tall and thin (aspect ratio up to 1e12), side by side along the thin
    // axis, and the same pair transposed.
    const double w = 1e-4 * (1.0 + 9.0 * rng.NextDouble());
    const double x0 = 1e-2 * rng.NextDouble();
    const double x1 = x0 + w * (1.0 + 4.0 * rng.NextDouble());
    const double y0 = 1e8 * rng.NextDouble();
    const double y1 = 1e8 * rng.NextDouble();
    const double h = 1e8 * (0.5 + 0.5 * rng.NextDouble());
    expect_ordered(box(x0, y0, x0 + w, y0 + h), box(x1, y1, x1 + w, y1 + h));
    expect_ordered(box(y0, x0, y0 + h, x0 + w), box(y1, x1, y1 + h, x1 + w));
  }
  // Fixed awkward values: non-representable decimals, tiny and huge
  // magnitudes, and separations that round.
  const Rect fixed[] = {
      box(0.1, 0.2, 0.3, 0.7),      box(0.7, 0.1, 0.9, 0.3),
      box(1e-300, 0, 2e-300, 1e-300), box(-1e300, -1, 1e300, 1),
      box(1.0 / 3, 2.0 / 3, 1.0 / 3, 2.0 / 3), box(0.3, 0.7, 0.3, 0.7),
      box(1e16, 1e16, 1e16 + 2, 1e16 + 4), box(-0.0, 0.0, 0.0, -0.0),
      box(0, 0, 1e-3, 1e8),         box(2e-3, 0, 3e-3, 1e8)};
  for (const Rect& a : fixed) {
    for (const Rect& b : fixed) {
      expect_ordered(a, b);
      testing::ExpectMinMinBitExact(a, b, metric);
    }
  }
  // Touching, nested and overlapping intervals, +-0.0 coordinates, one-ulp
  // gaps and degenerate rects: the chain holds, and every MINMINDIST gap is
  // exact and +0.0 where the intervals meet.
  for (int i = 0; i < 2000; ++i) {
    const auto [a, b] = testing::GapEdgeCasePair(rng);
    expect_ordered(a, b);
    testing::ExpectMinMinBitExact(a, b, metric);
  }
}

INSTANTIATE_TEST_SUITE_P(Metrics, MinkowskiMetricPropertyTest,
                         ::testing::Values(Metric::kL1, Metric::kL2,
                                           Metric::kLinf),
                         [](const ::testing::TestParamInfo<Metric>& info) {
                           return MetricName(info.param);
                         });

// --- K-CPQ under non-Euclidean metrics -------------------------------------

struct MetricCpqParam {
  Metric metric;
  CpqAlgorithm algorithm;
};

class MetricCpqTest : public ::testing::TestWithParam<MetricCpqParam> {};

TEST_P(MetricCpqTest, MatchesBruteForce) {
  const MetricCpqParam param = GetParam();
  const auto p_items = MakeUniformItems(500, 900);
  const auto q_items = MakeUniformItems(500, 901);
  TreeFixture fp, fq;
  KCPQ_ASSERT_OK(fp.Build(p_items));
  KCPQ_ASSERT_OK(fq.Build(q_items));

  CpqOptions options;
  options.algorithm = param.algorithm;
  options.metric = param.metric;
  options.k = 15;
  auto result = KClosestPairs(fp.tree(), fq.tree(), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto want = BruteForceKClosestPairs(p_items, q_items, 15,
                                            /*self_join=*/false, param.metric);
  ASSERT_EQ(result.value().size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_NEAR(result.value()[i].distance, want[i].distance, 1e-9)
        << "rank " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MetricCpqTest,
    ::testing::Values(
        MetricCpqParam{Metric::kL1, CpqAlgorithm::kExhaustive},
        MetricCpqParam{Metric::kL1, CpqAlgorithm::kSimple},
        MetricCpqParam{Metric::kL1, CpqAlgorithm::kSortedDistances},
        MetricCpqParam{Metric::kL1, CpqAlgorithm::kHeap},
        MetricCpqParam{Metric::kLinf, CpqAlgorithm::kExhaustive},
        MetricCpqParam{Metric::kLinf, CpqAlgorithm::kSimple},
        MetricCpqParam{Metric::kLinf, CpqAlgorithm::kSortedDistances},
        MetricCpqParam{Metric::kLinf, CpqAlgorithm::kHeap}),
    [](const ::testing::TestParamInfo<MetricCpqParam>& info) {
      return std::string(MetricName(info.param.metric)) + "_" +
             CpqAlgorithmName(info.param.algorithm);
    });

TEST(MetricCpqTest, MetricsRankPairsDifferently) {
  // Sanity that the metric genuinely flows through: L1 and Linf must
  // disagree with L2 on at least the reported distances.
  const auto p_items = MakeUniformItems(200, 902);
  const auto q_items = MakeUniformItems(200, 903);
  TreeFixture fp, fq;
  KCPQ_ASSERT_OK(fp.Build(p_items));
  KCPQ_ASSERT_OK(fq.Build(q_items));
  double distance[3];
  int i = 0;
  for (const Metric metric : {Metric::kL1, Metric::kL2, Metric::kLinf}) {
    CpqOptions options;
    options.metric = metric;
    options.k = 1;
    auto result = KClosestPairs(fp.tree(), fq.tree(), options);
    ASSERT_TRUE(result.ok());
    distance[i++] = result.value()[0].distance;
  }
  // L1 >= L2 >= Linf for any fixed pair; the *closest* pairs per metric
  // preserve the ordering of their optima too.
  EXPECT_GE(distance[0], distance[1] - 1e-12);
  EXPECT_GE(distance[1], distance[2] - 1e-12);
}

TEST(MetricKnnTest, KnnMatchesLinearScanPerMetric) {
  const auto items = MakeUniformItems(800, 904);
  TreeFixture fx;
  KCPQ_ASSERT_OK(fx.Build(items));
  Xoshiro256pp rng(905);
  for (const Metric metric : {Metric::kL1, Metric::kL2, Metric::kLinf}) {
    for (int probe = 0; probe < 5; ++probe) {
      const Point q = P(rng.NextDouble(), rng.NextDouble());
      std::vector<Neighbor> nn;
      KCPQ_ASSERT_OK(fx.tree().NearestNeighbors(q, 10, &nn, metric));
      ASSERT_EQ(nn.size(), 10u);
      std::vector<double> brute;
      for (const auto& [pt, id] : items) {
        brute.push_back(
            PowToDistance(PointDistancePow(q, pt, metric), metric));
      }
      std::sort(brute.begin(), brute.end());
      for (size_t i = 0; i < nn.size(); ++i) {
        ASSERT_NEAR(nn[i].distance, brute[i], 1e-9)
            << MetricName(metric) << " rank " << i;
      }
    }
  }
}

}  // namespace
}  // namespace kcpq
