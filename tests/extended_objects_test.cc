// Extended (rectangle) objects: R-tree CRUD and queries, and closest-pair
// queries where the object distance is the distance between the boxes'
// closest points (MINMINDIST), the standard semantics for extended data.

#include <algorithm>
#include <cmath>
#include <limits>

#include "cpq/cpq.h"
#include "cpq/distance_join.h"
#include "geometry/metrics.h"
#include "gtest/gtest.h"
#include "hs/hs.h"
#include "tests/test_util.h"

namespace kcpq {
namespace {

using testing::RandomRect;
using testing::TreeFixture;

Point P(double x, double y) { return Point{{x, y}}; }

std::vector<std::pair<Rect, uint64_t>> MakeRects(size_t n, uint64_t seed,
                                                 double max_side = 0.02) {
  Xoshiro256pp rng(seed);
  std::vector<std::pair<Rect, uint64_t>> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.emplace_back(RandomRect(rng, max_side), i);
  }
  return out;
}

Status BuildRects(TreeFixture* fx,
                  const std::vector<std::pair<Rect, uint64_t>>& rects) {
  for (const auto& [rect, id] : rects) {
    KCPQ_RETURN_IF_ERROR(fx->tree().InsertRect(rect, id));
  }
  return fx->tree().Flush();
}

// Brute-force K closest rect pairs under MINMINDIST semantics.
std::vector<double> BruteForceRectPairDistances(
    const std::vector<std::pair<Rect, uint64_t>>& a,
    const std::vector<std::pair<Rect, uint64_t>>& b, size_t k) {
  std::vector<double> distances;
  distances.reserve(a.size() * b.size());
  for (const auto& [ra, ia] : a) {
    for (const auto& [rb, ib] : b) {
      distances.push_back(std::sqrt(MinMinDistSquared(ra, rb)));
    }
  }
  std::sort(distances.begin(), distances.end());
  distances.resize(std::min(k, distances.size()));
  return distances;
}

TEST(ExtendedObjectsTest, InsertValidateAndFlagPersist) {
  TreeFixture fx;
  const auto rects = MakeRects(500, 1600);
  KCPQ_ASSERT_OK(BuildRects(&fx, rects));
  EXPECT_TRUE(fx.tree().has_extended_objects());
  KCPQ_ASSERT_OK(fx.tree().Validate());
  // The flag survives reopen.
  auto reopened = RStarTree::Open(&fx.buffer(), fx.tree().meta_page());
  ASSERT_TRUE(reopened.ok());
  EXPECT_TRUE(reopened.value()->has_extended_objects());
}

TEST(ExtendedObjectsTest, PointTreeStaysStrict) {
  TreeFixture fx;
  KCPQ_ASSERT_OK(fx.tree().Insert(P(0.1, 0.1), 0));
  EXPECT_FALSE(fx.tree().has_extended_objects());
  // Degenerate rect through InsertRect also keeps the strict point mode.
  KCPQ_ASSERT_OK(fx.tree().InsertRect(Rect::FromPoint(P(0.2, 0.2)), 1));
  EXPECT_FALSE(fx.tree().has_extended_objects());
  KCPQ_ASSERT_OK(fx.tree().Validate());
}

TEST(ExtendedObjectsTest, InvalidRectRejected) {
  TreeFixture fx;
  Rect bad;
  bad.lo[0] = 1.0;
  bad.hi[0] = 0.0;
  EXPECT_EQ(fx.tree().InsertRect(bad, 0).code(),
            StatusCode::kInvalidArgument);
  // Non-finite coordinates are rejected too, for rects and points alike.
  Rect unbounded = Rect::FromPoint(P(0.5, 0.5));
  unbounded.hi[1] = std::numeric_limits<double>::infinity();
  EXPECT_EQ(fx.tree().InsertRect(unbounded, 1).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      fx.tree().Insert(P(std::numeric_limits<double>::quiet_NaN(), 0.5), 2)
          .code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(fx.tree().size(), 0u);
}

// Two rects that are each valid but whose union spans more than DBL_MAX
// once bricked the tree: the first split stored that union as an entry
// rect, which every later read rejected as Corruption. Coordinates beyond
// DBL_MAX/2 are now InvalidArgument up front, with nothing written.
TEST(ExtendedObjectsTest, HugeSpanRectsRejectedBeforeAnyWrite) {
  TreeFixture fx(0, 1024);
  Rect left = Rect::FromPoint(P(0.0, 0.5));
  left.lo[0] = -1e308;
  left.hi[0] = 0.5e308;
  Rect right = Rect::FromPoint(P(0.0, 0.5));
  right.lo[0] = -0.5e308;
  right.hi[0] = 1e308;
  const uint64_t writes_before = fx.storage().stats().writes;
  EXPECT_EQ(fx.tree().InsertRect(left, 0).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(fx.tree().InsertRect(right, 1).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(fx.tree().Insert(P(1e308, 0.5), 2).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(fx.storage().stats().writes, writes_before);
  EXPECT_EQ(fx.tree().size(), 0u);

  // The tree stays usable: the 21st insert of the original repro failed.
  const auto items = testing::MakeUniformItems(20, 2301);
  KCPQ_ASSERT_OK(fx.Build(items));
  KCPQ_ASSERT_OK(fx.tree().Validate());
  std::vector<Entry> hits;
  KCPQ_ASSERT_OK(fx.tree().RangeQuery(UnitWorkspace(), &hits));
  EXPECT_EQ(hits.size(), items.size());
}

// The largest accepted coordinates (magnitude DBL_MAX/2, so a union spans
// DBL_MAX exactly) still build a tree, through splits on small pages, that
// decodes and validates; one ulp more is rejected.
TEST(ExtendedObjectsTest, LargestAcceptedCoordinatesBuildValidTree) {
  const double max = RStarTree::kMaxCoordinate;
  TreeFixture fx(0, 1024);
  Rect full;
  full.lo[0] = full.lo[1] = -max;
  full.hi[0] = full.hi[1] = max;
  KCPQ_ASSERT_OK(fx.tree().InsertRect(full, 0));
  const int n = 300;
  for (int i = 0; i < n; ++i) {
    const double t = 2.0 * i / (n - 1) - 1.0;  // [-1, 1]
    KCPQ_ASSERT_OK(fx.tree().Insert(P(max * t, -max * t), 1 + i));
  }
  KCPQ_ASSERT_OK(fx.tree().Flush());
  EXPECT_GT(fx.tree().height(), 1);
  KCPQ_ASSERT_OK(fx.tree().Validate());
  std::vector<Entry> hits;
  KCPQ_ASSERT_OK(fx.tree().RangeQuery(full, &hits));
  EXPECT_EQ(hits.size(), static_cast<size_t>(n) + 1);

  const double over = std::nextafter(max, std::numeric_limits<double>::max());
  EXPECT_EQ(fx.tree().Insert(P(over, 0.0), 9999).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(fx.tree().Insert(P(0.0, -over), 9999).code(),
            StatusCode::kInvalidArgument);
}

TEST(ExtendedObjectsTest, RangeQueryReturnsIntersectingRects) {
  TreeFixture fx;
  const auto rects = MakeRects(800, 1601, 0.05);
  KCPQ_ASSERT_OK(BuildRects(&fx, rects));
  Xoshiro256pp rng(1602);
  for (int probe = 0; probe < 10; ++probe) {
    const Rect window = RandomRect(rng, 0.3);
    std::vector<Entry> hits;
    KCPQ_ASSERT_OK(fx.tree().RangeQuery(window, &hits));
    size_t expected = 0;
    for (const auto& [rect, id] : rects) {
      if (window.Intersects(rect)) ++expected;
    }
    ASSERT_EQ(hits.size(), expected);
  }
}

TEST(ExtendedObjectsTest, KnnUsesRectMinDist) {
  TreeFixture fx;
  // A big box near the query beats a far point even though the box's
  // corner representative is far away.
  Rect big;
  big.lo[0] = 0.4;
  big.lo[1] = 0.4;
  big.hi[0] = 0.9;
  big.hi[1] = 0.9;
  KCPQ_ASSERT_OK(fx.tree().InsertRect(big, 1));
  KCPQ_ASSERT_OK(fx.tree().Insert(P(0.2, 0.5), 2));
  std::vector<Neighbor> nn;
  KCPQ_ASSERT_OK(fx.tree().NearestNeighbors(P(0.45, 0.45), 2, &nn));
  ASSERT_EQ(nn.size(), 2u);
  EXPECT_EQ(nn[0].entry.id, 1u);           // inside the box: distance 0
  EXPECT_DOUBLE_EQ(nn[0].distance, 0.0);
  EXPECT_EQ(nn[1].entry.id, 2u);
}

TEST(ExtendedObjectsTest, EraseRectWorks) {
  TreeFixture fx;
  const auto rects = MakeRects(300, 1603);
  KCPQ_ASSERT_OK(BuildRects(&fx, rects));
  for (size_t i = 0; i < rects.size(); i += 3) {
    auto erased = fx.tree().EraseRect(rects[i].first, rects[i].second);
    ASSERT_TRUE(erased.ok());
    ASSERT_TRUE(erased.value()) << i;
  }
  KCPQ_ASSERT_OK(fx.tree().Validate());
  EXPECT_EQ(fx.tree().size(), 200u);
}

class ExtendedCpqTest : public ::testing::TestWithParam<CpqAlgorithm> {};

TEST_P(ExtendedCpqTest, KcpqOverRectsMatchesBruteForce) {
  const auto a = MakeRects(400, 1604);
  const auto b = MakeRects(400, 1605);
  TreeFixture fa, fb;
  KCPQ_ASSERT_OK(BuildRects(&fa, a));
  KCPQ_ASSERT_OK(BuildRects(&fb, b));
  CpqOptions options;
  options.algorithm = GetParam();
  options.k = 10;
  auto result = KClosestPairs(fa.tree(), fb.tree(), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto want = BruteForceRectPairDistances(a, b, 10);
  ASSERT_EQ(result.value().size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_NEAR(result.value()[i].distance, want[i], 1e-9) << "rank " << i;
    // The reported witness points realize the distance and lie in the
    // respective rects.
    const PairResult& pr = result.value()[i];
    ASSERT_NEAR(Distance(pr.p, pr.q), pr.distance, 1e-9);
    ASSERT_TRUE(a[pr.p_id].first.Contains(pr.p));
    ASSERT_TRUE(b[pr.q_id].first.Contains(pr.q));
  }
}

INSTANTIATE_TEST_SUITE_P(Algorithms, ExtendedCpqTest,
                         ::testing::Values(CpqAlgorithm::kExhaustive,
                                           CpqAlgorithm::kSimple,
                                           CpqAlgorithm::kSortedDistances,
                                           CpqAlgorithm::kHeap),
                         [](const auto& info) {
                           return CpqAlgorithmName(info.param);
                         });

TEST(ExtendedObjectsTest, OverlappingRectsGiveZeroDistancePairs) {
  TreeFixture fa, fb;
  Rect r1, r2;
  r1.lo[0] = 0.1;
  r1.lo[1] = 0.1;
  r1.hi[0] = 0.5;
  r1.hi[1] = 0.5;
  r2.lo[0] = 0.4;
  r2.lo[1] = 0.4;
  r2.hi[0] = 0.8;
  r2.hi[1] = 0.8;
  KCPQ_ASSERT_OK(fa.tree().InsertRect(r1, 1));
  KCPQ_ASSERT_OK(fb.tree().InsertRect(r2, 2));
  auto result = KClosestPairs(fa.tree(), fb.tree());
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().size(), 1u);
  EXPECT_DOUBLE_EQ(result.value()[0].distance, 0.0);
  // The witness point lies in the intersection of the two boxes.
  EXPECT_TRUE(r1.Contains(result.value()[0].p));
  EXPECT_TRUE(r2.Contains(result.value()[0].q));
}

TEST(ExtendedObjectsTest, DistanceJoinOverRects) {
  const auto a = MakeRects(300, 1606);
  const auto b = MakeRects(300, 1607);
  TreeFixture fa, fb;
  KCPQ_ASSERT_OK(BuildRects(&fa, a));
  KCPQ_ASSERT_OK(BuildRects(&fb, b));
  auto result = DistanceRangeJoin(fa.tree(), fb.tree(), 0.01);
  ASSERT_TRUE(result.ok());
  size_t expected = 0;
  for (const auto& [ra, ia] : a) {
    for (const auto& [rb, ib] : b) {
      if (MinMinDistSquared(ra, rb) <= 0.01 * 0.01) ++expected;
    }
  }
  EXPECT_EQ(result.value().size(), expected);
}

TEST(ExtendedObjectsTest, HsJoinOverRects) {
  const auto a = MakeRects(200, 1608);
  const auto b = MakeRects(200, 1609);
  TreeFixture fa, fb;
  KCPQ_ASSERT_OK(BuildRects(&fa, a));
  KCPQ_ASSERT_OK(BuildRects(&fb, b));
  auto result = HsKClosestPairs(fa.tree(), fb.tree(), 15);
  ASSERT_TRUE(result.ok());
  const auto want = BruteForceRectPairDistances(a, b, 15);
  ASSERT_EQ(result.value().size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_NEAR(result.value()[i].distance, want[i], 1e-9) << "rank " << i;
  }
}

TEST(ExtendedObjectsTest, MixedPointAndRectTrees) {
  // One tree of points against one tree of boxes.
  TreeFixture fpoints, frects;
  const auto items = testing::MakeUniformItems(300, 1610);
  KCPQ_ASSERT_OK(fpoints.Build(items));
  const auto rects = MakeRects(300, 1611);
  KCPQ_ASSERT_OK(BuildRects(&frects, rects));
  CpqOptions options;
  options.k = 5;
  auto result = KClosestPairs(fpoints.tree(), frects.tree(), options);
  ASSERT_TRUE(result.ok());
  // Brute force: point-to-rect MINDIST.
  std::vector<double> want;
  for (const auto& [p, id] : items) {
    for (const auto& [r, rid] : rects) {
      want.push_back(std::sqrt(MinMinDistSquared(Rect::FromPoint(p), r)));
    }
  }
  std::sort(want.begin(), want.end());
  for (size_t i = 0; i < 5; ++i) {
    ASSERT_NEAR(result.value()[i].distance, want[i], 1e-9);
  }
}

}  // namespace
}  // namespace kcpq
