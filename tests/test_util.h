// Shared helpers for the kcpq test suite.

#ifndef KCPQ_TESTS_TEST_UTIL_H_
#define KCPQ_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "buffer/buffer_manager.h"
#include "common/random.h"
#include "datagen/datagen.h"
#include "geometry/minkowski.h"
#include "geometry/point.h"
#include "gtest/gtest.h"
#include "rtree/rtree.h"
#include "storage/memory_storage.h"

namespace kcpq {
namespace testing {

#define KCPQ_ASSERT_OK(expr)                                 \
  do {                                                       \
    const ::kcpq::Status kcpq_test_status = (expr);          \
    ASSERT_TRUE(kcpq_test_status.ok()) << kcpq_test_status.ToString(); \
  } while (false)

#define KCPQ_EXPECT_OK(expr)                                 \
  do {                                                       \
    const ::kcpq::Status kcpq_test_status = (expr);          \
    EXPECT_TRUE(kcpq_test_status.ok()) << kcpq_test_status.ToString(); \
  } while (false)

/// Owns the full storage/buffer/tree stack for one in-memory R*-tree.
class TreeFixture {
 public:
  explicit TreeFixture(size_t buffer_pages = 0,
                       size_t page_size = kDefaultPageSize,
                       RTreeOptions options = RTreeOptions())
      : storage_(page_size), buffer_(&storage_, buffer_pages) {
    auto created = RStarTree::Create(&buffer_, options);
    KCPQ_CHECK_OK(created.status());
    tree_ = std::move(created).value();
  }

  /// Inserts all `items` one by one (the paper's construction method).
  Status Build(const std::vector<std::pair<Point, uint64_t>>& items) {
    for (const auto& [p, id] : items) {
      KCPQ_RETURN_IF_ERROR(tree_->Insert(p, id));
    }
    return tree_->Flush();
  }

  RStarTree& tree() { return *tree_; }
  BufferManager& buffer() { return buffer_; }
  MemoryStorageManager& storage() { return storage_; }

 private:
  MemoryStorageManager storage_;
  BufferManager buffer_;
  std::unique_ptr<RStarTree> tree_;
};

/// `n` uniform points in the unit workspace, tagged with ids 0..n-1.
inline std::vector<std::pair<Point, uint64_t>> MakeUniformItems(
    size_t n, uint64_t seed, const Rect& workspace = UnitWorkspace()) {
  const std::vector<Point> points = GenerateUniform(n, workspace, seed);
  std::vector<std::pair<Point, uint64_t>> items;
  items.reserve(n);
  for (size_t i = 0; i < n; ++i) items.emplace_back(points[i], i);
  return items;
}

/// Clustered variant of the above.
inline std::vector<std::pair<Point, uint64_t>> MakeClusteredItems(
    size_t n, uint64_t seed, const Rect& workspace = UnitWorkspace()) {
  const std::vector<Point> points = GenerateSequoiaLike(n, workspace, seed);
  std::vector<std::pair<Point, uint64_t>> items;
  items.reserve(n);
  for (size_t i = 0; i < n; ++i) items.emplace_back(points[i], i);
  return items;
}

/// Tall, thin point sets: P has x in [0, 1e-3], Q the same y values with x
/// in [2e-3, 3e-3], y spread over [0, 1e8]. Their upper nodes are up to 1e11
/// times taller than wide, so per-axis squared extents differ by ~1e22.
/// P's ids are 0..n-1, Q's n..2n-1.
inline std::pair<std::vector<std::pair<Point, uint64_t>>,
                 std::vector<std::pair<Point, uint64_t>>>
MakeTallThinItems(size_t n, uint64_t seed) {
  Xoshiro256pp rng(seed);
  std::vector<std::pair<Point, uint64_t>> p, q;
  for (size_t i = 0; i < n; ++i) {
    const double y = 1e8 * rng.NextDouble();
    p.emplace_back(Point{{1e-3 * rng.NextDouble(), y}}, i);
    q.emplace_back(Point{{2e-3 + 1e-3 * rng.NextDouble(), y}}, n + i);
  }
  return {p, q};
}

/// Random rectangle inside the unit square (lo <= hi per dimension).
inline Rect RandomRect(Xoshiro256pp& rng, double max_side = 1.0) {
  Rect r;
  for (int d = 0; d < kDims; ++d) {
    const double a = rng.NextDouble();
    const double side = rng.NextDouble() * max_side;
    r.lo[d] = a;
    r.hi[d] = a + side;
  }
  return r;
}

/// Random point inside `r`.
inline Point RandomPointIn(Xoshiro256pp& rng, const Rect& r) {
  Point p;
  for (int d = 0; d < kDims; ++d) {
    p.coord[d] = rng.NextDouble(r.lo[d], r.hi[d]);
  }
  return p;
}

/// A rect pair whose intervals on each axis, independently, touch
/// (a.hi == b.lo), nest, overlap, meet at +0.0 and -0.0, lie one ulp apart,
/// are degenerate (equal, or one ulp apart), or are plainly apart; the two
/// rects are swapped at random. These are the inputs where a MINMINDIST
/// gap's sign and rounding show: a gap is either an exact difference or
/// +0.0.
inline std::pair<Rect, Rect> GapEdgeCasePair(Xoshiro256pp& rng) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  static constexpr double kBases[] = {0.0, -0.0, 1e-300, 0.1, -1.0 / 3,
                                      1e15};
  Rect a, b;
  for (int d = 0; d < kDims; ++d) {
    // Offsets are added only when nonzero, so that -0.0 survives.
    double x = kBases[rng.NextBounded(std::size(kBases))];
    if (rng.NextBounded(2) == 0) x += rng.NextDouble();
    const double w = rng.NextBounded(2) == 0 ? 0.0 : rng.NextDouble();
    const double y = w == 0.0 ? x : x + w;
    double alo = x, ahi = y, blo, bhi;
    switch (rng.NextBounded(8)) {
      case 0:  // touching
        blo = y;
        bhi = y + rng.NextDouble();
        break;
      case 1:  // nested
        blo = w == 0.0 ? x : x + 0.25 * w;
        bhi = w == 0.0 ? x : x + 0.5 * w;
        break;
      case 2:  // overlapping
        blo = x + 0.5 * w;
        bhi = y + 1.0;
        break;
      case 3:  // meeting at zero with opposite signs
        alo = rng.NextBounded(2) == 0 ? -0.0 : -rng.NextDouble();
        ahi = -0.0;
        blo = 0.0;
        bhi = rng.NextBounded(2) == 0 ? 0.0 : rng.NextDouble();
        if (rng.NextBounded(2) == 0) std::swap(ahi, blo);
        break;
      case 4:  // one ulp apart
        blo = std::nextafter(y, kInf);
        bhi = w == 0.0 ? blo : blo + w;
        break;
      case 5:  // degenerate: equal, or one ulp apart
        ahi = alo;
        blo = rng.NextBounded(2) == 0 ? x : std::nextafter(x, -kInf);
        bhi = blo;
        break;
      case 6:  // the same interval
        blo = alo;
        bhi = ahi;
        break;
      default:  // apart
        blo = y + 1.0 + rng.NextDouble();
        bhi = blo + w;
        break;
    }
    a.lo[d] = alo;
    a.hi[d] = ahi;
    b.lo[d] = blo;
    b.hi[d] = bhi;
  }
  if (rng.NextBounded(2) == 0) std::swap(a, b);
  return {a, b};
}

/// Whether two doubles have the same bit pattern (+0.0 and -0.0 differ).
inline bool SameBits(double x, double y) {
  return std::memcmp(&x, &y, sizeof(double)) == 0;
}

/// Checks `metric`'s MINMINDIST of (a, b) bit for bit: each axis gap equals
/// the clamp form max(0, max(lo) - min(hi)) (metrics_reference.cc) in
/// either argument order and is +0.0 when the intervals meet, and the
/// power-space MINMINDIST equals those gaps combined in axis order.
inline void ExpectMinMinBitExact(const Rect& a, const Rect& b,
                                 Metric metric) {
  double want = 0.0;
  for (int d = 0; d < kDims; ++d) {
    const double gap = AxisMinGap(a, b, d);
    const double clamp = std::max(
        0.0, std::max(a.lo[d], b.lo[d]) - std::min(a.hi[d], b.hi[d]));
    EXPECT_TRUE(SameBits(gap, clamp)) << "axis " << d << ": " << gap;
    EXPECT_TRUE(SameBits(gap, AxisMinGap(b, a, d))) << "axis " << d;
    if (!(a.hi[d] < b.lo[d]) && !(b.hi[d] < a.lo[d])) {
      EXPECT_EQ(gap, 0.0) << "axis " << d;
      EXPECT_FALSE(std::signbit(gap)) << "axis " << d;
    }
    const double term = AxisGapPow(clamp, metric);
    want = metric == Metric::kLinf ? std::max(want, term) : want + term;
  }
  const double got = MinMinDistPow(a, b, metric);
  EXPECT_TRUE(SameBits(got, want)) << MetricName(metric) << ": " << got;
  EXPECT_TRUE(SameBits(got, MinMinDistPow(b, a, metric)));
  EXPECT_FALSE(std::signbit(got));
}

}  // namespace testing
}  // namespace kcpq

#endif  // KCPQ_TESTS_TEST_UTIL_H_
