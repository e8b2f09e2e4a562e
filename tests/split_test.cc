// Unit tests for the R* split and subtree-choice heuristics.

#include <algorithm>
#include <cmath>
#include <limits>

#include "geometry/metrics.h"
#include "gtest/gtest.h"
#include "rtree/split.h"
#include "tests/test_util.h"

namespace kcpq {
namespace {

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

TEST(SplitTest, BothGroupsRespectMinimumAndPartition) {
  Xoshiro256pp rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<Entry> entries;
    for (int i = 0; i < 22; ++i) {
      entries.push_back(Entry{RandomRect(rng, 0.2), static_cast<uint64_t>(i)});
    }
    std::vector<Entry> left, right;
    SplitEntries(entries, 7, &left, &right);
    EXPECT_GE(left.size(), 7u);
    EXPECT_GE(right.size(), 7u);
    EXPECT_EQ(left.size() + right.size(), 22u);
    // Partition: every original id appears exactly once.
    std::vector<uint64_t> ids;
    for (const Entry& e : left) ids.push_back(e.id);
    for (const Entry& e : right) ids.push_back(e.id);
    std::sort(ids.begin(), ids.end());
    for (uint64_t i = 0; i < 22; ++i) ASSERT_EQ(ids[i], i);
  }
}

TEST(SplitTest, SeparatesTwoObviousClusters) {
  // 11 entries near (0,0), 11 near (10,10): the split must not mix them.
  std::vector<Entry> entries;
  Xoshiro256pp rng(6);
  for (int i = 0; i < 11; ++i) {
    entries.push_back(Entry::ForPoint(
        P(rng.NextDouble() * 0.1, rng.NextDouble() * 0.1), i));
  }
  for (int i = 11; i < 22; ++i) {
    entries.push_back(Entry::ForPoint(
        P(10 + rng.NextDouble() * 0.1, 10 + rng.NextDouble() * 0.1), i));
  }
  std::vector<Entry> left, right;
  SplitEntries(entries, 7, &left, &right);
  auto all_low = [](const std::vector<Entry>& g) {
    return std::all_of(g.begin(), g.end(),
                       [](const Entry& e) { return e.rect.lo[0] < 5; });
  };
  auto all_high = [](const std::vector<Entry>& g) {
    return std::all_of(g.begin(), g.end(),
                       [](const Entry& e) { return e.rect.lo[0] > 5; });
  };
  EXPECT_TRUE((all_low(left) && all_high(right)) ||
              (all_high(left) && all_low(right)));
}

TEST(SplitTest, ChoosesAxisWithLowerMargin) {
  // Entries form a 1-wide, 20-tall column of points: splitting along y
  // (sorting by y) gives far smaller margins than splitting along x.
  std::vector<Entry> entries;
  for (int i = 0; i < 22; ++i) {
    entries.push_back(Entry::ForPoint(P(i % 2 * 0.1, i * 1.0), i));
  }
  std::vector<Entry> left, right;
  SplitEntries(entries, 7, &left, &right);
  // All of one group must be strictly below the other in y.
  double left_max = -1e300, right_min = 1e300;
  for (const Entry& e : left) left_max = std::max(left_max, e.rect.hi[1]);
  for (const Entry& e : right) right_min = std::min(right_min, e.rect.lo[1]);
  EXPECT_LT(left_max, right_min);
}

TEST(ChooseSubtreeTest, PicksContainingChildAtLeafLevel) {
  Node node;
  node.level = 1;
  node.entries.push_back(Entry{R(0, 0, 1, 1), 10});
  node.entries.push_back(Entry{R(2, 0, 3, 1), 11});
  node.entries.push_back(Entry{R(4, 0, 5, 1), 12});
  EXPECT_EQ(ChooseSubtree(node, Rect::FromPoint(P(2.5, 0.5))), 1u);
  EXPECT_EQ(ChooseSubtree(node, Rect::FromPoint(P(0.5, 0.5))), 0u);
}

TEST(ChooseSubtreeTest, PicksMinimalEnlargementHigherUp) {
  Node node;
  node.level = 2;
  node.entries.push_back(Entry{R(0, 0, 1, 1), 10});
  node.entries.push_back(Entry{R(5, 5, 9, 9), 11});
  // A point at (1.5, 1.5): enlarging the unit square is much cheaper.
  EXPECT_EQ(ChooseSubtree(node, Rect::FromPoint(P(1.5, 1.5))), 0u);
  // A point near the big rect.
  EXPECT_EQ(ChooseSubtree(node, Rect::FromPoint(P(6, 6))), 1u);
}

TEST(ChooseSubtreeTest, OverlapCriterionAvoidsCreatingOverlap) {
  // At the leaf level R* minimizes *overlap* enlargement: child 0 would
  // need to grow over child 1's area; child 2 can absorb the point with
  // zero new overlap even though its area enlargement is slightly larger.
  Node node;
  node.level = 1;
  node.entries.push_back(Entry{R(0, 0, 2, 1), 10});
  node.entries.push_back(Entry{R(2.5, 0, 3.5, 1), 11});
  node.entries.push_back(Entry{R(2.4, 2, 3.6, 4), 12});
  // Point inside child 1's x-range but above it; growing 0 or 1 creates
  // overlap with each other, growing 2 does not.
  const size_t chosen = ChooseSubtree(node, Rect::FromPoint(P(3.0, 1.8)));
  EXPECT_EQ(chosen, 2u);
}

// The unpruned R* subtree choice: every entry's full overlap enlargement
// (a sum over all other entries), then overlap, enlargement, area and
// first index as the tie order. ChooseSubtree skips work this loop does
// and must still pick the same index.
size_t ReferenceChooseSubtree(const Node& node, const Rect& rect) {
  size_t best = 0;
  if (node.level == 1) {
    double best_overlap = std::numeric_limits<double>::infinity();
    double best_enlarge = std::numeric_limits<double>::infinity();
    double best_area = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < node.entries.size(); ++i) {
      const Rect& current = node.entries[i].rect;
      const Rect grown = Union(current, rect);
      double overlap = 0.0;
      for (size_t j = 0; j < node.entries.size(); ++j) {
        if (j == i) continue;
        const Rect& other = node.entries[j].rect;
        overlap += IntersectionArea(grown, other) -
                   IntersectionArea(current, other);
      }
      const double enlarge = grown.Area() - current.Area();
      const double area = current.Area();
      if (overlap < best_overlap ||
          (overlap == best_overlap &&
           (enlarge < best_enlarge ||
            (enlarge == best_enlarge && area < best_area)))) {
        best = i;
        best_overlap = overlap;
        best_enlarge = enlarge;
        best_area = area;
      }
    }
    return best;
  }
  double best_enlarge = std::numeric_limits<double>::infinity();
  double best_area = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < node.entries.size(); ++i) {
    const double enlarge = Enlargement(node.entries[i].rect, rect);
    const double area = node.entries[i].rect.Area();
    if (enlarge < best_enlarge ||
        (enlarge == best_enlarge && area < best_area)) {
      best = i;
      best_enlarge = enlarge;
      best_area = area;
    }
  }
  return best;
}

// A random rect for the differential below. `scale` sets the magnitude;
// coordinates on a coarse grid make exact overlap and area ties common.
// Earlier rects of the node seed the nested, touching and identical kinds.
Rect DifferentialRect(Xoshiro256pp& rng, double scale,
                      const std::vector<Entry>& earlier) {
  const auto coord = [&] {
    const double c = rng.NextBounded(2) == 0
                         ? rng.NextDouble(-1.0, 1.0)
                         : static_cast<double>(rng.NextBounded(17)) / 8.0 - 1.0;
    return c * scale;
  };
  Rect r;
  for (int d = 0; d < kDims; ++d) {
    const double a = coord();
    const double b = coord();
    r.lo[d] = std::min(a, b);
    r.hi[d] = std::max(a, b);
  }
  const uint64_t kind = rng.NextBounded(8);
  if (!earlier.empty() && kind < 4) {
    const Rect& base = earlier[rng.NextBounded(earlier.size())].rect;
    if (kind == 0) return base;  // identical
    if (kind == 1) {             // nested inside `base`
      // Interpolated, not lo + (hi - lo) * u: a span may be infinite.
      const auto inside = [&](int d) {
        const double u = rng.NextDouble();
        return std::clamp(base.lo[d] * (1.0 - u) + base.hi[d] * u,
                          base.lo[d], base.hi[d]);
      };
      for (int d = 0; d < kDims; ++d) {
        const double a = inside(d);
        const double b = inside(d);
        r.lo[d] = std::min(a, b);
        r.hi[d] = std::max(a, b);
      }
      return r;
    }
    if (kind == 2) {  // containing `base`
      r.Expand(base);
      return r;
    }
    // Touching `base` along one side of axis 0.
    const double width = r.hi[0] - r.lo[0];
    r.lo[0] = base.hi[0];
    r.hi[0] = base.hi[0] + width;
    if (!std::isfinite(r.hi[0])) r.hi[0] = r.lo[0];
    return r;
  }
  if (kind == 4) {  // a point
    for (int d = 0; d < kDims; ++d) r.hi[d] = r.lo[d];
  } else if (kind == 5) {  // a line
    const size_t d = rng.NextBounded(kDims);
    r.hi[d] = r.lo[d];
  }
  return r;
}

TEST(ChooseSubtreeTest, PrunedChoiceMatchesFullOverlapLoop) {
  // Magnitudes from denormal-area to overflowing sides (1.5e308 spans
  // overflow to inf, whose areas give inf - inf = NaN overlap terms).
  const double scales[] = {1.0, 1e-3, 1e-160, 1e150, 1e300, 1.5e308};
  Xoshiro256pp rng(20261018);
  size_t level1 = 0, contained = 0, non_finite = 0;
  for (int trial = 0; trial < 100000; ++trial) {
    const double scale = scales[rng.NextBounded(std::size(scales))];
    const size_t max_entries = rng.NextBounded(5) == 0 ? 85 : 21;
    const size_t count = 2 + rng.NextBounded(max_entries - 1);
    Node node;
    node.level = rng.NextBounded(4) == 0 ? 2 : 1;
    for (size_t i = 0; i < count; ++i) {
      node.entries.push_back(
          Entry{DifferentialRect(rng, scale, node.entries), i});
    }
    // Entries are MBRs, whose spans may overflow; an inserted rect's
    // spans are finite (InsertRect), so collapse any span that is not.
    Rect rect = DifferentialRect(rng, scale, node.entries);
    for (int d = 0; d < kDims; ++d) {
      if (!std::isfinite(rect.hi[d] - rect.lo[d])) rect.hi[d] = rect.lo[d];
    }
    ASSERT_TRUE(rect.IsValid());
    const size_t want = ReferenceChooseSubtree(node, rect);
    ASSERT_EQ(ChooseSubtree(node, rect), want)
        << "trial " << trial << " level " << node.level << " entries "
        << count << " scale " << scale;
    if (node.level == 1) {
      ++level1;
      for (const Entry& e : node.entries) {
        if (e.rect.Contains(rect)) ++contained;
        if (!std::isfinite(e.rect.Area())) ++non_finite;
      }
    }
  }
  // The generator reaches the pruning cases it is meant to check.
  EXPECT_GT(level1, 50000u);
  EXPECT_GT(contained, 10000u);
  EXPECT_GT(non_finite, 10000u);
}

TEST(TakeFarthestEntriesTest, RemovesFarthestKeepsOrder) {
  Node node;
  node.level = 0;
  // Center of mass near origin, two outliers far away.
  node.entries.push_back(Entry::ForPoint(P(0, 0), 0));
  node.entries.push_back(Entry::ForPoint(P(0.1, 0), 1));
  node.entries.push_back(Entry::ForPoint(P(0, 0.1), 2));
  node.entries.push_back(Entry::ForPoint(P(10, 10), 3));
  node.entries.push_back(Entry::ForPoint(P(-12, 9), 4));
  std::vector<Entry> removed;
  TakeFarthestEntries(&node, 2, &removed);
  ASSERT_EQ(removed.size(), 2u);
  ASSERT_EQ(node.entries.size(), 3u);
  // The two outliers must be the removed ones.
  std::vector<uint64_t> ids = {removed[0].id, removed[1].id};
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids[0], 3u);
  EXPECT_EQ(ids[1], 4u);
}

}  // namespace
}  // namespace kcpq
