// Tests for STR bulk loading.

#include <algorithm>
#include <limits>

#include "cpq/brute.h"
#include "cpq/cpq.h"
#include "gtest/gtest.h"
#include "rtree/rtree.h"
#include "tests/test_util.h"

namespace kcpq {
namespace {

using testing::MakeUniformItems;

class BulkLoadTest : public ::testing::TestWithParam<size_t> {};

TEST_P(BulkLoadTest, ValidTreeWithAllPoints) {
  const size_t n = GetParam();
  MemoryStorageManager storage;
  BufferManager buffer(&storage, 0);
  const auto items = MakeUniformItems(n, 600 + n);
  auto loaded = RStarTree::BulkLoad(&buffer, items);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  auto& tree = *loaded.value();
  EXPECT_EQ(tree.size(), n);
  KCPQ_ASSERT_OK(tree.Validate());
  std::vector<Entry> hits;
  KCPQ_ASSERT_OK(tree.RangeQuery(UnitWorkspace(), &hits));
  EXPECT_EQ(hits.size(), n);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BulkLoadTest,
                         ::testing::Values(1, 7, 21, 22, 100, 441, 443, 5000,
                                           20000));

TEST(BulkLoadTest, EmptyInput) {
  MemoryStorageManager storage;
  BufferManager buffer(&storage, 0);
  auto loaded = RStarTree::BulkLoad(&buffer, {});
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value()->size(), 0u);
  KCPQ_ASSERT_OK(loaded.value()->Validate());
}

// BulkLoad shares Insert's input check: a NaN point, or a coordinate of
// magnitude above DBL_MAX/2, is InvalidArgument before any page is written.
TEST(BulkLoadTest, UnstorablePointsRejectedBeforeAnyWrite) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const Point bad : {Point{{nan, 0.5}}, Point{{0.5, nan}},
                          Point{{1e308, 0.5}}, Point{{0.5, -1e308}}}) {
    MemoryStorageManager storage;
    BufferManager buffer(&storage, 0);
    auto items = MakeUniformItems(200, 606);
    items[100].first = bad;
    auto loaded = RStarTree::BulkLoad(&buffer, items);
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(storage.PageCount(), 0u);
    EXPECT_EQ(storage.stats().writes, 0u);
  }
  // Both signs of 1e308 in one input: the span the check exists for.
  MemoryStorageManager storage;
  BufferManager buffer(&storage, 0);
  auto items = MakeUniformItems(200, 607);
  items[0].first = Point{{-1e308, 0.5}};
  items[1].first = Point{{1e308, 0.5}};
  EXPECT_EQ(RStarTree::BulkLoad(&buffer, items).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(storage.PageCount(), 0u);
}

TEST(BulkLoadTest, PartialFillFactor) {
  MemoryStorageManager storage;
  BufferManager buffer(&storage, 0);
  const auto items = MakeUniformItems(3000, 601);
  auto loaded = RStarTree::BulkLoad(&buffer, items, RTreeOptions(), 0.7);
  ASSERT_TRUE(loaded.ok());
  KCPQ_ASSERT_OK(loaded.value()->Validate());
  std::vector<RStarTree::LevelStats> stats;
  KCPQ_ASSERT_OK(loaded.value()->CollectLevelStats(&stats));
  const double leaf_fill = static_cast<double>(stats[0].entries) /
                           (stats[0].nodes * loaded.value()->max_entries());
  EXPECT_NEAR(leaf_fill, 0.66, 0.08);  // 14 of 21 per leaf
}

TEST(BulkLoadTest, PackedTreesAreShallowerOrEqual) {
  const auto items = MakeUniformItems(8000, 602);
  MemoryStorageManager s1, s2;
  BufferManager b1(&s1, 0), b2(&s2, 0);
  auto packed = RStarTree::BulkLoad(&b1, items);
  ASSERT_TRUE(packed.ok());
  auto inserted = RStarTree::Create(&b2);
  ASSERT_TRUE(inserted.ok());
  for (const auto& [p, id] : items) {
    KCPQ_ASSERT_OK(inserted.value()->Insert(p, id));
  }
  EXPECT_LE(packed.value()->height(), inserted.value()->height());
  std::vector<RStarTree::LevelStats> ps, is;
  KCPQ_ASSERT_OK(packed.value()->CollectLevelStats(&ps));
  KCPQ_ASSERT_OK(inserted.value()->CollectLevelStats(&is));
  EXPECT_LT(ps[0].nodes, is[0].nodes);  // fuller leaves -> fewer of them
}

TEST(BulkLoadTest, CpqOverBulkLoadedTreesCorrect) {
  const auto p_items = MakeUniformItems(2500, 603);
  const auto q_items = MakeUniformItems(2500, 604);
  MemoryStorageManager s1, s2;
  BufferManager b1(&s1, 0), b2(&s2, 0);
  auto tp = RStarTree::BulkLoad(&b1, p_items);
  auto tq = RStarTree::BulkLoad(&b2, q_items);
  ASSERT_TRUE(tp.ok() && tq.ok());
  CpqOptions options;
  options.algorithm = CpqAlgorithm::kHeap;
  options.k = 20;
  auto result = KClosestPairs(*tp.value(), *tq.value(), options);
  ASSERT_TRUE(result.ok());
  const auto want = BruteForceKClosestPairs(p_items, q_items, 20);
  ASSERT_EQ(result.value().size(), 20u);
  for (size_t i = 0; i < 20; ++i) {
    ASSERT_NEAR(result.value()[i].distance, want[i].distance, 1e-9);
  }
}

TEST(BulkLoadTest, InsertAfterBulkLoadKeepsInvariants) {
  MemoryStorageManager storage;
  BufferManager buffer(&storage, 0);
  const auto items = MakeUniformItems(1000, 605);
  auto loaded = RStarTree::BulkLoad(&buffer, items);
  ASSERT_TRUE(loaded.ok());
  auto& tree = *loaded.value();
  const auto more = MakeUniformItems(500, 606);
  for (const auto& [p, id] : more) {
    KCPQ_ASSERT_OK(tree.Insert(p, id + 10000));
  }
  EXPECT_EQ(tree.size(), 1500u);
  KCPQ_ASSERT_OK(tree.Validate());
}

}  // namespace
}  // namespace kcpq
