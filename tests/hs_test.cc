// Correctness of the Hjaltason-Samet incremental distance join under all
// traversal/tie policies, plus incremental semantics and K-bounding.

#include <optional>
#include <vector>

#include "cpq/brute.h"
#include "gtest/gtest.h"
#include "hs/hs.h"
#include "tests/test_util.h"

namespace kcpq {
namespace {

using testing::MakeClusteredItems;
using testing::MakeUniformItems;
using testing::TreeFixture;

struct HsParam {
  HsTraversal traversal;
  HsTiePolicy tie;
  double overlap;
};

class HsPolicyTest : public ::testing::TestWithParam<HsParam> {};

TEST_P(HsPolicyTest, KResultsMatchBruteForce) {
  const HsParam param = GetParam();
  const auto p_items = MakeUniformItems(600, 400);
  const auto q_items = MakeClusteredItems(
      600, 401, ShiftedWorkspace(UnitWorkspace(), param.overlap));
  TreeFixture fp, fq;
  KCPQ_ASSERT_OK(fp.Build(p_items));
  KCPQ_ASSERT_OK(fq.Build(q_items));

  constexpr size_t kK = 40;
  HsOptions options;
  options.traversal = param.traversal;
  options.tie_policy = param.tie;
  CpqStats stats;
  auto result = HsKClosestPairs(fp.tree(), fq.tree(), kK, options, &stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto want = BruteForceKClosestPairs(p_items, q_items, kK);
  ASSERT_EQ(result.value().size(), kK);
  for (size_t i = 0; i < kK; ++i) {
    ASSERT_NEAR(result.value()[i].distance, want[i].distance, 1e-9)
        << "rank " << i;
  }
  EXPECT_GT(stats.items_pushed, 0u);
  EXPECT_GT(stats.disk_accesses(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, HsPolicyTest,
    ::testing::Values(
        HsParam{HsTraversal::kBasic, HsTiePolicy::kDepthFirst, 1.0},
        HsParam{HsTraversal::kBasic, HsTiePolicy::kBreadthFirst, 0.0},
        HsParam{HsTraversal::kEven, HsTiePolicy::kDepthFirst, 1.0},
        HsParam{HsTraversal::kEven, HsTiePolicy::kBreadthFirst, 0.5},
        HsParam{HsTraversal::kSimultaneous, HsTiePolicy::kDepthFirst, 1.0},
        HsParam{HsTraversal::kSimultaneous, HsTiePolicy::kBreadthFirst, 0.0}),
    [](const ::testing::TestParamInfo<HsParam>& info) {
      std::string name = HsTraversalName(info.param.traversal);
      name += info.param.tie == HsTiePolicy::kDepthFirst ? "_depth" : "_breadth";
      name += "_ov" + std::to_string(static_cast<int>(info.param.overlap * 100));
      return name;
    });

TEST(HsIncrementalTest, ProducesAscendingStreamOnDemand) {
  const auto p_items = MakeUniformItems(300, 402);
  const auto q_items = MakeUniformItems(300, 403);
  TreeFixture fp, fq;
  KCPQ_ASSERT_OK(fp.Build(p_items));
  KCPQ_ASSERT_OK(fq.Build(q_items));

  IncrementalDistanceJoin join(fp.tree(), fq.tree());
  double prev = -1.0;
  for (int i = 0; i < 500; ++i) {
    auto next = join.Next();
    ASSERT_TRUE(next.ok());
    ASSERT_TRUE(next.value().has_value());
    ASSERT_GE(next.value()->distance, prev - 1e-12);
    prev = next.value()->distance;
  }
}

TEST(HsIncrementalTest, ExhaustsCrossProduct) {
  const auto p_items = MakeUniformItems(12, 404);
  const auto q_items = MakeUniformItems(9, 405);
  TreeFixture fp, fq;
  KCPQ_ASSERT_OK(fp.Build(p_items));
  KCPQ_ASSERT_OK(fq.Build(q_items));

  IncrementalDistanceJoin join(fp.tree(), fq.tree());
  size_t count = 0;
  while (true) {
    auto next = join.Next();
    ASSERT_TRUE(next.ok());
    if (!next.value().has_value()) break;
    ++count;
    ASSERT_LE(count, 12u * 9u);
  }
  EXPECT_EQ(count, 12u * 9u);
}

TEST(HsIncrementalTest, FullStreamEqualsBruteForceOrder) {
  const auto p_items = MakeUniformItems(40, 406);
  const auto q_items = MakeUniformItems(40, 407);
  TreeFixture fp, fq;
  KCPQ_ASSERT_OK(fp.Build(p_items));
  KCPQ_ASSERT_OK(fq.Build(q_items));
  const auto want = BruteForceKClosestPairs(p_items, q_items, 40 * 40);

  IncrementalDistanceJoin join(fp.tree(), fq.tree());
  for (size_t i = 0; i < want.size(); ++i) {
    auto next = join.Next();
    ASSERT_TRUE(next.ok());
    ASSERT_TRUE(next.value().has_value());
    ASSERT_NEAR(next.value()->distance, want[i].distance, 1e-9) << "rank " << i;
  }
}

TEST(HsIncrementalTest, KBoundStopsTheStream) {
  const auto p_items = MakeUniformItems(100, 408);
  const auto q_items = MakeUniformItems(100, 409);
  TreeFixture fp, fq;
  KCPQ_ASSERT_OK(fp.Build(p_items));
  KCPQ_ASSERT_OK(fq.Build(q_items));
  HsOptions options;
  options.k_bound = 5;
  IncrementalDistanceJoin join(fp.tree(), fq.tree(), options);
  for (int i = 0; i < 5; ++i) {
    auto next = join.Next();
    ASSERT_TRUE(next.ok());
    ASSERT_TRUE(next.value().has_value());
  }
  auto next = join.Next();
  ASSERT_TRUE(next.ok());
  EXPECT_FALSE(next.value().has_value());
}

TEST(HsIncrementalTest, KBoundPruningReducesQueuePressure) {
  const auto p_items = MakeUniformItems(2000, 410);
  const auto q_items = MakeUniformItems(2000, 411);
  TreeFixture fp, fq;
  KCPQ_ASSERT_OK(fp.Build(p_items));
  KCPQ_ASSERT_OK(fq.Build(q_items));

  CpqStats bounded, unbounded;
  {
    HsOptions options;
    ASSERT_TRUE(
        HsKClosestPairs(fp.tree(), fq.tree(), 3, options, &bounded).ok());
  }
  {
    HsOptions options;
    options.k_bound = 0;  // fully incremental: no pruning
    IncrementalDistanceJoin join(fp.tree(), fq.tree(), options);
    for (int i = 0; i < 3; ++i) {
      auto next = join.Next();
      ASSERT_TRUE(next.ok());
      ASSERT_TRUE(next.value().has_value());
    }
    unbounded = join.stats();
  }
  EXPECT_LE(bounded.items_pushed, unbounded.items_pushed);
}

TEST(HsIncrementalTest, EmptyTreesYieldNothing) {
  TreeFixture fp, fq;
  KCPQ_ASSERT_OK(fq.Build(MakeUniformItems(10, 412)));
  IncrementalDistanceJoin join(fp.tree(), fq.tree());
  auto next = join.Next();
  ASSERT_TRUE(next.ok());
  EXPECT_FALSE(next.value().has_value());
}

TEST(HsIncrementalTest, DifferentHeightsAllTraversals) {
  const auto p_items = MakeUniformItems(3000, 413);
  const auto q_items = MakeUniformItems(100, 414);
  TreeFixture fp, fq;
  KCPQ_ASSERT_OK(fp.Build(p_items));
  KCPQ_ASSERT_OK(fq.Build(q_items));
  ASSERT_NE(fp.tree().height(), fq.tree().height());
  const auto want = BruteForceKClosestPairs(p_items, q_items, 15);
  for (const HsTraversal traversal :
       {HsTraversal::kBasic, HsTraversal::kEven, HsTraversal::kSimultaneous}) {
    HsOptions options;
    options.traversal = traversal;
    auto result = HsKClosestPairs(fp.tree(), fq.tree(), 15, options);
    ASSERT_TRUE(result.ok());
    SCOPED_TRACE(HsTraversalName(traversal));
    ASSERT_EQ(result.value().size(), 15u);
    for (size_t i = 0; i < 15; ++i) {
      ASSERT_NEAR(result.value()[i].distance, want[i].distance, 1e-9);
    }
  }
}

}  // namespace
}  // namespace kcpq
