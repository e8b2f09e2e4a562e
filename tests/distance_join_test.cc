// Tests for the ε distance range join.

#include <limits>
#include <set>

#include "cpq/distance_join.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace kcpq {
namespace {

using testing::MakeClusteredItems;
using testing::MakeUniformItems;
using testing::TreeFixture;

void ExpectSameJoin(const std::vector<PairResult>& got,
                    const std::vector<PairResult>& want) {
  ASSERT_EQ(got.size(), want.size());
  std::set<std::pair<uint64_t, uint64_t>> got_pairs, want_pairs;
  for (const PairResult& pr : got) got_pairs.emplace(pr.p_id, pr.q_id);
  for (const PairResult& pr : want) want_pairs.emplace(pr.p_id, pr.q_id);
  EXPECT_EQ(got_pairs, want_pairs);
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_NEAR(got[i].distance, want[i].distance, 1e-12) << "rank " << i;
  }
}

class DistanceJoinTest : public ::testing::TestWithParam<double> {};

TEST_P(DistanceJoinTest, MatchesBruteForceAcrossEpsilons) {
  const double epsilon = GetParam();
  const auto p_items = MakeUniformItems(600, 1000);
  const auto q_items = MakeClusteredItems(600, 1001);
  TreeFixture fp, fq;
  KCPQ_ASSERT_OK(fp.Build(p_items));
  KCPQ_ASSERT_OK(fq.Build(q_items));

  CpqStats stats;
  auto result =
      DistanceRangeJoin(fp.tree(), fq.tree(), epsilon, {}, &stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectSameJoin(result.value(),
                 BruteForceDistanceRangeJoin(p_items, q_items, epsilon));
  if (epsilon > 0.0) {
    EXPECT_GT(stats.disk_accesses(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Epsilons, DistanceJoinTest,
                         ::testing::Values(0.0, 0.001, 0.01, 0.05, 0.2));

// Both leaf kernels across epsilons: identical join result, and the sweep
// must actually skip pairs once epsilon prunes anything.
TEST_P(DistanceJoinTest, LeafKernelsAgreeAcrossEpsilons) {
  const double epsilon = GetParam();
  const auto p_items = MakeUniformItems(500, 1100);
  const auto q_items = MakeClusteredItems(500, 1101);
  TreeFixture fp, fq;
  KCPQ_ASSERT_OK(fp.Build(p_items));
  KCPQ_ASSERT_OK(fq.Build(q_items));

  const auto want = BruteForceDistanceRangeJoin(p_items, q_items, epsilon);
  CpqStats nested_stats, sweep_stats;
  DistanceJoinOptions options;
  options.leaf_kernel = LeafKernel::kNestedLoop;
  auto nested =
      DistanceRangeJoin(fp.tree(), fq.tree(), epsilon, options, &nested_stats);
  options.leaf_kernel = LeafKernel::kPlaneSweep;
  auto sweep =
      DistanceRangeJoin(fp.tree(), fq.tree(), epsilon, options, &sweep_stats);
  ASSERT_TRUE(nested.ok());
  ASSERT_TRUE(sweep.ok());
  ExpectSameJoin(nested.value(), want);
  ExpectSameJoin(sweep.value(), want);
  EXPECT_EQ(nested_stats.leaf_pairs_skipped, 0u);
  // Skipped + computed covers exactly the pairs the nested loop tested.
  EXPECT_EQ(sweep_stats.point_distance_computations +
                sweep_stats.leaf_pairs_skipped,
            nested_stats.point_distance_computations);
  if (epsilon > 0.0 && epsilon <= 0.05) {
    EXPECT_GT(sweep_stats.leaf_pairs_skipped, 0u);
    EXPECT_LT(sweep_stats.point_distance_computations,
              nested_stats.point_distance_computations);
  }
}

TEST(DistanceJoinTest, NegativeEpsilonRejected) {
  TreeFixture fp, fq;
  KCPQ_ASSERT_OK(fp.Build(MakeUniformItems(10, 1002)));
  KCPQ_ASSERT_OK(fq.Build(MakeUniformItems(10, 1003)));
  for (const double epsilon :
       {-0.1, std::numeric_limits<double>::quiet_NaN()}) {
    auto result = DistanceRangeJoin(fp.tree(), fq.tree(), epsilon);
    EXPECT_FALSE(result.ok()) << epsilon;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(DistanceJoinTest, ExactDistanceIsIncluded) {
  TreeFixture fp, fq;
  KCPQ_ASSERT_OK(fp.tree().Insert(Point{{0, 0}}, 1));
  KCPQ_ASSERT_OK(fq.tree().Insert(Point{{3, 4}}, 2));
  auto result = DistanceRangeJoin(fp.tree(), fq.tree(), 5.0);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().size(), 1u);  // dist == epsilon counts
  result = DistanceRangeJoin(fp.tree(), fq.tree(), 4.999999);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().empty());
}

TEST(DistanceJoinTest, SelfJoinMatchesBruteForce) {
  const auto items = MakeClusteredItems(500, 1004);
  TreeFixture fx;
  KCPQ_ASSERT_OK(fx.Build(items));
  DistanceJoinOptions options;
  options.self_join = true;
  auto result = DistanceRangeJoin(fx.tree(), fx.tree(), 0.01, options);
  ASSERT_TRUE(result.ok());
  ExpectSameJoin(result.value(), BruteForceDistanceRangeJoin(
                                     items, items, 0.01, /*self_join=*/true));
  for (const PairResult& pr : result.value()) {
    ASSERT_LT(pr.p_id, pr.q_id);
  }
}

TEST(DistanceJoinTest, MinkowskiMetrics) {
  const auto p_items = MakeUniformItems(400, 1005);
  const auto q_items = MakeUniformItems(400, 1006);
  TreeFixture fp, fq;
  KCPQ_ASSERT_OK(fp.Build(p_items));
  KCPQ_ASSERT_OK(fq.Build(q_items));
  for (const Metric metric : {Metric::kL1, Metric::kLinf}) {
    DistanceJoinOptions options;
    options.metric = metric;
    auto result = DistanceRangeJoin(fp.tree(), fq.tree(), 0.02, options);
    ASSERT_TRUE(result.ok());
    ExpectSameJoin(result.value(),
                   BruteForceDistanceRangeJoin(p_items, q_items, 0.02,
                                               /*self_join=*/false, metric));
  }
}

TEST(DistanceJoinTest, MaxResultsGuard) {
  const auto p_items = MakeUniformItems(300, 1007);
  const auto q_items = MakeUniformItems(300, 1008);
  TreeFixture fp, fq;
  KCPQ_ASSERT_OK(fp.Build(p_items));
  KCPQ_ASSERT_OK(fq.Build(q_items));
  DistanceJoinOptions options;
  options.max_results = 10;
  auto result = DistanceRangeJoin(fp.tree(), fq.tree(), 10.0, options);
  ASSERT_FALSE(result.ok());  // 90,000 pairs >> 10
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(DistanceJoinTest, DifferentHeightsBothStrategies) {
  const auto p_items = MakeUniformItems(3000, 1009);
  const auto q_items = MakeUniformItems(100, 1010);
  TreeFixture fp, fq;
  KCPQ_ASSERT_OK(fp.Build(p_items));
  KCPQ_ASSERT_OK(fq.Build(q_items));
  ASSERT_NE(fp.tree().height(), fq.tree().height());
  const auto want = BruteForceDistanceRangeJoin(p_items, q_items, 0.03);
  for (const HeightStrategy strategy :
       {HeightStrategy::kFixAtLeaves, HeightStrategy::kFixAtRoot}) {
    DistanceJoinOptions options;
    options.height_strategy = strategy;
    auto result = DistanceRangeJoin(fp.tree(), fq.tree(), 0.03, options);
    ASSERT_TRUE(result.ok());
    ExpectSameJoin(result.value(), want);
  }
}

TEST(DistanceJoinTest, EmptyTreesYieldEmpty) {
  TreeFixture fp, fq;
  KCPQ_ASSERT_OK(fq.Build(MakeUniformItems(20, 1011)));
  auto result = DistanceRangeJoin(fp.tree(), fq.tree(), 1.0);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().empty());
}

// A budget-stopped join certifies a capacity-weighted missing-pair count:
// the bound must dominate the true number of qualifying pairs it failed to
// report, and an exact run must leave it at zero.
TEST(DistanceJoinTest, MissingPairBoundDominatesTrueDeficit) {
  const auto p_items = MakeUniformItems(400, 1014);
  const auto q_items = MakeUniformItems(400, 1015);
  TreeFixture fp, fq;
  KCPQ_ASSERT_OK(fp.Build(p_items));
  KCPQ_ASSERT_OK(fq.Build(q_items));
  const double epsilon = 0.08;
  const std::vector<PairResult> full =
      BruteForceDistanceRangeJoin(p_items, q_items, epsilon);
  ASSERT_GT(full.size(), 50u);

  bool saw_partial = false;
  for (uint64_t budget : {3u, 10u, 40u, 160u}) {
    QueryContext ctx;  // fresh per budget: a context serves one query
    ctx.control().max_node_accesses = budget;
    DistanceJoinOptions options;
    options.context = &ctx;
    CpqStats stats;
    auto result =
        DistanceRangeJoin(fp.tree(), fq.tree(), epsilon, options, &stats);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    if (stats.quality.is_exact) {
      EXPECT_EQ(stats.quality.missing_pair_bound, 0u) << budget;
      continue;
    }
    saw_partial = true;
    const uint64_t missing = full.size() - result.value().size();
    EXPECT_GE(stats.quality.missing_pair_bound, missing) << budget;
  }
  EXPECT_TRUE(saw_partial) << "no budget produced a partial join";

  // An unlimited run is exact and certifies nothing missing.
  CpqStats stats;
  auto result = DistanceRangeJoin(fp.tree(), fq.tree(), epsilon, {}, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(stats.quality.is_partial());
  EXPECT_EQ(stats.quality.missing_pair_bound, 0u);
}

TEST(DistanceJoinTest, ResultsAscendingByDistance) {
  const auto p_items = MakeUniformItems(400, 1012);
  const auto q_items = MakeUniformItems(400, 1013);
  TreeFixture fp, fq;
  KCPQ_ASSERT_OK(fp.Build(p_items));
  KCPQ_ASSERT_OK(fq.Build(q_items));
  auto result = DistanceRangeJoin(fp.tree(), fq.tree(), 0.05);
  ASSERT_TRUE(result.ok());
  ASSERT_GT(result.value().size(), 10u);
  for (size_t i = 1; i < result.value().size(); ++i) {
    ASSERT_GE(result.value()[i].distance, result.value()[i - 1].distance);
  }
}

}  // namespace
}  // namespace kcpq
