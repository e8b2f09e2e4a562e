// Self-CPQ and Semi-CPQ (the paper's Section 6 future-work queries).

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "common/random.h"
#include "cpq/brute.h"
#include "cpq/cpq.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace kcpq {
namespace {

using testing::MakeClusteredItems;
using testing::MakeUniformItems;
using testing::TreeFixture;

Point P(double x, double y) { return Point{{x, y}}; }

class SelfCpqTest : public ::testing::TestWithParam<size_t> {};

TEST_P(SelfCpqTest, MatchesBruteForceSelfJoin) {
  const size_t k = GetParam();
  const auto items = MakeClusteredItems(700, 300);
  TreeFixture fx;
  KCPQ_ASSERT_OK(fx.Build(items));

  for (const CpqAlgorithm algorithm :
       {CpqAlgorithm::kExhaustive, CpqAlgorithm::kSimple,
        CpqAlgorithm::kSortedDistances, CpqAlgorithm::kHeap}) {
    CpqOptions options;
    options.algorithm = algorithm;
    options.k = k;
    auto result = SelfKClosestPairs(fx.tree(), options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const auto want = BruteForceKClosestPairs(items, items, k,
                                              /*self_join=*/true);
    SCOPED_TRACE(CpqAlgorithmName(algorithm));
    ASSERT_EQ(result.value().size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_NEAR(result.value()[i].distance, want[i].distance, 1e-9);
      // Each unordered pair once, never reflexive.
      ASSERT_LT(result.value()[i].p_id, result.value()[i].q_id);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, SelfCpqTest, ::testing::Values(1, 5, 37, 200));

TEST(SelfCpqTest, NoDuplicateUnorderedPairs) {
  const auto items = MakeUniformItems(300, 301);
  TreeFixture fx;
  KCPQ_ASSERT_OK(fx.Build(items));
  CpqOptions options;
  options.k = 150;
  auto result = SelfKClosestPairs(fx.tree(), options);
  ASSERT_TRUE(result.ok());
  std::set<std::pair<uint64_t, uint64_t>> seen;
  for (const PairResult& pr : result.value()) {
    ASSERT_TRUE(seen.emplace(pr.p_id, pr.q_id).second)
        << "duplicate pair (" << pr.p_id << ", " << pr.q_id << ")";
  }
}

TEST(SelfCpqTest, TwoPointSet) {
  TreeFixture fx;
  KCPQ_ASSERT_OK(fx.tree().Insert(P(0, 0), 0));
  KCPQ_ASSERT_OK(fx.tree().Insert(P(3, 4), 1));
  auto result = SelfKClosestPairs(fx.tree());
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().size(), 1u);
  EXPECT_DOUBLE_EQ(result.value()[0].distance, 5.0);
}

TEST(SelfCpqTest, LargeScaleWithSymmetricPruning) {
  // 4000-point self join: exercises the mirrored-node-pair skip (same-node
  // expansions emit only page-ordered child pairs) at a scale where every
  // level of the tree participates. Results must stay exact and
  // normalized.
  const auto items = MakeUniformItems(4000, 305);
  TreeFixture fx;
  KCPQ_ASSERT_OK(fx.Build(items));
  for (const CpqAlgorithm algorithm :
       {CpqAlgorithm::kSortedDistances, CpqAlgorithm::kHeap}) {
    CpqOptions options;
    options.algorithm = algorithm;
    options.k = 25;
    CpqStats stats;
    auto result = SelfKClosestPairs(fx.tree(), options, &stats);
    ASSERT_TRUE(result.ok());
    const auto want =
        BruteForceKClosestPairs(items, items, 25, /*self_join=*/true);
    ASSERT_EQ(result.value().size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_NEAR(result.value()[i].distance, want[i].distance, 1e-9);
      ASSERT_LT(result.value()[i].p_id, result.value()[i].q_id);
    }
    EXPECT_GT(stats.node_pairs_processed, 0u);
  }
}

class SemiCpqTest : public ::testing::TestWithParam<double> {};

TEST_P(SemiCpqTest, MatchesBruteForceAllNearestNeighbors) {
  const double overlap = GetParam();
  const auto p_items = MakeUniformItems(400, 302);
  const auto q_items = MakeClusteredItems(
      500, 303, ShiftedWorkspace(UnitWorkspace(), overlap));
  TreeFixture fp, fq;
  KCPQ_ASSERT_OK(fp.Build(p_items));
  KCPQ_ASSERT_OK(fq.Build(q_items));

  CpqStats stats;
  auto result = SemiClosestPairs(fp.tree(), fq.tree(), &stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto want = BruteForceSemiClosestPairs(p_items, q_items);
  ASSERT_EQ(result.value().size(), p_items.size());
  ASSERT_EQ(want.size(), p_items.size());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_NEAR(result.value()[i].distance, want[i].distance, 1e-9)
        << "rank " << i;
  }
  // Every P point appears exactly once as a left element.
  std::set<uint64_t> lefts;
  for (const PairResult& pr : result.value()) lefts.insert(pr.p_id);
  EXPECT_EQ(lefts.size(), p_items.size());
  EXPECT_GT(stats.disk_accesses(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Overlaps, SemiCpqTest,
                         ::testing::Values(0.0, 0.5, 1.0));

// Duplicate points on a coarse grid in both sets, so most points tie with
// several nearest neighbours (often at distance 0): the per-point leaf
// prune skips many pairs, and every point's distance equals brute force's
// and its witness is one of brute force's tied nearest neighbours.
TEST(SemiCpqTest, DuplicateGridTiesMatchBruteForce) {
  const auto grid_items = [](size_t n, uint64_t seed, uint64_t first_id) {
    Xoshiro256pp rng(seed);
    std::vector<std::pair<Point, uint64_t>> items;
    for (size_t i = 0; i < n; ++i) {
      items.emplace_back(P(0.125 * static_cast<double>(rng.NextBounded(9)),
                           0.125 * static_cast<double>(rng.NextBounded(9))),
                         first_id + i);
    }
    return items;
  };
  const auto p_items = grid_items(600, 401, 0);
  const auto q_items = grid_items(500, 402, 10000);
  TreeFixture fp, fq;
  KCPQ_ASSERT_OK(fp.Build(p_items));
  KCPQ_ASSERT_OK(fq.Build(q_items));
  CpqStats stats;
  auto result = SemiClosestPairs(fp.tree(), fq.tree(), &stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto want = BruteForceSemiClosestPairs(p_items, q_items);
  ASSERT_EQ(result.value().size(), want.size());
  std::map<uint64_t, Point> q_points;
  for (const auto& [q, id] : q_items) q_points[id] = q;
  for (size_t i = 0; i < want.size(); ++i) {
    const PairResult& got = result.value()[i];
    EXPECT_EQ(got.p_id, want[i].p_id) << "rank " << i;
    EXPECT_EQ(got.distance, want[i].distance) << "rank " << i;
    // The witness is a nearest neighbour at exactly that distance.
    ASSERT_EQ(q_points.count(got.q_id), 1u);
    EXPECT_EQ(std::sqrt(SquaredDistance(got.p, q_points[got.q_id])),
              want[i].distance)
        << "rank " << i;
    EXPECT_EQ(got.q, q_points[got.q_id]) << "rank " << i;
  }
  EXPECT_GT(stats.leaf_pairs_skipped, 0u);
}

TEST(SemiCpqTest, BatchedTraversalAmortizesAccesses) {
  // The group-NN implementation shares one Q descent per P leaf; with no
  // buffer its total accesses must stay well below |P| (a per-point KNN
  // formulation pays at least height(Q) accesses per point).
  const auto p_items = MakeUniformItems(2000, 306);
  const auto q_items = MakeUniformItems(2000, 307);
  TreeFixture fp, fq;
  KCPQ_ASSERT_OK(fp.Build(p_items));
  KCPQ_ASSERT_OK(fq.Build(q_items));
  CpqStats stats;
  auto result = SemiClosestPairs(fp.tree(), fq.tree(), &stats);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().size(), p_items.size());
  EXPECT_LT(stats.disk_accesses(), p_items.size());
}

TEST(SemiCpqTest, EmptyInnerSetGivesEmptyResult) {
  TreeFixture fp, fq;
  KCPQ_ASSERT_OK(fp.Build(MakeUniformItems(10, 304)));
  auto result = SemiClosestPairs(fp.tree(), fq.tree());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().empty());
}

}  // namespace
}  // namespace kcpq
