// Tests for multi-way K closest tuples against the brute-force cross
// product, across graph shapes, K, metrics, and tree shapes.

#include <cmath>
#include <cstdint>

#include "cpq/multiway.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace kcpq {
namespace {

using testing::MakeClusteredItems;
using testing::MakeUniformItems;
using testing::TreeFixture;

// Compares aggregate-distance sequences (tuple sets may differ on ties).
void ExpectSameDistances(const std::vector<TupleResult>& got,
                         const std::vector<TupleResult>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_NEAR(got[i].aggregate_distance, want[i].aggregate_distance, 1e-9)
        << "rank " << i;
    if (i > 0) {
      ASSERT_GE(got[i].aggregate_distance,
                got[i - 1].aggregate_distance - 1e-12);
    }
  }
}

// Recomputes a tuple's aggregate and checks internal consistency.
void ExpectTupleConsistent(const TupleResult& tuple,
                           const std::vector<MultiwayEdge>& graph,
                           Metric metric) {
  double aggregate = 0.0;
  for (const MultiwayEdge& e : graph) {
    aggregate += PowToDistance(
        PointDistancePow(tuple.points[e.a], tuple.points[e.b], metric),
        metric);
  }
  EXPECT_NEAR(aggregate, tuple.aggregate_distance, 1e-9);
}

// gtest prints a parameter byte by byte into the registered test name, so
// the struct must have no uninitialised padding in its leading bytes: `m` is
// 64-bit to fill the slot before `shape` that an `int` left to stack garbage.
struct MultiwayParam {
  int64_t m;             // number of trees
  const char* shape;     // "chain" | "clique" | "star"
  size_t n;              // points per tree
  size_t k;
  Metric metric;
};

std::vector<MultiwayEdge> MakeGraph(int m, const std::string& shape) {
  std::vector<MultiwayEdge> graph;
  if (shape == "chain") {
    for (int i = 0; i + 1 < m; ++i) graph.push_back({i, i + 1});
  } else if (shape == "clique") {
    for (int i = 0; i < m; ++i) {
      for (int j = i + 1; j < m; ++j) graph.push_back({i, j});
    }
  } else {  // star
    for (int i = 1; i < m; ++i) graph.push_back({0, i});
  }
  return graph;
}

class MultiwayTest : public ::testing::TestWithParam<MultiwayParam> {};

TEST_P(MultiwayTest, MatchesBruteForce) {
  const MultiwayParam param = GetParam();
  std::vector<std::vector<std::pair<Point, uint64_t>>> sets;
  std::vector<std::unique_ptr<TreeFixture>> fixtures;
  std::vector<const RStarTree*> trees;
  for (int i = 0; i < param.m; ++i) {
    sets.push_back(MakeUniformItems(param.n, 1200 + i));
    fixtures.push_back(std::make_unique<TreeFixture>());
    KCPQ_ASSERT_OK(fixtures.back()->Build(sets.back()));
    trees.push_back(&fixtures.back()->tree());
  }
  const auto graph = MakeGraph(static_cast<int>(param.m), param.shape);
  MultiwayOptions options;
  options.k = param.k;
  options.metric = param.metric;
  CpqStats stats;
  auto result = MultiwayKClosestTuples(trees, graph, options, &stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto want = BruteForceMultiwayKClosestTuples(sets, graph, param.k,
                                                     param.metric);
  ExpectSameDistances(result.value(), want);
  for (const TupleResult& tuple : result.value()) {
    ExpectTupleConsistent(tuple, graph, param.metric);
  }
  EXPECT_GT(stats.disk_accesses(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MultiwayTest,
    ::testing::Values(
        MultiwayParam{2, "chain", 300, 1, Metric::kL2},
        MultiwayParam{2, "chain", 300, 20, Metric::kL2},
        MultiwayParam{3, "chain", 60, 1, Metric::kL2},
        MultiwayParam{3, "chain", 60, 10, Metric::kL2},
        MultiwayParam{3, "clique", 60, 5, Metric::kL2},
        MultiwayParam{3, "star", 60, 5, Metric::kL2},
        MultiwayParam{3, "chain", 60, 5, Metric::kL1},
        MultiwayParam{3, "clique", 40, 3, Metric::kLinf},
        MultiwayParam{4, "chain", 25, 4, Metric::kL2},
        MultiwayParam{4, "star", 25, 2, Metric::kL2}),
    [](const ::testing::TestParamInfo<MultiwayParam>& info) {
      const MultiwayParam& p = info.param;
      char buf[96];
      std::snprintf(buf, sizeof(buf), "m%d_%s_n%zu_k%zu_%s",
                    static_cast<int>(p.m), p.shape, p.n, p.k,
                    MetricName(p.metric));
      return std::string(buf);
    });

TEST(MultiwayTest, TwoWayChainAgreesWithPairwiseCpq) {
  // m = 2 with one edge must equal the classic K-CPQ distances.
  const auto p_items = MakeClusteredItems(400, 1300);
  const auto q_items = MakeUniformItems(400, 1301);
  TreeFixture fp, fq;
  KCPQ_ASSERT_OK(fp.Build(p_items));
  KCPQ_ASSERT_OK(fq.Build(q_items));
  MultiwayOptions options;
  options.k = 12;
  auto tuples = MultiwayKClosestTuples({&fp.tree(), &fq.tree()}, {{0, 1}},
                                       options);
  ASSERT_TRUE(tuples.ok());
  CpqOptions cpq_options;
  cpq_options.k = 12;
  auto pairs = KClosestPairs(fp.tree(), fq.tree(), cpq_options);
  ASSERT_TRUE(pairs.ok());
  ASSERT_EQ(tuples.value().size(), pairs.value().size());
  for (size_t i = 0; i < pairs.value().size(); ++i) {
    EXPECT_NEAR(tuples.value()[i].aggregate_distance,
                pairs.value()[i].distance, 1e-9);
  }
}

// With zero-page buffers every node read is one storage read, so the
// query's disk accesses must equal the storage-level read count: a check
// independent of how the engine tallies its misses. Run unlimited and
// under node budgets that stop mid-search.
TEST(MultiwayTest, ZeroBufferDiskAccessesMatchStorageReads) {
  std::vector<std::unique_ptr<TreeFixture>> fixtures;
  std::vector<const RStarTree*> trees;
  for (int i = 0; i < 3; ++i) {
    fixtures.push_back(
        std::make_unique<TreeFixture>(/*buffer_pages=*/0, /*page_size=*/512));
    KCPQ_ASSERT_OK(fixtures.back()->Build(MakeUniformItems(150, 1300 + i)));
    trees.push_back(&fixtures.back()->tree());
  }
  const std::vector<MultiwayEdge> graph = {{0, 1}, {1, 2}};
  for (const uint64_t budget : {uint64_t{0}, uint64_t{5}, uint64_t{40}}) {
    uint64_t reads_before = 0;
    for (const auto& f : fixtures) reads_before += f->storage().stats().reads;
    QueryContext ctx;
    ctx.control().max_node_accesses = budget;
    MultiwayOptions options;
    options.k = 6;
    options.context = &ctx;
    CpqStats stats;
    auto result = MultiwayKClosestTuples(trees, graph, options, &stats);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    uint64_t reads_after = 0;
    for (const auto& f : fixtures) reads_after += f->storage().stats().reads;
    EXPECT_GT(stats.disk_accesses(), 0u) << "budget " << budget;
    EXPECT_EQ(stats.disk_accesses(), reads_after - reads_before)
        << "budget " << budget;
  }
}

TEST(MultiwayTest, DifferentTreeHeights) {
  std::vector<std::vector<std::pair<Point, uint64_t>>> sets = {
      MakeUniformItems(2000, 1302), MakeUniformItems(50, 1303),
      MakeUniformItems(400, 1304)};
  std::vector<std::unique_ptr<TreeFixture>> fixtures;
  std::vector<const RStarTree*> trees;
  for (const auto& set : sets) {
    fixtures.push_back(std::make_unique<TreeFixture>());
    KCPQ_ASSERT_OK(fixtures.back()->Build(set));
    trees.push_back(&fixtures.back()->tree());
  }
  const auto graph = MakeGraph(3, "chain");
  MultiwayOptions options;
  options.k = 5;
  auto result = MultiwayKClosestTuples(trees, graph, options);
  ASSERT_TRUE(result.ok());
  ExpectSameDistances(result.value(),
                      BruteForceMultiwayKClosestTuples(sets, graph, 5));
}

TEST(MultiwayTest, InvalidArgumentsRejected) {
  TreeFixture fp, fq;
  KCPQ_ASSERT_OK(fp.Build(MakeUniformItems(10, 1305)));
  KCPQ_ASSERT_OK(fq.Build(MakeUniformItems(10, 1306)));
  MultiwayOptions options;
  // One tree.
  EXPECT_FALSE(MultiwayKClosestTuples({&fp.tree()}, {{0, 0}}, options).ok());
  // No edges.
  EXPECT_FALSE(
      MultiwayKClosestTuples({&fp.tree(), &fq.tree()}, {}, options).ok());
  // Self edge.
  EXPECT_FALSE(
      MultiwayKClosestTuples({&fp.tree(), &fq.tree()}, {{1, 1}}, options)
          .ok());
  // Out-of-range index.
  EXPECT_FALSE(
      MultiwayKClosestTuples({&fp.tree(), &fq.tree()}, {{0, 2}}, options)
          .ok());
}

TEST(MultiwayTest, EmptyTreeGivesEmptyResult) {
  TreeFixture fp, fq;
  KCPQ_ASSERT_OK(fp.Build(MakeUniformItems(10, 1307)));
  MultiwayOptions options;
  auto result =
      MultiwayKClosestTuples({&fp.tree(), &fq.tree()}, {{0, 1}}, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().empty());
}

TEST(MultiwayTest, HeapGuardTrips) {
  TreeFixture fp, fq, fr;
  KCPQ_ASSERT_OK(fp.Build(MakeUniformItems(2000, 1308)));
  KCPQ_ASSERT_OK(fq.Build(MakeUniformItems(2000, 1309)));
  KCPQ_ASSERT_OK(fr.Build(MakeUniformItems(2000, 1310)));
  MultiwayOptions options;
  options.k = 100;
  options.max_heap_items = 10;  // absurdly small
  auto result = MultiwayKClosestTuples({&fp.tree(), &fq.tree(), &fr.tree()},
                                       MakeGraph(3, "chain"), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(MultiwayTest, KLargerThanCrossProduct) {
  std::vector<std::vector<std::pair<Point, uint64_t>>> sets = {
      MakeUniformItems(3, 1311), MakeUniformItems(4, 1312)};
  TreeFixture fp, fq;
  KCPQ_ASSERT_OK(fp.Build(sets[0]));
  KCPQ_ASSERT_OK(fq.Build(sets[1]));
  MultiwayOptions options;
  options.k = 100;
  auto result =
      MultiwayKClosestTuples({&fp.tree(), &fq.tree()}, {{0, 1}}, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().size(), 12u);  // all pairs
}

}  // namespace
}  // namespace kcpq
