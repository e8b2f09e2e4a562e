// Correctness of the five K-CPQ algorithms: every algorithm, for every
// combination of data sizes, K, overlap, distribution, tie strategy and
// height strategy, must return the same distance multiset as a brute-force
// scan. (Distance ties make the pair *set* non-unique — the paper returns
// any valid instance — so tests compare sorted distance sequences plus
// validity of each reported pair.)

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "cpq/brute.h"
#include "cpq/cpq.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace kcpq {
namespace {

using testing::MakeClusteredItems;
using testing::MakeUniformItems;
using testing::TreeFixture;

constexpr CpqAlgorithm kAllAlgorithms[] = {
    CpqAlgorithm::kNaive, CpqAlgorithm::kExhaustive, CpqAlgorithm::kSimple,
    CpqAlgorithm::kSortedDistances, CpqAlgorithm::kHeap};

// Asserts `got` is a valid K-CPQ answer for (p_items, q_items):
// ascending order, correct distances, pairs actually from the inputs, and
// the same distance sequence as the brute-force reference.
void ExpectValidResult(const std::vector<PairResult>& got,
                       const std::vector<std::pair<Point, uint64_t>>& p_items,
                       const std::vector<std::pair<Point, uint64_t>>& q_items,
                       size_t k) {
  const std::vector<PairResult> want =
      BruteForceKClosestPairs(p_items, q_items, k);
  ASSERT_EQ(got.size(), want.size());
  std::map<uint64_t, Point> p_by_id;
  for (const auto& [pt, id] : p_items) p_by_id[id] = pt;
  std::map<uint64_t, Point> q_by_id;
  for (const auto& [pt, id] : q_items) q_by_id[id] = pt;

  for (size_t i = 0; i < got.size(); ++i) {
    // Ascending and matching the reference distance-for-rank.
    ASSERT_NEAR(got[i].distance, want[i].distance, 1e-9)
        << "rank " << i << " distance mismatch";
    if (i > 0) {
      ASSERT_GE(got[i].distance, got[i - 1].distance - 1e-12);
    }
    // The pair is genuine: ids exist and distances recompute.
    auto pit = p_by_id.find(got[i].p_id);
    auto qit = q_by_id.find(got[i].q_id);
    ASSERT_NE(pit, p_by_id.end());
    ASSERT_NE(qit, q_by_id.end());
    ASSERT_EQ(pit->second, got[i].p);
    ASSERT_EQ(qit->second, got[i].q);
    ASSERT_NEAR(Distance(got[i].p, got[i].q), got[i].distance, 1e-12);
  }
}

struct CpqParam {
  size_t np;
  size_t nq;
  size_t k;
  double overlap;
  bool clustered;
  uint64_t seed;
};

class CpqAlgorithmsTest : public ::testing::TestWithParam<CpqParam> {};

TEST_P(CpqAlgorithmsTest, AllAlgorithmsMatchBruteForce) {
  const CpqParam param = GetParam();
  const Rect ws_p = UnitWorkspace();
  const Rect ws_q = ShiftedWorkspace(ws_p, param.overlap);
  const auto p_items = param.clustered
                           ? MakeClusteredItems(param.np, param.seed, ws_p)
                           : MakeUniformItems(param.np, param.seed, ws_p);
  const auto q_items =
      param.clustered ? MakeClusteredItems(param.nq, param.seed + 1, ws_q)
                      : MakeUniformItems(param.nq, param.seed + 1, ws_q);

  TreeFixture fp, fq;
  KCPQ_ASSERT_OK(fp.Build(p_items));
  KCPQ_ASSERT_OK(fq.Build(q_items));

  for (const CpqAlgorithm algorithm : kAllAlgorithms) {
    // The naive algorithm visits every node pair; skip it for the largest
    // configurations to keep the suite fast.
    if (algorithm == CpqAlgorithm::kNaive && param.np * param.nq > 400000) {
      continue;
    }
    CpqOptions options;
    options.algorithm = algorithm;
    options.k = param.k;
    CpqStats stats;
    auto result = KClosestPairs(fp.tree(), fq.tree(), options, &stats);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    SCOPED_TRACE(CpqAlgorithmName(algorithm));
    ExpectValidResult(result.value(), p_items, q_items, param.k);
    EXPECT_GT(stats.node_pairs_processed, 0u);
  }
}

std::string CpqParamName(const ::testing::TestParamInfo<CpqParam>& info) {
  const CpqParam& p = info.param;
  char buf[128];
  std::snprintf(buf, sizeof(buf), "p%zu_q%zu_k%zu_ov%d_%s_s%llu", p.np, p.nq,
                p.k, static_cast<int>(p.overlap * 100),
                p.clustered ? "clu" : "uni",
                static_cast<unsigned long long>(p.seed));
  return buf;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CpqAlgorithmsTest,
    ::testing::Values(
        // Tiny: single-leaf roots, K = 1.
        CpqParam{5, 5, 1, 1.0, false, 100},
        CpqParam{1, 1, 1, 1.0, false, 101},
        // K exceeding the cross product: must return all pairs.
        CpqParam{4, 3, 50, 1.0, false, 102},
        // Small trees, varying overlap.
        CpqParam{200, 200, 1, 0.0, false, 103},
        CpqParam{200, 200, 10, 0.5, false, 104},
        CpqParam{200, 200, 100, 1.0, false, 105},
        // Different heights (one tree much bigger).
        CpqParam{2000, 150, 1, 1.0, false, 106},
        CpqParam{150, 2000, 25, 0.5, false, 107},
        // Clustered data (Sequoia-like), the paper's "real" analogue.
        CpqParam{800, 800, 1, 1.0, true, 108},
        CpqParam{800, 800, 64, 0.0, true, 109},
        // Larger uniform with moderate K.
        CpqParam{3000, 3000, 10, 0.25, false, 110},
        // Disjoint workspaces far apart.
        CpqParam{500, 500, 5, 0.0, true, 111}),
    CpqParamName);

// --- Option axes: every tie strategy, height strategy, pruning toggle ------

TEST(CpqOptionsTest, AllTieCriteriaGiveCorrectResults) {
  const auto p_items = MakeUniformItems(600, 200);
  const auto q_items = MakeUniformItems(600, 201);
  TreeFixture fp, fq;
  KCPQ_ASSERT_OK(fp.Build(p_items));
  KCPQ_ASSERT_OK(fq.Build(q_items));
  for (const TieCriterion tie :
       {TieCriterion::kLargestNormalizedArea, TieCriterion::kSmallestMinMaxDist,
        TieCriterion::kLargestAreaSum, TieCriterion::kSmallestEnclosureWaste,
        TieCriterion::kLargestIntersection}) {
    for (const CpqAlgorithm algorithm :
         {CpqAlgorithm::kSortedDistances, CpqAlgorithm::kHeap}) {
      CpqOptions options;
      options.algorithm = algorithm;
      options.k = 7;
      options.tie_chain = {tie};
      auto result = KClosestPairs(fp.tree(), fq.tree(), options);
      ASSERT_TRUE(result.ok());
      ExpectValidResult(result.value(), p_items, q_items, 7);
    }
  }
}

TEST(CpqOptionsTest, ChainedTieCriteriaGiveCorrectResults) {
  const auto p_items = MakeClusteredItems(500, 202);
  const auto q_items = MakeClusteredItems(500, 203);
  TreeFixture fp, fq;
  KCPQ_ASSERT_OK(fp.Build(p_items));
  KCPQ_ASSERT_OK(fq.Build(q_items));
  CpqOptions options;
  options.algorithm = CpqAlgorithm::kHeap;
  options.k = 3;
  options.tie_chain = {TieCriterion::kLargestNormalizedArea,
                       TieCriterion::kSmallestMinMaxDist,
                       TieCriterion::kLargestIntersection};
  auto result = KClosestPairs(fp.tree(), fq.tree(), options);
  ASSERT_TRUE(result.ok());
  ExpectValidResult(result.value(), p_items, q_items, 3);
}

TEST(CpqOptionsTest, EmptyTieChainGivesCorrectResults) {
  const auto p_items = MakeUniformItems(300, 204);
  const auto q_items = MakeUniformItems(300, 205);
  TreeFixture fp, fq;
  KCPQ_ASSERT_OK(fp.Build(p_items));
  KCPQ_ASSERT_OK(fq.Build(q_items));
  CpqOptions options;
  options.algorithm = CpqAlgorithm::kSortedDistances;
  options.tie_chain.clear();
  options.k = 4;
  auto result = KClosestPairs(fp.tree(), fq.tree(), options);
  ASSERT_TRUE(result.ok());
  ExpectValidResult(result.value(), p_items, q_items, 4);
}

TEST(CpqOptionsTest, BothHeightStrategiesCorrectOnUnequalTrees) {
  // 4000 vs 120 points: different heights by construction.
  const auto p_items = MakeUniformItems(4000, 206);
  const auto q_items = MakeUniformItems(120, 207);
  TreeFixture fp, fq;
  KCPQ_ASSERT_OK(fp.Build(p_items));
  KCPQ_ASSERT_OK(fq.Build(q_items));
  ASSERT_NE(fp.tree().height(), fq.tree().height());
  for (const HeightStrategy strategy :
       {HeightStrategy::kFixAtLeaves, HeightStrategy::kFixAtRoot}) {
    for (const CpqAlgorithm algorithm :
         {CpqAlgorithm::kExhaustive, CpqAlgorithm::kSimple,
          CpqAlgorithm::kSortedDistances, CpqAlgorithm::kHeap}) {
      CpqOptions options;
      options.algorithm = algorithm;
      options.height_strategy = strategy;
      options.k = 9;
      SCOPED_TRACE(CpqAlgorithmName(algorithm));
      auto result = KClosestPairs(fp.tree(), fq.tree(), options);
      ASSERT_TRUE(result.ok());
      ExpectValidResult(result.value(), p_items, q_items, 9);
    }
  }
}

TEST(CpqOptionsTest, MaxMaxPruningToggleBothCorrect) {
  const auto p_items = MakeUniformItems(1000, 208);
  const auto q_items = MakeUniformItems(1000, 209);
  TreeFixture fp, fq;
  KCPQ_ASSERT_OK(fp.Build(p_items));
  KCPQ_ASSERT_OK(fq.Build(q_items));
  for (const bool prune : {false, true}) {
    CpqOptions options;
    options.algorithm = CpqAlgorithm::kSortedDistances;
    options.k = 50;
    options.use_maxmaxdist_pruning = prune;
    auto result = KClosestPairs(fp.tree(), fq.tree(), options);
    ASSERT_TRUE(result.ok());
    ExpectValidResult(result.value(), p_items, q_items, 50);
  }
}

TEST(CpqTest, KZeroReturnsEmpty) {
  TreeFixture fp, fq;
  KCPQ_ASSERT_OK(fp.Build(MakeUniformItems(50, 210)));
  KCPQ_ASSERT_OK(fq.Build(MakeUniformItems(50, 211)));
  CpqOptions options;
  options.k = 0;
  auto result = KClosestPairs(fp.tree(), fq.tree(), options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().empty());
}

TEST(CpqTest, EmptyTreesReturnEmpty) {
  TreeFixture fp, fq;
  KCPQ_ASSERT_OK(fq.Build(MakeUniformItems(50, 212)));
  auto result = KClosestPairs(fp.tree(), fq.tree());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().empty());
  result = KClosestPairs(fq.tree(), fp.tree());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().empty());
}

TEST(CpqTest, IdenticalPointInBothSetsGivesZeroDistance) {
  auto p_items = MakeUniformItems(100, 213);
  auto q_items = MakeUniformItems(100, 214);
  q_items[50].first = p_items[30].first;  // plant an exact match
  TreeFixture fp, fq;
  KCPQ_ASSERT_OK(fp.Build(p_items));
  KCPQ_ASSERT_OK(fq.Build(q_items));
  for (const CpqAlgorithm algorithm : kAllAlgorithms) {
    CpqOptions options;
    options.algorithm = algorithm;
    auto result = KClosestPairs(fp.tree(), fq.tree(), options);
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(result.value().size(), 1u);
    EXPECT_DOUBLE_EQ(result.value()[0].distance, 0.0);
  }
}

TEST(CpqTest, StatsAccountingSane) {
  const auto p_items = MakeUniformItems(1000, 215);
  const auto q_items = MakeUniformItems(1000, 216);
  TreeFixture fp, fq;
  KCPQ_ASSERT_OK(fp.Build(p_items));
  KCPQ_ASSERT_OK(fq.Build(q_items));
  fp.buffer().ResetStats();
  fq.buffer().ResetStats();

  CpqOptions options;
  options.algorithm = CpqAlgorithm::kHeap;
  CpqStats stats;
  auto result = KClosestPairs(fp.tree(), fq.tree(), options, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(stats.disk_accesses(), 0u);
  EXPECT_GT(stats.max_heap_size, 0u);
  EXPECT_GT(stats.point_distance_computations, 0u);
  // With zero buffer every logical node access is a disk access; both trees
  // were touched.
  EXPECT_GT(stats.disk_accesses_p, 0u);
  EXPECT_GT(stats.disk_accesses_q, 0u);
}

TEST(CpqTest, PruningOrdering) {
  // Sanity on relative work: EXH must process at least as many node pairs
  // as STD on the same disjoint-workspace input (the order relation the
  // paper's Figure 4a rests on).
  const auto p_items = MakeUniformItems(3000, 217, UnitWorkspace());
  const auto q_items =
      MakeUniformItems(3000, 218, ShiftedWorkspace(UnitWorkspace(), 0.0));
  TreeFixture fp, fq;
  KCPQ_ASSERT_OK(fp.Build(p_items));
  KCPQ_ASSERT_OK(fq.Build(q_items));
  CpqStats exh, std_;
  CpqOptions options;
  options.algorithm = CpqAlgorithm::kExhaustive;
  ASSERT_TRUE(KClosestPairs(fp.tree(), fq.tree(), options, &exh).ok());
  options.algorithm = CpqAlgorithm::kSortedDistances;
  ASSERT_TRUE(KClosestPairs(fp.tree(), fq.tree(), options, &std_).ok());
  EXPECT_GE(exh.node_pairs_processed, std_.node_pairs_processed);
}


// Tall, thin node MBRs, where an L2 MINMAXDIST formed by subtracting from a
// sum of squared extents cancels to 0: K = 1 then set T = 0 and SIM, STD
// and HEAP returned no pair. Every algorithm, metric and K must return the
// brute-force pairs bit for bit, and so must the self-join on the union.
TEST(CpqTest, TallThinNodesKeepTheClosestPairs) {
  const auto [p_items, q_items] = testing::MakeTallThinItems(3000, 2611);
  TreeFixture fp, fq, fu;
  KCPQ_ASSERT_OK(fp.Build(p_items));
  KCPQ_ASSERT_OK(fq.Build(q_items));
  std::vector<std::pair<Point, uint64_t>> u_items = p_items;
  u_items.insert(u_items.end(), q_items.begin(), q_items.end());
  KCPQ_ASSERT_OK(fu.Build(u_items));
  const auto expect_same = [](const std::vector<PairResult>& got,
                              const std::vector<PairResult>& want,
                              const std::string& what) {
    ASSERT_EQ(got.size(), want.size()) << what;
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].p_id, want[i].p_id) << what << " rank " << i;
      EXPECT_EQ(got[i].q_id, want[i].q_id) << what << " rank " << i;
      EXPECT_EQ(got[i].distance, want[i].distance) << what << " rank " << i;
    }
  };
  for (const Metric metric : {Metric::kL1, Metric::kL2, Metric::kLinf}) {
    for (const size_t k : {size_t{1}, size_t{2}}) {
      const auto want = BruteForceKClosestPairs(p_items, q_items, k,
                                                /*self_join=*/false, metric);
      ASSERT_EQ(want.size(), k);
      for (const CpqAlgorithm algorithm : kAllAlgorithms) {
        CpqOptions options;
        options.algorithm = algorithm;
        options.metric = metric;
        options.k = k;
        auto result = KClosestPairs(fp.tree(), fq.tree(), options);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        expect_same(result.value(), want,
                    std::string(MetricName(metric)) + " " +
                        CpqAlgorithmName(algorithm) + " K=" +
                        std::to_string(k));
      }
    }
    const auto want = BruteForceKClosestPairs(u_items, u_items, 1,
                                              /*self_join=*/true, metric);
    for (const CpqAlgorithm algorithm : kAllAlgorithms) {
      CpqOptions options;
      options.algorithm = algorithm;
      options.metric = metric;
      auto result = SelfKClosestPairs(fu.tree(), options);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      expect_same(result.value(), want,
                  std::string("self ") + MetricName(metric) + " " +
                      CpqAlgorithmName(algorithm));
    }
  }
}

}  // namespace
}  // namespace kcpq
