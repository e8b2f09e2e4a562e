// Tests for the ε distance range join, including the 50-seed golden that
// pins its pairs, disk and node accesses, work counters and certificate.
// Regenerate tests/golden/differential_distance_join.txt with
//
//   KCPQ_UPDATE_GOLDEN=1 ./distance_join_test --gtest_filter='*FiftySeeds*'
//
// and review the diff: a changed line means a changed answer or cost.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <set>
#include <string>

#include "cpq/distance_join.h"
#include "gtest/gtest.h"
#include "obs/kcpq_metrics.h"
#include "obs/metrics.h"
#include "tests/differential_mix.h"
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

// The engine's sweep agrees with the nested-loop oracle across epsilons,
// and actually skips pairs once epsilon prunes anything.
TEST_P(DistanceJoinTest, LeafKernelsAgreeAcrossEpsilons) {
  const double epsilon = GetParam();
  const auto p_items = MakeUniformItems(500, 1100);
  const auto q_items = MakeClusteredItems(500, 1101);
  TreeFixture fp, fq;
  KCPQ_ASSERT_OK(fp.Build(p_items));
  KCPQ_ASSERT_OK(fq.Build(q_items));

  const auto want = BruteForceDistanceRangeJoin(p_items, q_items, epsilon);
  CpqStats stats;
  auto sweep = DistanceRangeJoin(fp.tree(), fq.tree(), epsilon, {}, &stats);
  ASSERT_TRUE(sweep.ok());
  ExpectSameJoin(sweep.value(), want);
  // Every qualifying pair had its distance computed. Skipped + computed
  // are the point pairs of the leaf pairs processed; in a cross join each
  // point pair lies under one leaf pair at most.
  EXPECT_GE(stats.point_distance_computations, want.size());
  EXPECT_LE(stats.point_distance_computations + stats.leaf_pairs_skipped,
            uint64_t{p_items.size()} * q_items.size());
  if (epsilon > 0.0 && epsilon <= 0.05) {
    EXPECT_GT(stats.leaf_pairs_skipped, 0u);
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

// An ε-join runs on the K-CPQ state machine, so it folds the kcpq_cpq_*
// counters exactly once per join, like every other CPQ query.
TEST(DistanceJoinTest, FoldsCpqMetricsOnce) {
  if (!obs::MetricsCompiledIn()) GTEST_SKIP() << "metrics compiled out";
  TreeFixture fp, fq;
  KCPQ_ASSERT_OK(fp.Build(MakeUniformItems(200, 1016)));
  KCPQ_ASSERT_OK(fq.Build(MakeUniformItems(200, 1017)));
  const obs::KcpqMetrics& m = obs::KcpqMetrics::Get();
  const uint64_t before = m.cpq_queries_total->value();
  CpqStats stats;
  auto result = DistanceRangeJoin(fp.tree(), fq.tree(), 0.05, {}, &stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_GT(stats.node_pairs_processed, 0u);
  EXPECT_EQ(m.cpq_queries_total->value() - before, 1u);
}

// ---------------------------------------------------------------------------
// 50-seed golden: every seed of tests/differential_mix.h runs a cross join
// at two ε values, a self-join of P, a join under a 16-node-access budget,
// an accounted join with budget 0 (unlimited) and a pre-cancelled join,
// once over zero-page buffers and once over 8-page LRU buffers (whose
// state carries from one join to the next). 512-byte pages make the trees
// deep enough that the LRU buffer both hits and misses. Metric, leaf kernel and height
// strategy vary with the seed.

uint64_t Fnv1a(uint64_t h, uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xff;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string JoinDigestLine(int seed, size_t index, const char* buffer,
                           const std::vector<PairResult>& pairs,
                           const CpqStats& s) {
  uint64_t ids = 1469598103934665603ULL;
  uint64_t distances = 1469598103934665603ULL;
  for (const PairResult& pair : pairs) {
    ids = Fnv1a(Fnv1a(ids, pair.p_id), pair.q_id);
    uint64_t bits;
    std::memcpy(&bits, &pair.distance, sizeof(bits));
    distances = Fnv1a(distances, bits);
  }
  const QueryQuality& c = s.quality;
  char buf[768];
  std::snprintf(
      buf, sizeof(buf),
      "%d %zu %s pairs=%zu ids=%016llx dist=%016llx disk=%llu/%llu "
      "nodes=%llu generated=%llu pruned=%llu distances=%llu skipped=%llu "
      "node_pairs=%llu cert=%s/%s/%llu/%s/%zu missing=%llu lb=%.17g",
      seed, index, buffer, pairs.size(),
      static_cast<unsigned long long>(ids),
      static_cast<unsigned long long>(distances),
      static_cast<unsigned long long>(s.disk_accesses_p),
      static_cast<unsigned long long>(s.disk_accesses_q),
      static_cast<unsigned long long>(s.node_accesses),
      static_cast<unsigned long long>(s.candidate_pairs_generated),
      static_cast<unsigned long long>(s.candidate_pairs_pruned),
      static_cast<unsigned long long>(s.point_distance_computations),
      static_cast<unsigned long long>(s.leaf_pairs_skipped),
      static_cast<unsigned long long>(s.node_pairs_processed),
      StopCauseName(c.stop_cause), c.is_exact ? "exact" : "inexact",
      static_cast<unsigned long long>(c.pairs_found),
      c.bound_is_upper ? "upper" : "lower", c.rank_lower_bounds.size(),
      static_cast<unsigned long long>(c.missing_pair_bound),
      c.guaranteed_lower_bound);
  return buf;
}

std::string JoinGoldenPath() {
  return std::string(KCPQ_TEST_GOLDEN_DIR) + "/differential_distance_join.txt";
}

// Checks one join against the oracle: a complete join reports exactly the
// brute-force pairs; a partial one reports only genuine pairs and misses
// no more than its certificate admits.
void ExpectMatchesOracle(const std::vector<PairResult>& got,
                         const std::vector<PairResult>& want,
                         const CpqStats& stats, const std::string& label) {
  if (!stats.quality.is_partial() || stats.quality.is_exact) {
    SCOPED_TRACE(label);
    ExpectSameJoin(got, want);
    return;
  }
  std::set<std::pair<uint64_t, uint64_t>> genuine;
  for (const PairResult& pr : want) genuine.emplace(pr.p_id, pr.q_id);
  for (const PairResult& pr : got) {
    ASSERT_TRUE(genuine.count({pr.p_id, pr.q_id})) << label;
  }
  EXPECT_GE(stats.quality.missing_pair_bound, want.size() - got.size())
      << label;
}

TEST(DistanceJoinDifferential, FiftySeedsMatchGolden) {
  const bool update = std::getenv("KCPQ_UPDATE_GOLDEN") != nullptr;
  const std::vector<std::string> golden =
      testing::LoadDifferentialGolden(JoinGoldenPath());
  if (!update) {
    ASSERT_FALSE(golden.empty()) << "missing golden file " << JoinGoldenPath()
                                 << " (run with KCPQ_UPDATE_GOLDEN=1)";
  }
  std::vector<std::string> emitted;
  size_t row = 0;
  for (int seed = 0; seed < testing::kDifferentialSeeds; ++seed) {
    const testing::DifferentialData data = testing::MakeDifferentialData(seed);
    const Metric metric = (seed % 4 == 1) ? Metric::kL1 : Metric::kL2;
    DistanceJoinOptions base;
    base.metric = metric;
    base.height_strategy = seed % 5 == 3 ? HeightStrategy::kFixAtLeaves
                                         : HeightStrategy::kFixAtRoot;
    const double small_eps = 0.02;
    const double large_eps = 0.08;
    const std::vector<PairResult> cross_small =
        BruteForceDistanceRangeJoin(data.p, data.q, small_eps, false, metric);
    const std::vector<PairResult> cross_large =
        BruteForceDistanceRangeJoin(data.p, data.q, large_eps, false, metric);
    const std::vector<PairResult> self =
        BruteForceDistanceRangeJoin(data.p, data.p, small_eps, true, metric);

    for (const size_t buffer_pages : {size_t{0}, size_t{8}}) {
      const char* buffer = buffer_pages == 0 ? "zero" : "lru8";
      TreeFixture fp(buffer_pages, 512), fq(buffer_pages, 512);
      KCPQ_ASSERT_OK(fp.Build(data.p));
      KCPQ_ASSERT_OK(fq.Build(data.q));
      size_t index = 0;
      const auto run = [&](const RStarTree& p, const RStarTree& q,
                           double epsilon, DistanceJoinOptions options,
                           const std::vector<PairResult>& want) {
        CpqStats stats;
        Result<std::vector<PairResult>> r =
            DistanceRangeJoin(p, q, epsilon, options, &stats);
        const std::string label = "seed " + std::to_string(seed) + " " +
                                  buffer + " join " + std::to_string(index);
        ASSERT_TRUE(r.ok()) << label << ": " << r.status().ToString();
        ExpectMatchesOracle(r.value(), want, stats, label);
        const std::string line =
            JoinDigestLine(seed, index++, buffer, r.value(), stats);
        if (update) {
          emitted.push_back(line);
        } else {
          ASSERT_LT(row, golden.size()) << label << ": golden file too short";
          EXPECT_EQ(line, golden[row]) << label;
        }
        ++row;
      };
      run(fp.tree(), fq.tree(), small_eps, base, cross_small);
      run(fp.tree(), fq.tree(), large_eps, base, cross_large);
      DistanceJoinOptions self_options = base;
      self_options.self_join = true;
      run(fp.tree(), fp.tree(), small_eps, self_options, self);
      for (const uint64_t budget : {uint64_t{16}, uint64_t{0}}) {
        QueryContext ctx;
        ctx.control().max_node_accesses = budget;
        DistanceJoinOptions limited = base;
        limited.context = &ctx;
        run(fp.tree(), fq.tree(), large_eps, limited, cross_large);
      }
      CancellationSource cancel;
      cancel.Cancel();
      QueryContext cancelled;
      cancelled.control().cancel = cancel.token();
      DistanceJoinOptions pre_tripped = base;
      pre_tripped.context = &cancelled;
      run(fp.tree(), fq.tree(), large_eps, pre_tripped, cross_large);
    }
  }
  if (update) {
    std::ofstream out(JoinGoldenPath());
    out << "# seed join buffer pairs=N ids=FNV-1a(p_id,q_id...) "
           "dist=FNV-1a(distance bits...) disk=P/Q nodes=N generated=N "
           "pruned=N distances=N skipped=N node_pairs=N "
           "cert=stop/exact/found/direction/ranks missing=N lb=D\n";
    for (const std::string& line : emitted) out << line << "\n";
    GTEST_SKIP() << "golden updated: " << JoinGoldenPath();
  }
  EXPECT_EQ(row, golden.size()) << "golden file has extra lines";
}

}  // namespace
}  // namespace kcpq
