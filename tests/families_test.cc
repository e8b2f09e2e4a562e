// Differential suite for the non-paper objective families (farthest pairs
// and rectangle-restricted closest pairs): 50 seeded workloads, K in
// {1, 10}, blocking vs. resumable scheduler, speculation off and on — every
// configuration must match an independent brute-force oracle, and the two
// schedulers must agree bit-for-bit on pairs and disk accesses (buffer
// capacity 0, where per-query reads are exactly the traversal's).

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "cpq/cpq.h"
#include "cpq/objective.h"
#include "exec/batch.h"
#include "geometry/minkowski.h"
#include "gtest/gtest.h"
#include "hs/hs.h"
#include "tests/test_util.h"

namespace kcpq {
namespace {

using testing::MakeClusteredItems;
using testing::MakeUniformItems;
using testing::RandomRect;
using testing::TreeFixture;

using Items = std::vector<std::pair<Point, uint64_t>>;

bool InRect(const Rect& rect, const Point& p) {
  return rect.Contains(Rect::FromPoint(p));
}

// Independent oracle: all eligible pair distances, best-first for the
// family (descending for farthest), truncated to k. Plain sort over the
// full cross product — no tree, no heap, no shared pruning code.
std::vector<double> OracleDistances(const Items& p, const Items& q,
                                    size_t k, QueryFamily family,
                                    const Rect& rect) {
  std::vector<double> d;
  d.reserve(p.size() * q.size());
  for (const auto& [pp, pid] : p) {
    for (const auto& [qq, qid] : q) {
      if (family == QueryFamily::kRangeClosest &&
          (!InRect(rect, pp) || !InRect(rect, qq))) {
        continue;
      }
      d.push_back(PowToDistance(PointDistancePow(pp, qq, Metric::kL2),
                                Metric::kL2));
    }
  }
  std::sort(d.begin(), d.end());
  if (family == QueryFamily::kFarthest) std::reverse(d.begin(), d.end());
  if (d.size() > k) d.resize(k);
  return d;
}

void ExpectMatchesOracle(const std::vector<PairResult>& got,
                         const std::vector<double>& want,
                         QueryFamily family, const Rect& rect,
                         const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_NEAR(got[i].distance, want[i], 1e-9)
        << label << " rank " << i;
    // The pair is genuine: its distance recomputes from its points, and
    // the restricted family only reports points inside the rectangle.
    ASSERT_NEAR(PowToDistance(PointDistancePow(got[i].p, got[i].q,
                                               Metric::kL2),
                              Metric::kL2),
                got[i].distance, 1e-12)
        << label << " rank " << i;
    if (family == QueryFamily::kRangeClosest) {
      ASSERT_TRUE(InRect(rect, got[i].p) && InRect(rect, got[i].q))
          << label << " rank " << i << " outside the query rect";
    }
  }
}

// Scheduler equivalence is stricter than oracle equivalence: identical
// ids, bitwise-identical distances, and identical disk-access counts.
void ExpectBitIdentical(const BatchQueryResult& got,
                        const BatchQueryResult& want,
                        const std::string& label) {
  ASSERT_EQ(got.pairs.size(), want.pairs.size()) << label;
  for (size_t i = 0; i < got.pairs.size(); ++i) {
    EXPECT_EQ(got.pairs[i].p_id, want.pairs[i].p_id) << label << " " << i;
    EXPECT_EQ(got.pairs[i].q_id, want.pairs[i].q_id) << label << " " << i;
    EXPECT_EQ(got.pairs[i].distance, want.pairs[i].distance)
        << label << " " << i;
  }
  EXPECT_EQ(got.stats.disk_accesses_p, want.stats.disk_accesses_p) << label;
  EXPECT_EQ(got.stats.disk_accesses_q, want.stats.disk_accesses_q) << label;
  EXPECT_EQ(got.stats.node_accesses, want.stats.node_accesses) << label;
  EXPECT_EQ(got.stats.quality.stop_cause, want.stats.quality.stop_cause)
      << label;
}

struct MixEntry {
  QueryFamily family;
  size_t k;
  bool hs;  // run as the HS incremental join instead of the CPQ engine
};

// The per-seed query mix: engine farthest/rcp x K in {1, 10}, plus HS
// riders for both families (HS carries family/query_rect through the
// batch executor too).
std::vector<BatchQuery> MakeFamilyMix(const Rect& rect,
                                      std::vector<MixEntry>* mix) {
  std::vector<BatchQuery> queries;
  mix->clear();
  for (QueryFamily family :
       {QueryFamily::kFarthest, QueryFamily::kRangeClosest}) {
    for (size_t k : {size_t{1}, size_t{10}}) {
      BatchQuery q;
      q.options.k = k;
      q.options.family = family;
      if (family == QueryFamily::kRangeClosest) q.options.query_rect = rect;
      queries.push_back(q);
      mix->push_back({family, k, false});
    }
  }
  for (QueryFamily family :
       {QueryFamily::kFarthest, QueryFamily::kRangeClosest}) {
    BatchQuery q;
    q.kind = BatchQueryKind::kHsClosestPairs;
    q.options.k = 10;
    q.options.family = family;
    if (family == QueryFamily::kRangeClosest) q.options.query_rect = rect;
    queries.push_back(q);
    mix->push_back({family, 10, true});
  }
  return queries;
}

TEST(FamiliesDifferential, FiftySeedsMatchOracleAndSchedulersAgree) {
  for (int seed = 0; seed < 50; ++seed) {
    const size_t np = 70 + static_cast<size_t>(seed % 5) * 30;
    const size_t nq = 70 + static_cast<size_t>((seed / 5) % 5) * 30;
    const Items items_p = MakeUniformItems(np, 7000 + seed);
    const Items items_q = seed % 2 == 0
                              ? MakeUniformItems(nq, 8000 + seed)
                              : MakeClusteredItems(nq, 8000 + seed);
    TreeFixture fp(0), fq(0);
    KCPQ_ASSERT_OK(fp.Build(items_p));
    KCPQ_ASSERT_OK(fq.Build(items_q));

    Xoshiro256pp rng(4200 + static_cast<uint64_t>(seed));
    const Rect rect = RandomRect(rng, 0.6);

    std::vector<MixEntry> mix;
    const std::vector<BatchQuery> queries = MakeFamilyMix(rect, &mix);

    for (size_t window : {size_t{0}, size_t{8}}) {
      BatchOptions blocking;
      blocking.threads = 2;
      blocking.prefetch_window = window;
      const std::vector<BatchQueryResult> want =
          BatchKClosestPairs(fp.tree(), fq.tree(), queries, blocking);

      BatchOptions resumable = blocking;
      resumable.scheduler = SchedulerMode::kResumable;
      resumable.max_inflight = queries.size();
      const std::vector<BatchQueryResult> got =
          BatchKClosestPairs(fp.tree(), fq.tree(), queries, resumable);

      ASSERT_EQ(want.size(), queries.size());
      ASSERT_EQ(got.size(), queries.size());
      for (size_t i = 0; i < queries.size(); ++i) {
        const std::string label =
            "seed " + std::to_string(seed) + " query " + std::to_string(i) +
            " window " + std::to_string(window);
        ASSERT_TRUE(want[i].status.ok()) << label << want[i].status.ToString();
        ASSERT_TRUE(got[i].status.ok()) << label << got[i].status.ToString();
        const std::vector<double> oracle = OracleDistances(
            items_p, items_q, mix[i].k, mix[i].family, rect);
        ExpectMatchesOracle(want[i].pairs, oracle, mix[i].family, rect,
                            label + " blocking");
        ExpectMatchesOracle(got[i].pairs, oracle, mix[i].family, rect,
                            label + " resumable");
        ExpectBitIdentical(got[i], want[i], label);
      }
    }
  }
}

// Speculation must not change results or the paper's cost metric: the
// prefetch-on runs above already compare against the same oracle; this
// pins blocking prefetch-on == prefetch-off bit-for-bit per family.
TEST(FamiliesDifferential, PrefetchInvisibleToResultsAndDiskAccesses) {
  const Items items_p = MakeUniformItems(300, 71);
  const Items items_q = MakeClusteredItems(300, 72);
  TreeFixture fp(0), fq(0);
  KCPQ_ASSERT_OK(fp.Build(items_p));
  KCPQ_ASSERT_OK(fq.Build(items_q));
  Xoshiro256pp rng(73);
  const Rect rect = RandomRect(rng, 0.7);

  std::vector<MixEntry> mix;
  const std::vector<BatchQuery> queries = MakeFamilyMix(rect, &mix);
  BatchOptions off;
  off.threads = 1;
  const std::vector<BatchQueryResult> want =
      BatchKClosestPairs(fp.tree(), fq.tree(), queries, off);
  BatchOptions on = off;
  on.prefetch_window = 8;
  const std::vector<BatchQueryResult> got =
      BatchKClosestPairs(fp.tree(), fq.tree(), queries, on);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ExpectBitIdentical(got[i], want[i], "query " + std::to_string(i));
  }
}

TEST(FamiliesEdgeCases, FarthestWithOversizedKReturnsAllPairsDescending) {
  const Items items_p = MakeUniformItems(13, 81);
  const Items items_q = MakeUniformItems(17, 82);
  TreeFixture fp(0), fq(0);
  KCPQ_ASSERT_OK(fp.Build(items_p));
  KCPQ_ASSERT_OK(fq.Build(items_q));
  CpqOptions options;
  options.family = QueryFamily::kFarthest;
  options.k = items_p.size() * items_q.size() + 5;
  auto result = KClosestPairs(fp.tree(), fq.tree(), options);
  KCPQ_ASSERT_OK(result.status());
  const std::vector<double> oracle = OracleDistances(
      items_p, items_q, options.k, QueryFamily::kFarthest, Rect{});
  ASSERT_EQ(result.value().size(), items_p.size() * items_q.size());
  for (size_t i = 0; i < result.value().size(); ++i) {
    ASSERT_NEAR(result.value()[i].distance, oracle[i], 1e-9) << i;
    if (i > 0) {
      ASSERT_LE(result.value()[i].distance,
                result.value()[i - 1].distance + 1e-12);
    }
  }
}

TEST(FamiliesEdgeCases, RcpWithDisjointRectIsEmpty) {
  TreeFixture fp(0), fq(0);
  KCPQ_ASSERT_OK(fp.Build(MakeUniformItems(120, 91)));
  KCPQ_ASSERT_OK(fq.Build(MakeUniformItems(120, 92)));
  CpqOptions options;
  options.family = QueryFamily::kRangeClosest;
  options.k = 10;
  options.query_rect.lo[0] = 5.0;
  options.query_rect.lo[1] = 5.0;
  options.query_rect.hi[0] = 6.0;
  options.query_rect.hi[1] = 6.0;
  CpqStats stats;
  auto result = KClosestPairs(fp.tree(), fq.tree(), options, &stats);
  KCPQ_ASSERT_OK(result.status());
  EXPECT_TRUE(result.value().empty());
  // Every root child is ineligible: nothing below the roots is expanded.
  EXPECT_LE(stats.node_pairs_processed, 1u);
}

TEST(FamiliesEdgeCases, RcpWithCoveringRectMatchesClosest) {
  const Items items_p = MakeUniformItems(200, 93);
  const Items items_q = MakeUniformItems(200, 94);
  TreeFixture fp(0), fq(0);
  KCPQ_ASSERT_OK(fp.Build(items_p));
  KCPQ_ASSERT_OK(fq.Build(items_q));
  CpqOptions closest;
  closest.k = 10;
  auto want = KClosestPairs(fp.tree(), fq.tree(), closest);
  KCPQ_ASSERT_OK(want.status());
  CpqOptions rcp = closest;
  rcp.family = QueryFamily::kRangeClosest;
  rcp.query_rect = UnitWorkspace();
  auto got = KClosestPairs(fp.tree(), fq.tree(), rcp);
  KCPQ_ASSERT_OK(got.status());
  ASSERT_EQ(got.value().size(), want.value().size());
  for (size_t i = 0; i < got.value().size(); ++i) {
    EXPECT_EQ(got.value()[i].p_id, want.value()[i].p_id) << i;
    EXPECT_EQ(got.value()[i].q_id, want.value()[i].q_id) << i;
    EXPECT_EQ(got.value()[i].distance, want.value()[i].distance) << i;
  }
}

// A budget-stopped farthest query certifies an *upper* bound: every true
// pair it failed to report must be at most that far apart.
TEST(FamiliesEdgeCases, FarthestAnytimeCertificateIsUpperBound) {
  const Items items_p = MakeUniformItems(300, 95);
  const Items items_q = MakeUniformItems(300, 96);
  TreeFixture fp(0), fq(0);
  KCPQ_ASSERT_OK(fp.Build(items_p));
  KCPQ_ASSERT_OK(fq.Build(items_q));
  QueryContext ctx;
  ctx.control().max_node_accesses = 6;
  CpqOptions options;
  options.family = QueryFamily::kFarthest;
  options.k = 10;
  options.context = &ctx;
  CpqStats stats;
  auto result = KClosestPairs(fp.tree(), fq.tree(), options, &stats);
  KCPQ_ASSERT_OK(result.status());
  ASSERT_TRUE(stats.quality.is_partial());
  EXPECT_TRUE(stats.quality.bound_is_upper);
  const double bound = stats.quality.guaranteed_lower_bound;
  // Reported pairs beyond the bound account for every true pair beyond it.
  const std::vector<double> oracle =
      OracleDistances(items_p, items_q, items_p.size() * items_q.size(),
                      QueryFamily::kFarthest, Rect{});
  size_t true_beyond = 0;
  for (double d : oracle) {
    if (d > bound + 1e-9) ++true_beyond;
  }
  size_t reported_beyond = 0;
  for (const PairResult& pr : result.value()) {
    if (pr.distance > bound + 1e-9) ++reported_beyond;
  }
  EXPECT_EQ(true_beyond, reported_beyond)
      << "a pair farther than the certified upper bound was missed";
}

}  // namespace
}  // namespace kcpq
