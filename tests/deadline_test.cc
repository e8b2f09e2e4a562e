// Query lifecycle control tests: the anytime bound certificate, partial
// result determinism, and the per-path degradation semantics of
// QueryControl (see docs/robustness.md).
//
// The central property, checked against the brute oracle across seeded
// workloads and budget cutoffs: a budget-stopped K-CPQ returns OK with a
// quality report whose guaranteed_lower_bound is never exceeded by a true
// closer pair — every true pair strictly below the bound is already in the
// partial result.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cpq/brute.h"
#include "cpq/cpq.h"
#include "cpq/distance_join.h"
#include "cpq/engine.h"
#include "cpq/multiway.h"
#include "exec/batch.h"
#include "gtest/gtest.h"
#include "hs/hs.h"
#include "tests/test_util.h"

namespace kcpq {
namespace {

using testing::MakeClusteredItems;
using testing::MakeUniformItems;
using testing::TreeFixture;

constexpr double kTol = 1e-9;

// The anytime certificate, versus the brute oracle:
//  * every true top-K pair with distance < glb must be in the partial
//    result (the bound is honest), and
//  * element-wise, partial[i] can never beat the true i-th distance (the
//    partial pairs are genuine pairs).
void ExpectBoundHolds(const std::vector<PairResult>& partial,
                      const std::vector<PairResult>& brute, double glb,
                      const std::string& label) {
  size_t guaranteed = 0;
  while (guaranteed < brute.size() &&
         brute[guaranteed].distance < glb - kTol) {
    ++guaranteed;
  }
  ASSERT_GE(partial.size(), guaranteed) << label;
  for (size_t i = 0; i < guaranteed; ++i) {
    // The `guaranteed` closest pairs overall all sit in the partial
    // result, and nothing can sort below them: the sorted prefixes match.
    EXPECT_NEAR(partial[i].distance, brute[i].distance, kTol) << label;
  }
  for (size_t i = 0; i < partial.size() && i < brute.size(); ++i) {
    EXPECT_GE(partial[i].distance, brute[i].distance - kTol) << label;
  }
}

void ExpectSameDistances(const std::vector<PairResult>& got,
                         const std::vector<PairResult>& want,
                         const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i].distance, want[i].distance, kTol) << label;
  }
}

class AnytimeBoundTest : public ::testing::TestWithParam<int> {};

// 50 seeded workloads x several node-access budgets x the bounding
// algorithms: the partial result is OK-status, deterministic, and its
// certificate holds against the brute oracle. Exhaustive completion
// (budget larger than the query needs) must degrade to the exact answer
// with a clean (non-partial) quality report.
TEST_P(AnytimeBoundTest, CertifiedBoundHoldsVsBruteOracle) {
  const int seed = GetParam();
  const size_t np = 150 + static_cast<size_t>(seed % 4) * 60;
  const size_t nq = 150 + static_cast<size_t>((seed / 4) % 4) * 60;
  const size_t k = (seed % 3 == 0) ? 4 : (seed % 3 == 1) ? 10 : 32;
  const auto p_items = MakeUniformItems(np, 7000 + seed * 2);
  const auto q_items = (seed % 2 == 0)
                           ? MakeUniformItems(nq, 7001 + seed * 2)
                           : MakeClusteredItems(nq, 7001 + seed * 2);
  // Small pages -> real multi-level trees at these sizes, so budgets in
  // the tens actually interrupt mid-traversal.
  TreeFixture fp(/*buffer_pages=*/0, /*page_size=*/512);
  TreeFixture fq(/*buffer_pages=*/0, /*page_size=*/512);
  KCPQ_ASSERT_OK(fp.Build(p_items));
  KCPQ_ASSERT_OK(fq.Build(q_items));
  const std::vector<PairResult> brute =
      BruteForceKClosestPairs(p_items, q_items, k);

  constexpr uint64_t kBudgets[] = {2, 6, 12, 24, 60, 150, 1u << 20};
  constexpr CpqAlgorithm kAlgorithms[] = {
      CpqAlgorithm::kExhaustive, CpqAlgorithm::kSimple,
      CpqAlgorithm::kSortedDistances, CpqAlgorithm::kHeap};
  for (const CpqAlgorithm algorithm : kAlgorithms) {
    for (const uint64_t budget : kBudgets) {
      const std::string label = std::string(CpqAlgorithmName(algorithm)) +
                                " budget " + std::to_string(budget) +
                                " seed " + std::to_string(seed);
      QueryContext ctx;
      ctx.control().max_node_accesses = budget;
      CpqOptions options;
      options.algorithm = algorithm;
      options.k = k;
      options.context = &ctx;
      CpqStats stats;
      Result<std::vector<PairResult>> r =
          KClosestPairs(fp.tree(), fq.tree(), options, &stats);
      KCPQ_ASSERT_OK(r.status());
      const std::vector<PairResult>& partial = r.value();
      EXPECT_EQ(stats.quality.pairs_found, partial.size()) << label;

      if (!stats.quality.is_partial()) {
        // Budget never tripped: the full, exact answer.
        ExpectSameDistances(partial, brute, label);
        EXPECT_TRUE(stats.quality.is_exact) << label;
        continue;
      }
      EXPECT_EQ(stats.quality.stop_cause, StopCause::kNodeBudget) << label;
      // The budget is enforced promptly: overshoot is at most the final
      // node pair's two reads.
      EXPECT_LE(stats.node_accesses, budget + 2) << label;
      const double glb = stats.quality.guaranteed_lower_bound;
      EXPECT_GE(glb, 0.0) << label;
      ExpectBoundHolds(partial, brute, glb, label);
      if (stats.quality.is_exact) ExpectSameDistances(partial, brute, label);

      // Node-access budgets are deterministic: a re-run is bit-identical.
      // It gets a fresh context: a context serves exactly one query.
      QueryContext ctx2;
      ctx2.control().max_node_accesses = budget;
      options.context = &ctx2;
      CpqStats stats2;
      Result<std::vector<PairResult>> r2 =
          KClosestPairs(fp.tree(), fq.tree(), options, &stats2);
      KCPQ_ASSERT_OK(r2.status());
      ASSERT_EQ(r2.value().size(), partial.size()) << label;
      for (size_t i = 0; i < partial.size(); ++i) {
        EXPECT_EQ(r2.value()[i].p_id, partial[i].p_id) << label;
        EXPECT_EQ(r2.value()[i].q_id, partial[i].q_id) << label;
        EXPECT_EQ(r2.value()[i].distance, partial[i].distance) << label;
      }
      EXPECT_EQ(stats2.quality.guaranteed_lower_bound, glb) << label;
      EXPECT_EQ(stats2.node_accesses, stats.node_accesses) << label;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, AnytimeBoundTest,
                         ::testing::Range(0, 50));

// Partial results at a fixed node-access budget are identical regardless
// of the batch thread count: the budget counts logical node reads, not
// wall-clock or buffer behavior.
TEST(DeadlineTest, PartialResultsDeterministicAcrossThreadCounts) {
  const auto p_items = MakeUniformItems(500, 7201);
  const auto q_items = MakeClusteredItems(450, 7202);
  TreeFixture fp(/*buffer_pages=*/0, /*page_size=*/512);
  TreeFixture fq(/*buffer_pages=*/0, /*page_size=*/512);
  KCPQ_ASSERT_OK(fp.Build(p_items));
  KCPQ_ASSERT_OK(fq.Build(q_items));

  std::vector<BatchQuery> batch;
  constexpr CpqAlgorithm kAlgorithms[] = {
      CpqAlgorithm::kExhaustive, CpqAlgorithm::kSimple,
      CpqAlgorithm::kSortedDistances, CpqAlgorithm::kHeap};
  for (const CpqAlgorithm algorithm : kAlgorithms) {
    for (const uint64_t budget : {8u, 40u, 200u}) {
      BatchQuery query;
      query.options.algorithm = algorithm;
      query.options.k = 16;
      query.control.max_node_accesses = budget;
      batch.push_back(query);
    }
  }

  std::vector<std::vector<BatchQueryResult>> runs;
  for (const size_t threads : {size_t{1}, size_t{4}, size_t{8}}) {
    BatchOptions options;
    options.threads = threads;
    runs.push_back(BatchKClosestPairs(fp.tree(), fq.tree(), batch, options));
  }
  const auto& base = runs.front();
  for (size_t run = 1; run < runs.size(); ++run) {
    ASSERT_EQ(runs[run].size(), base.size());
    for (size_t i = 0; i < base.size(); ++i) {
      const std::string label = "query " + std::to_string(i) + " run " +
                                std::to_string(run);
      KCPQ_ASSERT_OK(base[i].status);
      KCPQ_ASSERT_OK(runs[run][i].status);
      EXPECT_EQ(runs[run][i].outcome, base[i].outcome) << label;
      EXPECT_EQ(runs[run][i].stats.quality.stop_cause,
                base[i].stats.quality.stop_cause)
          << label;
      EXPECT_EQ(runs[run][i].stats.quality.guaranteed_lower_bound,
                base[i].stats.quality.guaranteed_lower_bound)
          << label;
      EXPECT_EQ(runs[run][i].stats.node_accesses, base[i].stats.node_accesses)
          << label;
      ASSERT_EQ(runs[run][i].pairs.size(), base[i].pairs.size()) << label;
      for (size_t r = 0; r < base[i].pairs.size(); ++r) {
        EXPECT_EQ(runs[run][i].pairs[r].p_id, base[i].pairs[r].p_id) << label;
        EXPECT_EQ(runs[run][i].pairs[r].q_id, base[i].pairs[r].q_id) << label;
        EXPECT_EQ(runs[run][i].pairs[r].distance, base[i].pairs[r].distance)
            << label;
      }
    }
  }
}

// An already-expired deadline stops the query on its first poll — still an
// OK status, still a valid (vacuous or better) certificate.
TEST(DeadlineTest, ExpiredDeadlineReturnsPartialNotError) {
  const auto p_items = MakeUniformItems(300, 7301);
  const auto q_items = MakeUniformItems(300, 7302);
  TreeFixture fp, fq;
  KCPQ_ASSERT_OK(fp.Build(p_items));
  KCPQ_ASSERT_OK(fq.Build(q_items));

  QueryContext ctx;
  ctx.control().deadline = QueryControl::Clock::now() -
                           std::chrono::milliseconds(1);
  CpqOptions options;
  options.k = 5;
  options.context = &ctx;
  CpqStats stats;
  Result<std::vector<PairResult>> r =
      KClosestPairs(fp.tree(), fq.tree(), options, &stats);
  KCPQ_ASSERT_OK(r.status());
  EXPECT_EQ(stats.quality.stop_cause, StopCause::kDeadline);
  EXPECT_FALSE(stats.quality.is_exact);
  EXPECT_EQ(r.value().size(), 0u);
  // Root pair was never expanded: the honest bound is root MINMINDIST,
  // certainly finite and >= 0.
  EXPECT_GE(stats.quality.guaranteed_lower_bound, 0.0);
  EXPECT_TRUE(std::isfinite(stats.quality.guaranteed_lower_bound));
}

// A generous deadline changes nothing: exact result, clean quality.
TEST(DeadlineTest, GenerousDeadlineRunsToCompletion) {
  const auto p_items = MakeUniformItems(200, 7303);
  const auto q_items = MakeUniformItems(200, 7304);
  TreeFixture fp, fq;
  KCPQ_ASSERT_OK(fp.Build(p_items));
  KCPQ_ASSERT_OK(fq.Build(q_items));

  QueryContext ctx(QueryControl::WithDeadlineAfter(std::chrono::hours(1)));
  CpqOptions options;
  options.k = 7;
  options.context = &ctx;
  CpqStats stats;
  Result<std::vector<PairResult>> r =
      KClosestPairs(fp.tree(), fq.tree(), options, &stats);
  KCPQ_ASSERT_OK(r.status());
  EXPECT_FALSE(stats.quality.is_partial());
  EXPECT_TRUE(stats.quality.is_exact);
  ExpectSameDistances(r.value(), BruteForceKClosestPairs(p_items, q_items, 7),
                      "generous deadline");
}

// A pre-cancelled token stops before any work; cancellation mid-flight is
// the batch fail-fast test's job (chaos_test.cc).
TEST(DeadlineTest, CancelledTokenStopsQuery) {
  const auto p_items = MakeUniformItems(300, 7305);
  const auto q_items = MakeUniformItems(300, 7306);
  TreeFixture fp, fq;
  KCPQ_ASSERT_OK(fp.Build(p_items));
  KCPQ_ASSERT_OK(fq.Build(q_items));

  CancellationSource source;
  source.Cancel();
  QueryContext ctx;
  ctx.control().cancel = source.token();
  CpqOptions options;
  options.k = 5;
  options.context = &ctx;
  CpqStats stats;
  Result<std::vector<PairResult>> r =
      KClosestPairs(fp.tree(), fq.tree(), options, &stats);
  KCPQ_ASSERT_OK(r.status());
  EXPECT_EQ(stats.quality.stop_cause, StopCause::kCancelled);
  EXPECT_EQ(stats.node_accesses, 0u);
}

// A starvation-level candidate-memory budget trips kMemoryBudget; the
// certificate still holds.
TEST(DeadlineTest, MemoryBudgetTripsAndCertifies) {
  const auto p_items = MakeUniformItems(400, 7307);
  const auto q_items = MakeUniformItems(400, 7308);
  TreeFixture fp(/*buffer_pages=*/0, /*page_size=*/512);
  TreeFixture fq(/*buffer_pages=*/0, /*page_size=*/512);
  KCPQ_ASSERT_OK(fp.Build(p_items));
  KCPQ_ASSERT_OK(fq.Build(q_items));

  for (const CpqAlgorithm algorithm :
       {CpqAlgorithm::kSortedDistances, CpqAlgorithm::kHeap}) {
    QueryContext ctx;
    ctx.control().max_candidate_bytes = 512;
    CpqOptions options;
    options.algorithm = algorithm;
    options.k = 8;
    options.context = &ctx;
    CpqStats stats;
    Result<std::vector<PairResult>> r =
        KClosestPairs(fp.tree(), fq.tree(), options, &stats);
    KCPQ_ASSERT_OK(r.status());
    ASSERT_TRUE(stats.quality.is_partial());
    EXPECT_EQ(stats.quality.stop_cause, StopCause::kMemoryBudget);
    ExpectBoundHolds(r.value(), BruteForceKClosestPairs(p_items, q_items, 8),
                     stats.quality.guaranteed_lower_bound,
                     CpqAlgorithmName(algorithm));
  }
}

// ε-join under a node budget: the unreported qualifying pairs all lie at
// or beyond the certified bound.
TEST(DeadlineTest, DistanceJoinPartialBoundHolds) {
  const auto p_items = MakeUniformItems(400, 7401);
  const auto q_items = MakeUniformItems(400, 7402);
  TreeFixture fp(/*buffer_pages=*/0, /*page_size=*/512);
  TreeFixture fq(/*buffer_pages=*/0, /*page_size=*/512);
  KCPQ_ASSERT_OK(fp.Build(p_items));
  KCPQ_ASSERT_OK(fq.Build(q_items));
  const double epsilon = 0.05;
  const std::vector<PairResult> brute =
      BruteForceDistanceRangeJoin(p_items, q_items, epsilon);

  bool saw_partial = false;
  for (const uint64_t budget : {4u, 16u, 64u, 1u << 20}) {
    QueryContext ctx;
    ctx.control().max_node_accesses = budget;
    DistanceJoinOptions options;
    options.context = &ctx;
    CpqStats stats;
    Result<std::vector<PairResult>> r =
        DistanceRangeJoin(fp.tree(), fq.tree(), epsilon, options, &stats);
    KCPQ_ASSERT_OK(r.status());
    const std::string label = "join budget " + std::to_string(budget);
    if (!stats.quality.is_partial()) {
      ExpectSameDistances(r.value(), brute, label);
      continue;
    }
    saw_partial = true;
    const double glb = stats.quality.guaranteed_lower_bound;
    // Every reported pair is genuine: present in the brute join.
    EXPECT_LE(r.value().size(), brute.size()) << label;
    // Every brute pair below the bound is reported (count them: both lists
    // are ascending).
    size_t guaranteed = 0;
    while (guaranteed < brute.size() &&
           brute[guaranteed].distance < glb - kTol) {
      ++guaranteed;
    }
    ASSERT_GE(r.value().size(), guaranteed) << label;
    for (size_t i = 0; i < guaranteed; ++i) {
      EXPECT_NEAR(r.value()[i].distance, brute[i].distance, kTol) << label;
    }
    if (stats.quality.is_exact) ExpectSameDistances(r.value(), brute, label);
  }
  EXPECT_TRUE(saw_partial) << "budgets too generous to exercise the stop";
}

// HS under a budget emits an exact ascending prefix, and its bound is the
// key of the first unprocessed item.
TEST(DeadlineTest, HsPartialIsExactPrefix) {
  const auto p_items = MakeUniformItems(350, 7501);
  const auto q_items = MakeClusteredItems(350, 7502);
  TreeFixture fp(/*buffer_pages=*/0, /*page_size=*/512);
  TreeFixture fq(/*buffer_pages=*/0, /*page_size=*/512);
  KCPQ_ASSERT_OK(fp.Build(p_items));
  KCPQ_ASSERT_OK(fq.Build(q_items));
  const size_t k = 24;
  const std::vector<PairResult> brute =
      BruteForceKClosestPairs(p_items, q_items, k);

  bool saw_partial = false;
  for (const uint64_t budget : {3u, 10u, 40u, 1u << 20}) {
    QueryContext ctx;
    ctx.control().max_node_accesses = budget;
    HsOptions options;
    options.context = &ctx;
    CpqStats stats;
    Result<std::vector<PairResult>> r =
        HsKClosestPairs(fp.tree(), fq.tree(), k, options, &stats);
    KCPQ_ASSERT_OK(r.status());
    const std::string label = "hs budget " + std::to_string(budget);
    ASSERT_LE(r.value().size(), brute.size()) << label;
    // Whether stopped or not, HS output is a prefix of the true answer.
    for (size_t i = 0; i < r.value().size(); ++i) {
      EXPECT_NEAR(r.value()[i].distance, brute[i].distance, kTol) << label;
    }
    if (stats.quality.is_partial()) {
      saw_partial = true;
      EXPECT_EQ(stats.quality.pairs_found, r.value().size()) << label;
      // Everything not emitted is at least glb away.
      const double glb = stats.quality.guaranteed_lower_bound;
      if (r.value().size() < brute.size()) {
        EXPECT_GE(brute[r.value().size()].distance, glb - kTol) << label;
      }
    } else {
      EXPECT_EQ(r.value().size(), brute.size()) << label;
    }
  }
  EXPECT_TRUE(saw_partial) << "budgets too generous to exercise the stop";
}

// Semi-CPQ under a budget: the partial result is per-point exact for the
// points it covers, and honestly reports a zero bound.
TEST(DeadlineTest, SemiPartialIsPerPointExact) {
  const auto p_items = MakeUniformItems(300, 7601);
  const auto q_items = MakeUniformItems(300, 7602);
  TreeFixture fp(/*buffer_pages=*/0, /*page_size=*/512);
  TreeFixture fq(/*buffer_pages=*/0, /*page_size=*/512);
  KCPQ_ASSERT_OK(fp.Build(p_items));
  KCPQ_ASSERT_OK(fq.Build(q_items));
  const std::vector<PairResult> brute =
      BruteForceSemiClosestPairs(p_items, q_items);

  QueryContext ctx;
  ctx.control().max_node_accesses = 30;
  CpqStats stats;
  Result<std::vector<PairResult>> r =
      SemiClosestPairs(fp.tree(), fq.tree(), &stats, &ctx);
  KCPQ_ASSERT_OK(r.status());
  ASSERT_TRUE(stats.quality.is_partial());
  EXPECT_EQ(stats.quality.guaranteed_lower_bound, 0.0);
  EXPECT_FALSE(stats.quality.is_exact);
  EXPECT_LT(r.value().size(), brute.size());
  // Each covered P point got its true nearest neighbor.
  for (const PairResult& pr : r.value()) {
    const auto it = std::find_if(
        brute.begin(), brute.end(),
        [&](const PairResult& b) { return b.p_id == pr.p_id; });
    ASSERT_NE(it, brute.end());
    EXPECT_NEAR(pr.distance, it->distance, kTol);
  }
}

// The brute oracle itself respects deadlines/cancellation (it is used as a
// guard in long differential loops).
TEST(DeadlineTest, BruteForceHonorsControl) {
  const auto p_items = MakeUniformItems(500, 7701);
  const auto q_items = MakeUniformItems(500, 7702);
  QueryContext cancelled;
  CancellationSource source;
  source.Cancel();
  cancelled.control().cancel = source.token();
  QueryQuality quality;
  const std::vector<PairResult> partial = BruteForceKClosestPairs(
      p_items, q_items, 10, /*self_join=*/false, Metric::kL2,
      LeafKernel::kNestedLoop, &quality, &cancelled);
  EXPECT_EQ(quality.stop_cause, StopCause::kCancelled);
  EXPECT_FALSE(quality.is_exact);
  EXPECT_EQ(quality.guaranteed_lower_bound, 0.0);
  EXPECT_TRUE(partial.empty());

  // Node/memory budgets do not apply to a scan: they never trip it.
  QueryContext budget_only;
  budget_only.control().max_node_accesses = 1;
  QueryQuality q2;
  const std::vector<PairResult> full = BruteForceKClosestPairs(
      p_items, q_items, 10, /*self_join=*/false, Metric::kL2,
      LeafKernel::kNestedLoop, &q2, &budget_only);
  EXPECT_FALSE(q2.is_partial());
  EXPECT_EQ(full.size(), 10u);
}

// The unified ResourceAccountant meters strictly more than the old
// engine-only accounting: its total is engine bytes plus the distinct
// buffer pages read for the query, so the peak unified footprint dominates
// the peak engine footprint whenever any page was read.
TEST(QueryContextTest, AccountantTotalsCoverEngineOnlyAccounting) {
  const auto p_items = MakeUniformItems(400, 7801);
  const auto q_items = MakeUniformItems(400, 7802);
  TreeFixture fp(/*buffer_pages=*/0, /*page_size=*/512);
  TreeFixture fq(/*buffer_pages=*/0, /*page_size=*/512);
  KCPQ_ASSERT_OK(fp.Build(p_items));
  KCPQ_ASSERT_OK(fq.Build(q_items));

  for (const CpqAlgorithm algorithm :
       {CpqAlgorithm::kSortedDistances, CpqAlgorithm::kHeap}) {
    QueryContext ctx;
    CpqOptions options;
    options.algorithm = algorithm;
    options.k = 10;
    options.context = &ctx;
    CpqStats stats;
    Result<std::vector<PairResult>> r =
        KClosestPairs(fp.tree(), fq.tree(), options, &stats);
    KCPQ_ASSERT_OK(r.status());
    const std::string label = CpqAlgorithmName(algorithm);

    const ResourceAccountant& acct = ctx.accountant();
    EXPECT_GT(acct.distinct_pages(), 0u) << label;
    EXPECT_EQ(acct.buffer_bytes(), acct.distinct_pages() * 512) << label;
    EXPECT_EQ(acct.total_bytes(), acct.engine_bytes() + acct.buffer_bytes())
        << label;
    // The unified peak dominates both engine-only accounting and the full
    // page footprint (buffer charges never shrink, so the final footprint
    // was live at the last charge).  The two maxima can occur at different
    // moments, so their sum is not a valid lower bound.
    EXPECT_GE(acct.peak_total_bytes(), acct.peak_engine_bytes()) << label;
    EXPECT_GE(acct.peak_total_bytes(), acct.buffer_bytes()) << label;
    EXPECT_GT(acct.peak_total_bytes(), acct.peak_engine_bytes()) << label;
    // Every node access went through the buffer on this query's context,
    // so the distinct-page count can't exceed the access count (re-reads
    // are free) and must cover the root pages.
    EXPECT_LE(acct.distinct_pages(), stats.node_accesses + 2) << label;
  }
}

// HEAP meters its frontier at the size of the entries it holds: an
// unlimited context still records the engine bytes at every poll, and
// their peak never exceeds the peak heap at one FrontierEntry a pair (the
// default one-criterion tie chain keeps no tie rows).
TEST(QueryContextTest, HeapChargesFrontierEntryBytes) {
  TreeFixture fp(/*buffer_pages=*/0, /*page_size=*/512);
  TreeFixture fq(/*buffer_pages=*/0, /*page_size=*/512);
  KCPQ_ASSERT_OK(fp.Build(MakeUniformItems(400, 7811)));
  KCPQ_ASSERT_OK(fq.Build(MakeUniformItems(400, 7812)));
  QueryContext ctx;
  CpqOptions options;
  options.algorithm = CpqAlgorithm::kHeap;
  options.k = 100;
  options.context = &ctx;
  CpqStats stats;
  KCPQ_ASSERT_OK(KClosestPairs(fp.tree(), fq.tree(), options, &stats).status());
  ASSERT_GT(stats.max_heap_size, 1u);
  EXPECT_GT(ctx.accountant().peak_engine_bytes(), 0u);
  EXPECT_LE(ctx.accountant().peak_engine_bytes(),
            stats.max_heap_size * sizeof(cpq_internal::FrontierEntry));
}

/// Records the QueryContext every demand read carries down to storage.
class ContextRecordingStorage final : public StorageManager {
 public:
  explicit ContextRecordingStorage(StorageManager* base)
      : StorageManager(base->page_size()), base_(base) {}

  std::vector<const QueryContext*>& seen() { return seen_; }

  uint64_t PageCount() const override { return base_->PageCount(); }
  Result<PageId> Allocate() override { return base_->Allocate(); }
  Status Free(PageId id) override { return base_->Free(id); }
  Status WritePage(PageId id, const Page& page) override {
    return base_->WritePage(id, page);
  }
  Status Sync() override { return base_->Sync(); }

 protected:
  Status DoReadPage(PageId id, Page* page, const QueryContext* ctx) override {
    seen_.push_back(ctx);
    return base_->ReadPage(id, page, ctx);
  }

 private:
  StorageManager* base_;
  std::vector<const QueryContext*> seen_;
};

// A query's context is its only carrier of limits, and a query without one
// passes nothing down: under a zero-page buffer, every read of every inline
// entry point reaches storage with exactly the context the caller attached
// (null when it attached none), and attaching an unlimited context changes
// neither the pairs nor the disk accesses.
TEST(QueryContextTest, OnlyTheAttachedContextReachesStorage) {
  TreeFixture fp(/*buffer_pages=*/0, /*page_size=*/512);
  TreeFixture fq(/*buffer_pages=*/0, /*page_size=*/512);
  KCPQ_ASSERT_OK(fp.Build(MakeUniformItems(300, 7951)));
  KCPQ_ASSERT_OK(fq.Build(MakeClusteredItems(300, 7952)));

  struct Outcome {
    std::vector<uint64_t> ids;
    std::vector<double> distances;
    uint64_t disk_accesses = 0;
  };
  const auto pairs_outcome = [](const Result<std::vector<PairResult>>& r,
                                uint64_t disk_accesses) {
    KCPQ_CHECK_OK(r.status());
    Outcome out;
    for (const PairResult& pr : r.value()) {
      out.ids.push_back(pr.p_id);
      out.ids.push_back(pr.q_id);
      out.distances.push_back(pr.distance);
    }
    out.disk_accesses = disk_accesses;
    return out;
  };
  using EntryPoint =
      std::function<Outcome(const RStarTree&, const RStarTree&, QueryContext*)>;
  const std::vector<std::pair<std::string, EntryPoint>> entry_points = {
      {"KClosestPairs",
       [&](const RStarTree& p, const RStarTree& q, QueryContext* ctx) {
         CpqOptions options;
         options.k = 10;
         options.context = ctx;
         CpqStats stats;
         auto r = KClosestPairs(p, q, options, &stats);
         return pairs_outcome(r, stats.disk_accesses());
       }},
      {"SelfKClosestPairs",
       [&](const RStarTree& p, const RStarTree&, QueryContext* ctx) {
         CpqOptions options;
         options.k = 10;
         options.context = ctx;
         CpqStats stats;
         auto r = SelfKClosestPairs(p, options, &stats);
         return pairs_outcome(r, stats.disk_accesses());
       }},
      {"HsKClosestPairs",
       [&](const RStarTree& p, const RStarTree& q, QueryContext* ctx) {
         HsOptions options;
         options.context = ctx;
         CpqStats stats;
         auto r = HsKClosestPairs(p, q, 10, options, &stats);
         return pairs_outcome(r, stats.disk_accesses());
       }},
      {"SemiClosestPairs",
       [&](const RStarTree& p, const RStarTree& q, QueryContext* ctx) {
         CpqStats stats;
         auto r = SemiClosestPairs(p, q, &stats, ctx);
         return pairs_outcome(r, stats.disk_accesses());
       }},
      {"DistanceRangeJoin",
       [&](const RStarTree& p, const RStarTree& q, QueryContext* ctx) {
         DistanceJoinOptions options;
         options.context = ctx;
         CpqStats stats;
         auto r = DistanceRangeJoin(p, q, 0.02, options, &stats);
         return pairs_outcome(r, stats.disk_accesses());
       }},
      {"MultiwayKClosestTuples",
       [&](const RStarTree& p, const RStarTree& q, QueryContext* ctx) {
         MultiwayOptions options;
         options.k = 10;
         options.context = ctx;
         CpqStats stats;
         auto r = MultiwayKClosestTuples({&p, &q}, {{0, 1}}, options, &stats);
         KCPQ_CHECK_OK(r.status());
         Outcome out;
         for (const TupleResult& t : r.value()) {
           out.ids.insert(out.ids.end(), t.ids.begin(), t.ids.end());
           out.distances.push_back(t.aggregate_distance);
         }
         out.disk_accesses = stats.disk_accesses();
         return out;
       }},
  };

  for (const auto& [name, run] : entry_points) {
    // Runs the entry point on fresh zero-page buffers over recording
    // storage; returns its outcome and the context of every read.
    const auto run_recorded = [&](QueryContext* ctx,
                                  std::vector<const QueryContext*>* seen) {
      ContextRecordingStorage storage_p(&fp.storage());
      ContextRecordingStorage storage_q(&fq.storage());
      BufferManager buffer_p(&storage_p, 0);
      BufferManager buffer_q(&storage_q, 0);
      auto tree_p = RStarTree::Open(&buffer_p, fp.tree().meta_page());
      auto tree_q = RStarTree::Open(&buffer_q, fq.tree().meta_page());
      KCPQ_CHECK_OK(tree_p.status());
      KCPQ_CHECK_OK(tree_q.status());
      // Opening a tree reads its meta page outside any query.
      storage_p.seen().clear();
      storage_q.seen().clear();
      const Outcome out = run(*tree_p.value(), *tree_q.value(), ctx);
      seen->insert(seen->end(), storage_p.seen().begin(),
                   storage_p.seen().end());
      seen->insert(seen->end(), storage_q.seen().begin(),
                   storage_q.seen().end());
      return out;
    };

    std::vector<const QueryContext*> bare_seen;
    const Outcome bare = run_recorded(nullptr, &bare_seen);
    ASSERT_FALSE(bare_seen.empty()) << name;
    for (const QueryContext* seen : bare_seen) {
      EXPECT_EQ(seen, nullptr) << name;
    }

    QueryContext ctx;
    std::vector<const QueryContext*> attached_seen;
    const Outcome attached = run_recorded(&ctx, &attached_seen);
    EXPECT_EQ(attached_seen.size(), bare_seen.size()) << name;
    for (const QueryContext* seen : attached_seen) {
      EXPECT_EQ(seen, &ctx) << name;
    }

    EXPECT_EQ(attached.ids, bare.ids) << name;
    EXPECT_EQ(attached.distances, bare.distances) << name;
    EXPECT_EQ(attached.disk_accesses, bare.disk_accesses) << name;
    EXPECT_GT(bare.disk_accesses, 0u) << name;
  }
}

// A query whose *pinned-page footprint alone* exceeds max_candidate_bytes
// is throttled by the unified accountant — and identically so at 1, 4, and
// 8 batch threads, because pages are charged once per distinct page, hit
// or miss alike, independent of buffer state or scheduling.
TEST(QueryContextTest, BufferFootprintThrottlesDeterministically) {
  const auto p_items = MakeUniformItems(500, 7901);
  const auto q_items = MakeClusteredItems(450, 7902);
  TreeFixture fp(/*buffer_pages=*/0, /*page_size=*/512);
  TreeFixture fq(/*buffer_pages=*/0, /*page_size=*/512);
  KCPQ_ASSERT_OK(fp.Build(p_items));
  KCPQ_ASSERT_OK(fq.Build(q_items));
  const size_t k = 12;
  const std::vector<PairResult> brute =
      BruteForceKClosestPairs(p_items, q_items, k);

  std::vector<BatchQuery> batch;
  for (const CpqAlgorithm algorithm :
       {CpqAlgorithm::kSortedDistances, CpqAlgorithm::kHeap}) {
    BatchQuery query;
    query.options.algorithm = algorithm;
    query.options.k = k;
    // 8 pages of 512 B: trees this size touch far more, so the page
    // charges alone trip the budget long before engine state matters.
    query.control.max_candidate_bytes = 8 * 512;
    batch.push_back(query);
  }

  std::vector<std::vector<BatchQueryResult>> runs;
  for (const size_t threads : {size_t{1}, size_t{4}, size_t{8}}) {
    BatchOptions options;
    options.threads = threads;
    runs.push_back(BatchKClosestPairs(fp.tree(), fq.tree(), batch, options));
  }
  for (size_t i = 0; i < batch.size(); ++i) {
    const BatchQueryResult& base = runs.front()[i];
    KCPQ_ASSERT_OK(base.status);
    ASSERT_TRUE(base.stats.quality.is_partial()) << i;
    EXPECT_EQ(base.stats.quality.stop_cause, StopCause::kMemoryBudget) << i;
    // The footprint that tripped it is dominated by pages, not engine
    // state: the budget is smaller than the page charges alone.
    EXPECT_GE(base.peak_memory_bytes, uint64_t{8} * 512) << i;
    ExpectBoundHolds(base.pairs, brute,
                     base.stats.quality.guaranteed_lower_bound,
                     "footprint throttle query " + std::to_string(i));
    for (size_t run = 1; run < runs.size(); ++run) {
      const BatchQueryResult& other = runs[run][i];
      const std::string label =
          "query " + std::to_string(i) + " run " + std::to_string(run);
      EXPECT_EQ(other.stats.quality.stop_cause,
                base.stats.quality.stop_cause)
          << label;
      EXPECT_EQ(other.stats.quality.guaranteed_lower_bound,
                base.stats.quality.guaranteed_lower_bound)
          << label;
      EXPECT_EQ(other.stats.node_accesses, base.stats.node_accesses)
          << label;
      EXPECT_EQ(other.peak_memory_bytes, base.peak_memory_bytes) << label;
      ASSERT_EQ(other.pairs.size(), base.pairs.size()) << label;
      for (size_t r = 0; r < base.pairs.size(); ++r) {
        EXPECT_EQ(other.pairs[r].p_id, base.pairs[r].p_id) << label;
        EXPECT_EQ(other.pairs[r].q_id, base.pairs[r].q_id) << label;
        EXPECT_EQ(other.pairs[r].distance, base.pairs[r].distance) << label;
      }
    }
  }
}

// Satellite: the per-rank anytime certificate. rank_lower_bounds[r] is
// sound iff at most r true top-K pairs with distance below it are missing
// from the partial result; bounds are ascending and bound[0] is the
// scalar glb.
TEST(RankBoundTest, PerRankBoundsHoldVsBruteOracle) {
  bool saw_refinement = false;
  for (const int seed : {0, 1, 2, 3, 4, 5, 6, 7, 8, 9}) {
    // Seeds 8-9 use a separated "ramp": two 1-d lattices whose vertical
    // gap grows with x, so every aligned leaf pair carries a *distinct*
    // positive MINMINDIST — the workload where per-rank refinement is
    // actually visible (overlapping uniform data folds mostly-zero
    // frontiers, which any profile collapses to the scalar bound).
    std::vector<std::pair<Point, uint64_t>> p_items, q_items;
    if (seed >= 8) {
      const double slope = seed == 8 ? 0.008 : 0.016;
      for (uint64_t i = 0; i < 300; ++i) {
        const double x = static_cast<double>(i) * 8.0;
        p_items.emplace_back(Point{x, 0.0}, i);
        q_items.emplace_back(Point{x + 1.0, 0.5 + slope * x}, i);
      }
    } else {
      p_items = MakeUniformItems(300 + seed * 40, 8100 + seed * 2);
      q_items = (seed % 2 == 0) ? MakeUniformItems(300, 8101 + seed * 2)
                                : MakeClusteredItems(300, 8101 + seed * 2);
    }
    TreeFixture fp(/*buffer_pages=*/0, /*page_size=*/512);
    TreeFixture fq(/*buffer_pages=*/0, /*page_size=*/512);
    KCPQ_ASSERT_OK(fp.Build(p_items));
    KCPQ_ASSERT_OK(fq.Build(q_items));
    // k must exceed a leaf-pair's capacity (~max_entries^2) or the closest
    // frontier entry covers every rank and the profile degenerates to k
    // copies of the scalar bound.
    const size_t k = 192;
    const std::vector<PairResult> brute =
        BruteForceKClosestPairs(p_items, q_items, k);

    for (const CpqAlgorithm algorithm :
         {CpqAlgorithm::kExhaustive, CpqAlgorithm::kSimple,
          CpqAlgorithm::kSortedDistances, CpqAlgorithm::kHeap}) {
      for (const uint64_t budget : {6u, 20u, 60u, 120u}) {
        QueryContext ctx;
        ctx.control().max_node_accesses = budget;
        CpqOptions options;
        options.algorithm = algorithm;
        options.k = k;
        options.context = &ctx;
        CpqStats stats;
        Result<std::vector<PairResult>> r =
            KClosestPairs(fp.tree(), fq.tree(), options, &stats);
        KCPQ_ASSERT_OK(r.status());
        if (!stats.quality.is_partial()) continue;
        const std::string label = std::string(CpqAlgorithmName(algorithm)) +
                                  " budget " + std::to_string(budget) +
                                  " seed " + std::to_string(seed);
        const std::vector<double>& bounds = stats.quality.rank_lower_bounds;
        ASSERT_EQ(bounds.size(), k) << label;
        EXPECT_NEAR(bounds[0], stats.quality.guaranteed_lower_bound, kTol)
            << label;
        for (size_t i = 1; i < bounds.size(); ++i) {
          EXPECT_GE(bounds[i], bounds[i - 1] - kTol) << label;
          if (bounds[i] > bounds[0] + kTol) saw_refinement = true;
        }
        // Soundness, rank by rank: of the true top-K pairs closer than
        // bound[r], at most r may be absent from the partial result.
        std::set<std::pair<uint64_t, uint64_t>> present;
        for (const PairResult& got : r.value()) {
          present.emplace(got.p_id, got.q_id);
        }
        for (size_t rank = 0; rank < bounds.size(); ++rank) {
          size_t missing = 0;
          for (const PairResult& b : brute) {
            if (b.distance >= bounds[rank] - kTol) break;
            if (present.count({b.p_id, b.q_id}) == 0) ++missing;
          }
          EXPECT_LE(missing, rank)
              << label << " rank " << rank << " bound " << bounds[rank];
        }
      }
    }
  }
  // The capacity-weighted profile must actually refine somewhere —
  // otherwise this test only ever checks k copies of the scalar bound.
  EXPECT_TRUE(saw_refinement);
}

// Multiway under lifecycle limits: a budget or deadline stop returns OK
// with the popped-bound certificate — the reported tuples are an exact
// ascending prefix and nothing unreported can beat the bound.
TEST(DeadlineTest, MultiwayBudgetStopCertifiesPrefix) {
  std::vector<std::vector<std::pair<Point, uint64_t>>> sets;
  std::vector<std::unique_ptr<TreeFixture>> fixtures;
  std::vector<const RStarTree*> trees;
  for (int i = 0; i < 3; ++i) {
    sets.push_back(MakeUniformItems(120, 8201 + i));
    fixtures.push_back(
        std::make_unique<TreeFixture>(/*buffer_pages=*/0, /*page_size=*/512));
    KCPQ_ASSERT_OK(fixtures.back()->Build(sets.back()));
    trees.push_back(&fixtures.back()->tree());
  }
  const std::vector<MultiwayEdge> graph = {{0, 1}, {1, 2}};
  const size_t k = 8;
  const std::vector<TupleResult> brute =
      BruteForceMultiwayKClosestTuples(sets, graph, k);

  bool saw_partial = false;
  for (const uint64_t budget : {4u, 20u, 100u, 1u << 20}) {
    QueryContext ctx;
    ctx.control().max_node_accesses = budget;
    MultiwayOptions options;
    options.k = k;
    options.context = &ctx;
    CpqStats stats;
    Result<std::vector<TupleResult>> r =
        MultiwayKClosestTuples(trees, graph, options, &stats);
    KCPQ_ASSERT_OK(r.status());
    const std::string label = "multiway budget " + std::to_string(budget);
    ASSERT_LE(r.value().size(), brute.size()) << label;
    // Best-first pops ascending: reported tuples are an exact prefix.
    for (size_t i = 0; i < r.value().size(); ++i) {
      EXPECT_NEAR(r.value()[i].aggregate_distance,
                  brute[i].aggregate_distance, kTol)
          << label;
    }
    if (stats.quality.is_partial()) {
      saw_partial = true;
      EXPECT_EQ(stats.quality.stop_cause, StopCause::kNodeBudget) << label;
      EXPECT_LE(stats.node_accesses, budget + 3) << label;
      const double glb = stats.quality.guaranteed_lower_bound;
      if (r.value().size() < brute.size()) {
        EXPECT_GE(brute[r.value().size()].aggregate_distance, glb - kTol)
            << label;
      }
    } else {
      ASSERT_EQ(r.value().size(), brute.size()) << label;
    }
  }
  EXPECT_TRUE(saw_partial) << "budgets too generous to exercise the stop";

  // An already-expired deadline stops before the root is read.
  QueryContext ctx;
  ctx.control().deadline =
      QueryControl::Clock::now() - std::chrono::milliseconds(1);
  MultiwayOptions options;
  options.k = k;
  options.context = &ctx;
  CpqStats stats;
  Result<std::vector<TupleResult>> r =
      MultiwayKClosestTuples(trees, graph, options, &stats);
  KCPQ_ASSERT_OK(r.status());
  EXPECT_EQ(stats.quality.stop_cause, StopCause::kDeadline);
  EXPECT_TRUE(r.value().empty());
  EXPECT_EQ(stats.node_accesses, 0u);
}

// QueryControl::Merged picks the stricter of each limit.
TEST(DeadlineTest, MergedControlIsStricter) {
  QueryControl a;
  a.max_node_accesses = 100;
  const auto t1 = QueryControl::Clock::now() + std::chrono::seconds(5);
  a.deadline = t1;
  QueryControl b;
  b.max_node_accesses = 40;
  b.max_candidate_bytes = 1 << 20;
  CancellationSource source;
  b.cancel = source.token();

  const QueryControl merged = QueryControl::Merged(a, b);
  EXPECT_EQ(merged.max_node_accesses, 40u);
  EXPECT_EQ(merged.max_candidate_bytes, uint64_t{1} << 20);
  EXPECT_EQ(merged.deadline, t1);
  EXPECT_EQ(merged.Check(0, 0), StopCause::kNone);
  source.Cancel();
  EXPECT_EQ(merged.Check(0, 0), StopCause::kCancelled);
  EXPECT_EQ(merged.Check(40, 0), StopCause::kCancelled);  // cancel wins
}

}  // namespace
}  // namespace kcpq
