// Randomized-configuration sweep ("chaos" property test): for each seed,
// draw a full random query configuration — sizes, distributions, overlap,
// K, algorithm, metric, tie chain, height strategy, buffer size, page
// size, pruning toggle — run the K-CPQ, and check it against brute force.
// This is the catch-all net for interactions the targeted suites miss.

#include <memory>
#include <string>
#include <vector>

#include "buffer/replacement_policy.h"
#include "cpq/brute.h"
#include "cpq/cpq.h"
#include "cpq/multiway.h"
#include "exec/batch.h"
#include "gtest/gtest.h"
#include "hs/hs.h"
#include "storage/fault_injection_storage.h"
#include "storage/retrying_storage.h"
#include "tests/test_util.h"

namespace kcpq {
namespace {

using testing::MakeClusteredItems;
using testing::MakeUniformItems;
using testing::TreeFixture;

class CpqChaosTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CpqChaosTest, RandomConfigurationMatchesBruteForce) {
  Xoshiro256pp rng(GetParam());
  for (int round = 0; round < 4; ++round) {
    // --- Draw a configuration -------------------------------------------
    const size_t np = 20 + rng.NextBounded(800);
    const size_t nq = 20 + rng.NextBounded(800);
    const double overlap = rng.NextDouble();
    const bool p_clustered = rng.NextBounded(2) == 0;
    const bool q_clustered = rng.NextBounded(2) == 0;
    const size_t page_size = 512u << rng.NextBounded(3);  // 512/1024/2048
    const size_t buffer_pages = rng.NextBounded(3) == 0
                                    ? 0
                                    : rng.NextBounded(64);
    CpqOptions options;
    options.k = 1 + rng.NextBounded(60);
    options.algorithm = static_cast<CpqAlgorithm>(
        1 + rng.NextBounded(4));  // skip naive (too slow at these sizes)
    options.metric = static_cast<Metric>(rng.NextBounded(3));
    options.height_strategy = rng.NextBounded(2) == 0
                                  ? HeightStrategy::kFixAtLeaves
                                  : HeightStrategy::kFixAtRoot;
    options.use_maxmaxdist_pruning = rng.NextBounded(2) == 0;
    options.tie_chain.clear();
    const size_t chain_length = rng.NextBounded(4);
    for (size_t i = 0; i < chain_length; ++i) {
      options.tie_chain.push_back(
          static_cast<TieCriterion>(rng.NextBounded(5)));
    }
    const std::string config =
        "np=" + std::to_string(np) + " nq=" + std::to_string(nq) +
        " ov=" + std::to_string(overlap) + " k=" + std::to_string(options.k) +
        " alg=" + CpqAlgorithmName(options.algorithm) +
        " metric=" + MetricName(options.metric) +
        " page=" + std::to_string(page_size) +
        " buf=" + std::to_string(buffer_pages);
    SCOPED_TRACE(config);

    // --- Build and run ---------------------------------------------------
    const Rect ws_q = ShiftedWorkspace(UnitWorkspace(), overlap);
    const auto p_items = p_clustered
                             ? MakeClusteredItems(np, rng.Next())
                             : MakeUniformItems(np, rng.Next());
    const auto q_items = q_clustered
                             ? MakeClusteredItems(nq, rng.Next(), ws_q)
                             : MakeUniformItems(nq, rng.Next(), ws_q);
    TreeFixture fp(buffer_pages, page_size), fq(buffer_pages, page_size);
    KCPQ_ASSERT_OK(fp.Build(p_items));
    KCPQ_ASSERT_OK(fq.Build(q_items));
    KCPQ_ASSERT_OK(fp.tree().Validate());
    KCPQ_ASSERT_OK(fq.tree().Validate());

    auto result = KClosestPairs(fp.tree(), fq.tree(), options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const auto want = BruteForceKClosestPairs(
        p_items, q_items, options.k, /*self_join=*/false, options.metric);
    ASSERT_EQ(result.value().size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_NEAR(result.value()[i].distance, want[i].distance, 1e-9)
          << "rank " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CpqChaosTest,
                         ::testing::Range<uint64_t>(1, 21));


// Same idea for the incremental Hjaltason-Samet join: random policies and
// data against the brute-force order.
class HsChaosTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HsChaosTest, RandomConfigurationMatchesBruteForce) {
  Xoshiro256pp rng(GetParam() ^ 0xfeedface);
  for (int round = 0; round < 3; ++round) {
    const size_t np = 20 + rng.NextBounded(500);
    const size_t nq = 20 + rng.NextBounded(500);
    const double overlap = rng.NextDouble();
    const size_t k = 1 + rng.NextBounded(80);
    HsOptions options;
    options.traversal = static_cast<HsTraversal>(rng.NextBounded(3));
    options.tie_policy = static_cast<HsTiePolicy>(rng.NextBounded(2));
    if (rng.NextBounded(3) == 0) {
      options.queue_distance_threshold = rng.NextDouble() * 1e-4;
    }
    SCOPED_TRACE(std::string(HsTraversalName(options.traversal)) +
                 " np=" + std::to_string(np) + " nq=" + std::to_string(nq) +
                 " k=" + std::to_string(k));

    const Rect ws_q = ShiftedWorkspace(UnitWorkspace(), overlap);
    const auto p_items = MakeUniformItems(np, rng.Next());
    const auto q_items = MakeClusteredItems(nq, rng.Next(), ws_q);
    TreeFixture fp, fq;
    KCPQ_ASSERT_OK(fp.Build(p_items));
    KCPQ_ASSERT_OK(fq.Build(q_items));

    auto result = HsKClosestPairs(fp.tree(), fq.tree(), k, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const auto want = BruteForceKClosestPairs(p_items, q_items, k);
    ASSERT_EQ(result.value().size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_NEAR(result.value()[i].distance, want[i].distance, 1e-9)
          << "rank " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HsChaosTest,
                         ::testing::Range<uint64_t>(1, 11));


// Mutation chaos: build, erase a random subset, then query — the tree after
// deletions must answer exactly like a fresh tree over the survivors.
class EraseChaosTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EraseChaosTest, CpqCorrectAfterRandomErases) {
  Xoshiro256pp rng(GetParam() ^ 0xdead0000);
  for (int round = 0; round < 3; ++round) {
    const size_t n = 100 + rng.NextBounded(700);
    auto p_items = MakeUniformItems(n, rng.Next());
    const auto q_items = MakeClusteredItems(n, rng.Next());
    TreeFixture fp, fq;
    KCPQ_ASSERT_OK(fp.Build(p_items));
    KCPQ_ASSERT_OK(fq.Build(q_items));

    // Erase a random 30-70% of P.
    const size_t erase_count =
        n * (30 + rng.NextBounded(41)) / 100;
    for (size_t i = 0; i < erase_count; ++i) {
      const size_t idx = rng.NextBounded(p_items.size());
      auto erased =
          fp.tree().Erase(p_items[idx].first, p_items[idx].second);
      ASSERT_TRUE(erased.ok());
      ASSERT_TRUE(erased.value());
      p_items[idx] = p_items.back();
      p_items.pop_back();
    }
    KCPQ_ASSERT_OK(fp.tree().Validate());

    CpqOptions options;
    options.algorithm = round % 2 == 0 ? CpqAlgorithm::kHeap
                                       : CpqAlgorithm::kSortedDistances;
    options.k = 1 + rng.NextBounded(30);
    auto result = KClosestPairs(fp.tree(), fq.tree(), options);
    ASSERT_TRUE(result.ok());
    const auto want =
        BruteForceKClosestPairs(p_items, q_items, options.k);
    ASSERT_EQ(result.value().size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_NEAR(result.value()[i].distance, want[i].distance, 1e-9)
          << "rank " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EraseChaosTest,
                         ::testing::Range<uint64_t>(1, 9));


// Fault chaos for the batch executor: trees served through a flaky storage
// stack (memory -> fault injection -> retry decorator -> sharded buffer).
// Transient faults must be absorbed with bit-identical results at every
// thread count; permanent faults must come back as clean per-query errors
// with consistent outcome accounting.
class BatchFaultChaosTest : public ::testing::TestWithParam<size_t> {};

TEST_P(BatchFaultChaosTest, TransientFaultsAbsorbedPermanentFaultsClean) {
  const size_t threads = GetParam();
  const auto p_items = MakeUniformItems(900, 4401);
  const auto q_items = MakeClusteredItems(800, 4402);
  TreeFixture fp, fq;
  KCPQ_ASSERT_OK(fp.Build(p_items));
  KCPQ_ASSERT_OK(fq.Build(q_items));

  std::vector<BatchQuery> batch(12);
  for (size_t i = 0; i < batch.size(); ++i) {
    batch[i].options.k = 1 + i * 4;
    batch[i].options.algorithm =
        (i % 2 == 0) ? CpqAlgorithm::kHeap : CpqAlgorithm::kSortedDistances;
    if (i % 3 == 0) batch[i].kind = BatchQueryKind::kSemiClosestPairs;
  }

  // Fault-free reference run against the fixture trees.
  const std::vector<BatchQueryResult> want =
      BatchKClosestPairs(fp.tree(), fq.tree(), batch, BatchOptions{});
  for (const BatchQueryResult& r : want) KCPQ_ASSERT_OK(r.status);

  // The flaky stack: 20% of storage operations fail transiently; 16
  // retries make exhaustion astronomically unlikely; zero initial backoff
  // keeps the test fast and sleep-free.
  FaultInjectionStorageManager faulty_p(&fp.storage());
  FaultInjectionStorageManager faulty_q(&fq.storage());
  RetryPolicy policy;
  policy.max_retries = 16;
  policy.initial_backoff = std::chrono::microseconds(0);
  RetryingStorageManager retry_p(&faulty_p, policy);
  RetryingStorageManager retry_q(&faulty_q, policy);
  BufferManager buffer_p(&retry_p, 8, /*shards=*/4,
                         [] { return MakeLruPolicy(); });
  BufferManager buffer_q(&retry_q, 8, /*shards=*/4,
                         [] { return MakeLruPolicy(); });
  auto tree_p = RStarTree::Open(&buffer_p, fp.tree().meta_page());
  auto tree_q = RStarTree::Open(&buffer_q, fq.tree().meta_page());
  ASSERT_TRUE(tree_p.ok());
  ASSERT_TRUE(tree_q.ok());
  faulty_p.FailWithProbability(0.2, /*seed=*/91, /*transient=*/true);
  faulty_q.FailWithProbability(0.2, /*seed=*/92, /*transient=*/true);

  BatchOptions options;
  options.threads = threads;
  BatchStats stats;
  const std::vector<BatchQueryResult> got = BatchKClosestPairs(
      *tree_p.value(), *tree_q.value(), batch, options, &stats);
  EXPECT_EQ(stats.ok, stats.queries);
  EXPECT_GT(faulty_p.faults_injected() + faulty_q.faults_injected(), 0u);
  EXPECT_GT(retry_p.recovered() + retry_q.recovered(), 0u);
  EXPECT_EQ(retry_p.exhausted() + retry_q.exhausted(), 0u);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    const std::string label = "query " + std::to_string(i) + " threads " +
                              std::to_string(threads);
    KCPQ_ASSERT_OK(got[i].status);
    EXPECT_EQ(got[i].outcome, QueryOutcome::kOk) << label;
    ASSERT_EQ(got[i].pairs.size(), want[i].pairs.size()) << label;
    for (size_t r = 0; r < want[i].pairs.size(); ++r) {
      EXPECT_EQ(got[i].pairs[r].p_id, want[i].pairs[r].p_id) << label;
      EXPECT_EQ(got[i].pairs[r].q_id, want[i].pairs[r].q_id) << label;
      EXPECT_EQ(got[i].pairs[r].distance, want[i].pairs[r].distance) << label;
    }
  }

  // Now a genuinely bad disk: permanent faults are NOT retried; each query
  // either completes correctly (fault pattern missed it) or fails with a
  // clean kIoError, and the outcome ledger stays consistent.
  faulty_p.Heal();
  faulty_q.Heal();
  faulty_q.FailWithProbability(0.1, /*seed=*/93, /*transient=*/false);
  const uint64_t exhausted_before = retry_p.exhausted() + retry_q.exhausted();
  BatchStats perm_stats;
  const std::vector<BatchQueryResult> perm = BatchKClosestPairs(
      *tree_p.value(), *tree_q.value(), batch, options, &perm_stats);
  EXPECT_EQ(perm_stats.ok + perm_stats.partial + perm_stats.cancelled +
                perm_stats.failed,
            perm_stats.queries);
  EXPECT_EQ(retry_p.exhausted() + retry_q.exhausted(), exhausted_before);
  for (size_t i = 0; i < perm.size(); ++i) {
    const std::string label = "perm query " + std::to_string(i);
    if (perm[i].status.ok()) {
      EXPECT_EQ(perm[i].outcome, QueryOutcome::kOk) << label;
      ASSERT_EQ(perm[i].pairs.size(), want[i].pairs.size()) << label;
      for (size_t r = 0; r < want[i].pairs.size(); ++r) {
        EXPECT_EQ(perm[i].pairs[r].distance, want[i].pairs[r].distance)
            << label;
      }
    } else {
      EXPECT_EQ(perm[i].outcome, QueryOutcome::kFailed) << label;
      EXPECT_EQ(perm[i].status.code(), StatusCode::kIoError) << label;
      EXPECT_TRUE(perm[i].pairs.empty()) << label;
    }
  }
}

TEST_P(BatchFaultChaosTest, FailFastCancelsSiblings) {
  const size_t threads = GetParam();
  const auto p_items = MakeUniformItems(600, 4501);
  const auto q_items = MakeUniformItems(600, 4502);
  TreeFixture fp, fq;
  KCPQ_ASSERT_OK(fp.Build(p_items));
  KCPQ_ASSERT_OK(fq.Build(q_items));

  FaultInjectionStorageManager faulty_p(&fp.storage());
  BufferManager buffer_p(&faulty_p, 0);
  auto tree_p = RStarTree::Open(&buffer_p, fp.tree().meta_page());
  ASSERT_TRUE(tree_p.ok());

  std::vector<BatchQuery> batch(16);
  for (size_t i = 0; i < batch.size(); ++i) batch[i].options.k = 4;

  // Kill the disk after the trees are open: every query needs reads, so
  // the first one fails and (fail-fast) cancels everything still pending.
  faulty_p.FailAfter(0);
  BatchOptions options;
  options.threads = threads;
  options.cancel_batch_on_first_failure = true;
  BatchStats stats;
  const std::vector<BatchQueryResult> results = BatchKClosestPairs(
      *tree_p.value(), fq.tree(), batch, options, &stats);
  EXPECT_EQ(stats.ok + stats.partial + stats.cancelled + stats.failed,
            stats.queries);
  EXPECT_EQ(stats.ok, 0u);
  EXPECT_GE(stats.failed, 1u);
  for (const BatchQueryResult& r : results) {
    if (r.outcome == QueryOutcome::kCancelled) {
      KCPQ_EXPECT_OK(r.status);
      EXPECT_EQ(r.stats.quality.stop_cause, StopCause::kCancelled);
      EXPECT_FALSE(r.stats.quality.is_exact);
    } else {
      EXPECT_EQ(r.outcome, QueryOutcome::kFailed);
      EXPECT_EQ(r.status.code(), StatusCode::kIoError);
    }
  }
  // Single-threaded fail-fast is fully deterministic: query 0 fails, every
  // later query observes the cancellation before its first read.
  if (threads == 1) {
    EXPECT_EQ(results[0].outcome, QueryOutcome::kFailed);
    EXPECT_EQ(stats.failed, 1u);
    EXPECT_EQ(stats.cancelled, batch.size() - 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, BatchFaultChaosTest,
                         ::testing::Values(size_t{1}, size_t{4}, size_t{8}));


// Multiway queries in the same net: random tree counts, graphs, and data
// served through the flaky retrying stack, with random lifecycle limits.
// Exact runs must match the brute cross-product oracle; budget-stopped
// runs must return an exact ascending prefix whose popped-bound
// certificate holds against the oracle.
class MultiwayChaosTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MultiwayChaosTest, RandomConfigurationMatchesBruteForce) {
  Xoshiro256pp rng(GetParam() ^ 0x00aabbcc);
  for (int round = 0; round < 2; ++round) {
    const size_t m = 2 + rng.NextBounded(2);  // 2 or 3 trees
    std::vector<std::vector<std::pair<Point, uint64_t>>> sets;
    std::vector<std::unique_ptr<TreeFixture>> fixtures;
    std::vector<std::unique_ptr<FaultInjectionStorageManager>> faulty;
    std::vector<std::unique_ptr<RetryingStorageManager>> retrying;
    std::vector<std::unique_ptr<BufferManager>> buffers;
    std::vector<std::unique_ptr<RStarTree>> flaky_trees;
    std::vector<const RStarTree*> trees;
    RetryPolicy policy;
    policy.max_retries = 16;
    policy.initial_backoff = std::chrono::microseconds(0);
    for (size_t i = 0; i < m; ++i) {
      const size_t n = 20 + rng.NextBounded(40);
      sets.push_back(rng.NextBounded(2) == 0
                         ? MakeUniformItems(n, rng.Next())
                         : MakeClusteredItems(n, rng.Next()));
      fixtures.push_back(std::make_unique<TreeFixture>(
          /*buffer_pages=*/0, /*page_size=*/512));
      KCPQ_ASSERT_OK(fixtures.back()->Build(sets.back()));
      // Reopen each tree through a flaky transient stack: multiway must
      // absorb the same faults the two-tree engines do.
      faulty.push_back(std::make_unique<FaultInjectionStorageManager>(
          &fixtures.back()->storage()));
      retrying.push_back(
          std::make_unique<RetryingStorageManager>(faulty.back().get(),
                                                   policy));
      buffers.push_back(
          std::make_unique<BufferManager>(retrying.back().get(), 0));
      auto opened = RStarTree::Open(buffers.back().get(),
                                    fixtures.back()->tree().meta_page());
      KCPQ_ASSERT_OK(opened.status());
      flaky_trees.push_back(std::move(opened).value());
      trees.push_back(flaky_trees.back().get());
      faulty.back()->FailWithProbability(0.15, /*seed=*/rng.Next(),
                                         /*transient=*/true);
    }

    std::vector<MultiwayEdge> graph;
    for (int i = 0; i + 1 < static_cast<int>(m); ++i) {
      graph.push_back(MultiwayEdge{i, i + 1});
    }
    if (m == 3 && rng.NextBounded(2) == 0) {
      graph.push_back(MultiwayEdge{0, 2});  // close the cycle
    }

    MultiwayOptions options;
    options.k = 1 + rng.NextBounded(12);
    SCOPED_TRACE("m=" + std::to_string(m) + " k=" +
                 std::to_string(options.k) + " edges=" +
                 std::to_string(graph.size()));
    const std::vector<TupleResult> want =
        BruteForceMultiwayKClosestTuples(sets, graph, options.k);

    // Unlimited run: exact, through the faults.
    auto exact = MultiwayKClosestTuples(trees, graph, options);
    ASSERT_TRUE(exact.ok()) << exact.status().ToString();
    ASSERT_EQ(exact.value().size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_NEAR(exact.value()[i].aggregate_distance,
                  want[i].aggregate_distance, 1e-9)
          << "rank " << i;
    }

    // Budget-stopped run: OK, and the popped-bound certificate holds —
    // every true tuple with aggregate below the bound is reported, in
    // exact rank order; reported tuples beyond the bound are provisional
    // but still genuine (never better than the oracle's rank).
    QueryContext ctx;
    ctx.control().max_node_accesses = 1 + rng.NextBounded(30);
    options.context = &ctx;
    CpqStats stats;
    auto partial = MultiwayKClosestTuples(trees, graph, options, &stats);
    ASSERT_TRUE(partial.ok()) << partial.status().ToString();
    ASSERT_LE(partial.value().size(), want.size());
    if (stats.quality.is_partial()) {
      EXPECT_EQ(stats.quality.stop_cause, StopCause::kNodeBudget);
      const double glb = stats.quality.guaranteed_lower_bound;
      size_t guaranteed = 0;
      while (guaranteed < want.size() &&
             want[guaranteed].aggregate_distance < glb - 1e-9) {
        ++guaranteed;
      }
      ASSERT_GE(partial.value().size(), guaranteed);
      for (size_t i = 0; i < guaranteed; ++i) {
        ASSERT_NEAR(partial.value()[i].aggregate_distance,
                    want[i].aggregate_distance, 1e-9)
            << "rank " << i;
      }
      for (size_t i = 0; i < partial.value().size(); ++i) {
        ASSERT_GE(partial.value()[i].aggregate_distance,
                  want[i].aggregate_distance - 1e-9)
            << "rank " << i;
      }
    } else {
      ASSERT_EQ(partial.value().size(), want.size());
      for (size_t i = 0; i < want.size(); ++i) {
        ASSERT_NEAR(partial.value()[i].aggregate_distance,
                    want[i].aggregate_distance, 1e-9)
            << "rank " << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultiwayChaosTest,
                         ::testing::Range<uint64_t>(1, 13));

}  // namespace
}  // namespace kcpq
