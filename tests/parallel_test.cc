// Tests for the parallel batch executor (exec/) and the plane-sweep leaf
// kernel: differential correctness against brute force across ~50 seeded
// workloads x all five algorithms x the closest and farthest families x
// 1/4 threads, stats accounting invariants, the in-flight cap, and
// concurrent queries over a shared sharded buffer.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

#include "buffer/replacement_policy.h"
#include "cpq/brute.h"
#include "cpq/cpq.h"
#include "exec/batch.h"
#include "gtest/gtest.h"
#include "hs/hs.h"
#include "obs/kcpq_metrics.h"
#include "obs/metrics.h"
#include "tests/differential_mix.h"
#include "tests/test_util.h"

namespace kcpq {
namespace {

using testing::MakeClusteredItems;
using testing::MakeUniformItems;
using testing::TreeFixture;

constexpr CpqAlgorithm kAllAlgorithms[] = {
    CpqAlgorithm::kNaive, CpqAlgorithm::kExhaustive, CpqAlgorithm::kSimple,
    CpqAlgorithm::kSortedDistances, CpqAlgorithm::kHeap};
// The two ways the engines' sweep runs: cut at T (closest), and with
// nothing cut (farthest, whose keys have no sweep-axis bound).
constexpr QueryFamily kSweepFamilies[] = {QueryFamily::kClosest,
                                          QueryFamily::kFarthest};

std::vector<double> Distances(const std::vector<PairResult>& pairs) {
  std::vector<double> d;
  d.reserve(pairs.size());
  for (const PairResult& pr : pairs) d.push_back(pr.distance);
  return d;
}

// Ties make the pair *set* non-unique, so differential checks compare the
// distance multiset (which is unique) rank by rank.
void ExpectDistances(const std::vector<PairResult>& got,
                     const std::vector<double>& want,
                     const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  const std::vector<double> g = Distances(got);
  for (size_t i = 0; i < g.size(); ++i) {
    ASSERT_NEAR(g[i], want[i], 1e-9) << label << " rank " << i;
  }
}

void ExpectSameDistances(const std::vector<PairResult>& got,
                         const std::vector<PairResult>& want,
                         const std::string& label) {
  ExpectDistances(got, Distances(want), label);
}

void ExpectSameStats(const CpqStats& a, const CpqStats& b,
                     const std::string& label) {
  EXPECT_EQ(a.node_pairs_processed, b.node_pairs_processed) << label;
  EXPECT_EQ(a.candidate_pairs_generated, b.candidate_pairs_generated) << label;
  EXPECT_EQ(a.candidate_pairs_pruned, b.candidate_pairs_pruned) << label;
  EXPECT_EQ(a.point_distance_computations, b.point_distance_computations)
      << label;
  EXPECT_EQ(a.leaf_pairs_skipped, b.leaf_pairs_skipped) << label;
  EXPECT_EQ(a.max_heap_size, b.max_heap_size) << label;
}

// One seeded workload: sizes, data kinds, k, and metric all derive from the
// seed so the suite sweeps a grid of shapes.
struct Workload {
  size_t np, nq, k;
  Metric metric;
  bool clustered_q;
};

Workload MakeWorkload(int seed) {
  Workload w;
  w.np = 80 + static_cast<size_t>(seed % 5) * 50;
  w.nq = 80 + static_cast<size_t>((seed / 5) % 5) * 50;
  w.k = (seed % 3 == 0) ? 1 : (seed % 3 == 1) ? 7 : 64;
  constexpr Metric kMetrics[] = {Metric::kL2, Metric::kL2, Metric::kL2,
                                 Metric::kL1, Metric::kLinf};
  w.metric = kMetrics[seed % 5];
  w.clustered_q = (seed % 2) == 1;
  return w;
}

class ParallelDifferentialTest : public ::testing::TestWithParam<int> {};

// Every algorithm under both sweep families, run as one batch at 1 and at
// 4 threads: all of them must return the nested-loop oracle's distance
// multiset, which the brute-force sweep must reproduce too, and the
// 4-thread run must be bit-identical (pairs and stats) to the 1-thread run.
TEST_P(ParallelDifferentialTest, AllAlgorithmsBothKernelsMatchBrute) {
  const int seed = GetParam();
  const Workload w = MakeWorkload(seed);
  const auto p_items = MakeUniformItems(w.np, 9000 + seed * 2);
  const auto q_items = w.clustered_q
                           ? MakeClusteredItems(w.nq, 9001 + seed * 2)
                           : MakeUniformItems(w.nq, 9001 + seed * 2);
  TreeFixture fp, fq;
  KCPQ_ASSERT_OK(fp.Build(p_items));
  KCPQ_ASSERT_OK(fq.Build(q_items));
  ExpectSameDistances(
      BruteForceKClosestPairs(p_items, q_items, w.k, /*self_join=*/false,
                              w.metric, LeafKernel::kPlaneSweep),
      BruteForceKClosestPairs(p_items, q_items, w.k, /*self_join=*/false,
                              w.metric),
      "brute kernels seed " + std::to_string(seed));

  std::vector<BatchQuery> batch;
  for (const CpqAlgorithm algorithm : kAllAlgorithms) {
    for (const QueryFamily family : kSweepFamilies) {
      BatchQuery query;
      query.options.algorithm = algorithm;
      query.options.k = w.k;
      query.options.metric = w.metric;
      query.options.family = family;
      batch.push_back(query);
    }
  }

  BatchOptions serial;
  serial.threads = 1;
  BatchOptions parallel;
  parallel.threads = 4;
  BatchStats batch_stats;
  const auto serial_results =
      BatchKClosestPairs(fp.tree(), fq.tree(), batch, serial, &batch_stats);
  const auto parallel_results =
      BatchKClosestPairs(fp.tree(), fq.tree(), batch, parallel);
  ASSERT_EQ(serial_results.size(), batch.size());
  ASSERT_EQ(parallel_results.size(), batch.size());
  EXPECT_EQ(batch_stats.queries, batch.size());
  EXPECT_EQ(batch_stats.failed, 0u);

  for (size_t i = 0; i < batch.size(); ++i) {
    const QueryFamily family = batch[i].options.family;
    const std::string label =
        std::string(CpqAlgorithmName(batch[i].options.algorithm)) + "/" +
        QueryFamilyName(family) + " seed " + std::to_string(seed);
    KCPQ_ASSERT_OK(serial_results[i].status);
    KCPQ_ASSERT_OK(parallel_results[i].status);
    ExpectDistances(serial_results[i].pairs,
                    testing::BruteForceFamilyDistances({p_items, q_items},
                                                       batch[i].options),
                    label);

    // Per-query parallelism: the 4-thread run is the same computation.
    ASSERT_EQ(parallel_results[i].pairs.size(), serial_results[i].pairs.size())
        << label;
    for (size_t r = 0; r < serial_results[i].pairs.size(); ++r) {
      EXPECT_EQ(parallel_results[i].pairs[r].p_id,
                serial_results[i].pairs[r].p_id)
          << label;
      EXPECT_EQ(parallel_results[i].pairs[r].q_id,
                serial_results[i].pairs[r].q_id)
          << label;
    }
    ExpectSameStats(parallel_results[i].stats, serial_results[i].stats, label);

    // Accounting invariants. Each processed node pair is the root pair or a
    // surviving candidate; kHeap may abandon pushed candidates when the
    // bound closes the heap (CP5), so it only bounds from above.
    const CpqStats& s = serial_results[i].stats;
    const uint64_t survivors =
        1 + s.candidate_pairs_generated - s.candidate_pairs_pruned;
    if (batch[i].options.algorithm == CpqAlgorithm::kHeap) {
      EXPECT_LE(s.node_pairs_processed, survivors) << label;
    } else {
      EXPECT_EQ(s.node_pairs_processed, survivors) << label;
    }
    // Farthest sweeps with nothing cut: no leaf pair is skipped.
    if (family == QueryFamily::kFarthest) {
      EXPECT_EQ(s.leaf_pairs_skipped, 0u) << label;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, ParallelDifferentialTest,
                         ::testing::Range(0, 50));

// A batch mixing query kinds (cross, self, semi) must match the dedicated
// entry points at any thread count.
TEST(BatchTest, MixedKindsMatchDirectCalls) {
  const auto items = MakeClusteredItems(400, 9102);
  const auto q_items = MakeUniformItems(300, 9103);
  TreeFixture fx, fq;
  KCPQ_ASSERT_OK(fx.Build(items));
  KCPQ_ASSERT_OK(fq.Build(q_items));

  std::vector<BatchQuery> batch(3);
  batch[0].kind = BatchQueryKind::kClosestPairs;
  batch[0].options.k = 12;
  batch[1].kind = BatchQueryKind::kSelfClosestPairs;
  batch[1].options.k = 12;
  batch[2].kind = BatchQueryKind::kSemiClosestPairs;

  for (const size_t threads : {size_t{1}, size_t{4}}) {
    BatchOptions options;
    options.threads = threads;
    const auto results =
        BatchKClosestPairs(fx.tree(), fq.tree(), batch, options);
    ASSERT_EQ(results.size(), 3u);
    for (const auto& r : results) KCPQ_ASSERT_OK(r.status);

    auto cross = KClosestPairs(fx.tree(), fq.tree(), batch[0].options);
    ASSERT_TRUE(cross.ok());
    ExpectSameDistances(results[0].pairs, cross.value(), "cross");
    auto self = SelfKClosestPairs(fx.tree(), batch[1].options);
    ASSERT_TRUE(self.ok());
    ExpectSameDistances(results[1].pairs, self.value(), "self");
    ExpectSameDistances(results[2].pairs,
                        BruteForceSemiClosestPairs(items, q_items), "semi");
  }
}

// A blocking batch runs on the same scheduler as a resumable one, with
// the in-flight cap at `threads`: never more queries (and contexts) live
// than workers, however long the batch.
TEST(BatchTest, BlockingBatchHoldsAtMostThreadsLiveQueries) {
  if (!obs::MetricsCompiledIn()) GTEST_SKIP() << "metrics compiled out";
  TreeFixture fp, fq;
  KCPQ_ASSERT_OK(fp.Build(MakeUniformItems(600, 9120)));
  KCPQ_ASSERT_OK(fq.Build(MakeUniformItems(600, 9121)));
  std::vector<BatchQuery> batch(32);
  for (size_t i = 0; i < batch.size(); ++i) {
    batch[i].options.algorithm = kAllAlgorithms[i % 5];
    batch[i].options.k = 1 + i;
  }
  BatchOptions options;
  options.threads = 4;
  options.scheduler = SchedulerMode::kBlocking;
  options.max_inflight = 64;  // ignored under kBlocking
  const obs::KcpqMetrics& m = obs::KcpqMetrics::Get();
  m.scheduler_inflight_peak->Reset();
  const auto results = BatchKClosestPairs(fp.tree(), fq.tree(), batch, options);
  for (const auto& r : results) KCPQ_ASSERT_OK(r.status);
  EXPECT_GE(m.scheduler_inflight_peak->value(), 1u);
  EXPECT_LE(m.scheduler_inflight_peak->value(), 4u);
}

TEST(BatchTest, SelfJoinDifferential) {
  const auto items = MakeUniformItems(350, 9104);
  TreeFixture fx;
  KCPQ_ASSERT_OK(fx.Build(items));
  std::vector<BatchQuery> batch;
  for (const CpqAlgorithm algorithm : kAllAlgorithms) {
    for (const QueryFamily family : kSweepFamilies) {
      BatchQuery query;
      query.kind = BatchQueryKind::kSelfClosestPairs;
      query.options.algorithm = algorithm;
      query.options.k = 20;
      query.options.family = family;
      batch.push_back(query);
    }
  }
  BatchOptions options;
  options.threads = 4;
  const auto results = BatchKClosestPairs(fx.tree(), fx.tree(), batch, options);
  for (size_t i = 0; i < results.size(); ++i) {
    KCPQ_ASSERT_OK(results[i].status);
    CpqOptions self = batch[i].options;
    self.self_join = true;
    ExpectDistances(
        results[i].pairs, testing::BruteForceFamilyDistances({items, items}, self),
        std::string("self ") + CpqAlgorithmName(self.algorithm) + "/" +
            QueryFamilyName(self.family));
    for (const PairResult& pr : results[i].pairs) {
      ASSERT_LT(pr.p_id, pr.q_id);
    }
  }
}

// The sweep must skip work, not just match results.
TEST(LeafKernelTest, SweepSkipsPairsAndComputesFewerDistances) {
  const auto p_items = MakeUniformItems(2000, 9105);
  const auto q_items = MakeUniformItems(2000, 9106);
  TreeFixture fp, fq;
  KCPQ_ASSERT_OK(fp.Build(p_items));
  KCPQ_ASSERT_OK(fq.Build(q_items));
  CpqOptions options;
  options.algorithm = CpqAlgorithm::kHeap;
  options.k = 10;
  CpqStats sweep;
  auto result = KClosestPairs(fp.tree(), fq.tree(), options, &sweep);
  ASSERT_TRUE(result.ok());
  ExpectSameDistances(result.value(),
                      BruteForceKClosestPairs(p_items, q_items, 10), "heap");
  EXPECT_GT(sweep.leaf_pairs_skipped, 0u);
  // Skipped + computed are the point pairs of the leaf pairs processed;
  // in a cross join each point pair lies under one leaf pair at most.
  EXPECT_LE(sweep.point_distance_computations + sweep.leaf_pairs_skipped,
            uint64_t{p_items.size()} * q_items.size());
}

TEST(LeafKernelTest, BruteForceKernelsAgree) {
  const auto p_items = MakeUniformItems(500, 9107);
  const auto q_items = MakeClusteredItems(500, 9108);
  for (const Metric metric : {Metric::kL2, Metric::kL1, Metric::kLinf}) {
    const auto nested = BruteForceKClosestPairs(
        p_items, q_items, 25, /*self_join=*/false, metric,
        LeafKernel::kNestedLoop);
    const auto sweep = BruteForceKClosestPairs(
        p_items, q_items, 25, /*self_join=*/false, metric,
        LeafKernel::kPlaneSweep);
    ExpectSameDistances(sweep, nested, "brute kernels");
  }
}

TEST(LeafKernelTest, HsKernelsAgree) {
  const auto p_items = MakeUniformItems(600, 9109);
  const auto q_items = MakeUniformItems(600, 9110);
  TreeFixture fp, fq;
  KCPQ_ASSERT_OK(fp.Build(p_items));
  KCPQ_ASSERT_OK(fq.Build(q_items));
  // Closest sweeps HS's leaf pairs; farthest keeps its nested loop.
  for (const QueryFamily family : kSweepFamilies) {
    HsOptions options;
    options.family = family;
    auto result = HsKClosestPairs(fp.tree(), fq.tree(), 30, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    CpqOptions oracle;
    oracle.k = 30;
    oracle.family = family;
    ExpectDistances(result.value(),
                    testing::BruteForceFamilyDistances({p_items, q_items},
                                                       oracle),
                    std::string("hs ") + QueryFamilyName(family));
  }
}

/// Every field of the one per-query record, certificate included.
void ExpectSameRecord(const CpqStats& a, const CpqStats& b) {
  EXPECT_EQ(a.node_pairs_processed, b.node_pairs_processed);
  EXPECT_EQ(a.candidate_pairs_generated, b.candidate_pairs_generated);
  EXPECT_EQ(a.candidate_pairs_pruned, b.candidate_pairs_pruned);
  EXPECT_EQ(a.point_distance_computations, b.point_distance_computations);
  EXPECT_EQ(a.leaf_pairs_skipped, b.leaf_pairs_skipped);
  EXPECT_EQ(a.max_heap_size, b.max_heap_size);
  EXPECT_EQ(a.items_pushed, b.items_pushed);
  EXPECT_EQ(a.queue_spill_reads, b.queue_spill_reads);
  EXPECT_EQ(a.queue_spill_writes, b.queue_spill_writes);
  EXPECT_EQ(a.disk_accesses_p, b.disk_accesses_p);
  EXPECT_EQ(a.disk_accesses_q, b.disk_accesses_q);
  EXPECT_EQ(a.node_accesses, b.node_accesses);
  EXPECT_EQ(a.prefetch_issued, b.prefetch_issued);
  EXPECT_EQ(a.prefetch_hits, b.prefetch_hits);
  EXPECT_EQ(a.io_parks, b.io_parks);
  EXPECT_EQ(a.io_parked_ns, b.io_parked_ns);
  EXPECT_EQ(a.replication.failover_reads, b.replication.failover_reads);
  EXPECT_EQ(a.replication.read_repairs, b.replication.read_repairs);
  EXPECT_EQ(a.replication.hedged_reads, b.replication.hedged_reads);
  EXPECT_EQ(a.replication.hedge_wins, b.replication.hedge_wins);
  EXPECT_EQ(a.quality.stop_cause, b.quality.stop_cause);
  EXPECT_EQ(a.quality.pairs_found, b.quality.pairs_found);
  EXPECT_EQ(a.quality.guaranteed_lower_bound, b.quality.guaranteed_lower_bound);
  EXPECT_EQ(a.quality.is_exact, b.quality.is_exact);
  EXPECT_EQ(a.quality.bound_is_upper, b.quality.bound_is_upper);
  EXPECT_EQ(a.quality.missing_pair_bound, b.quality.missing_pair_bound);
  EXPECT_EQ(a.quality.rank_lower_bounds, b.quality.rank_lower_bounds);
}

// A batch HS query fills the same CpqStats a direct HsKClosestPairs call
// does, HS's own counters (items pushed, queue spills) and the prefetch
// counters included: nothing is lost in a mapping.
TEST(BatchHsRecordTest, BatchRecordMatchesDirectCall) {
  TreeFixture fp, fq;  // zero-capacity buffers: every read is a miss
  KCPQ_ASSERT_OK(fp.Build(MakeUniformItems(900, 9201)));
  KCPQ_ASSERT_OK(fq.Build(MakeClusteredItems(900, 9202)));
  constexpr size_t kK = 40;
  constexpr size_t kWindow = 4;

  std::vector<BatchQuery> queries(1);
  queries[0].kind = BatchQueryKind::kHsClosestPairs;
  queries[0].options.k = kK;
  queries[0].options.prefetch_window = kWindow;
  BatchOptions batch_options;
  batch_options.threads = 1;
  const std::vector<BatchQueryResult> batch =
      BatchKClosestPairs(fp.tree(), fq.tree(), queries, batch_options);
  ASSERT_EQ(batch.size(), 1u);
  KCPQ_ASSERT_OK(batch[0].status);

  HsOptions options;
  options.prefetch_window = kWindow;
  CpqStats direct;
  auto pairs = HsKClosestPairs(fp.tree(), fq.tree(), kK, options, &direct);
  KCPQ_ASSERT_OK(pairs.status());
  ExpectSameDistances(batch[0].pairs, pairs.value(), "batch vs direct");
  ExpectSameRecord(batch[0].stats, direct);
  EXPECT_GT(direct.items_pushed, direct.node_pairs_processed);
  EXPECT_GT(direct.prefetch_issued, 0u);

  // A batch query has no queue threshold (the mapping keeps everything in
  // memory), so its spill counters are the direct default's zeros; a
  // spilling direct join reports its spills in the same record, and the
  // search itself is unchanged.
  EXPECT_EQ(direct.queue_spill_writes, 0u);
  options.queue_distance_threshold = 1e-6;
  CpqStats spilled;
  KCPQ_ASSERT_OK(
      HsKClosestPairs(fp.tree(), fq.tree(), kK, options, &spilled).status());
  EXPECT_GT(spilled.queue_spill_writes, 0u);
  EXPECT_GT(spilled.queue_spill_reads, 0u);
  EXPECT_EQ(spilled.items_pushed, direct.items_pushed);
  EXPECT_EQ(spilled.node_pairs_processed, direct.node_pairs_processed);
  EXPECT_EQ(spilled.disk_accesses(), direct.disk_accesses());
}

// Concurrent queries against shared *sharded* buffers: per-query disk
// access deltas (thread-local accounting) must sum to the buffers' global
// miss counters, and results must match the unshared single-thread run.
TEST(ShardedBufferTest, ConcurrentQueriesAccountDiskAccesses) {
  const auto p_items = MakeUniformItems(3000, 9111);
  const auto q_items = MakeUniformItems(3000, 9112);
  TreeFixture fp, fq;
  KCPQ_ASSERT_OK(fp.Build(p_items));
  KCPQ_ASSERT_OK(fq.Build(q_items));

  BufferManager shared_p(&fp.storage(), 16, /*shards=*/8,
                         [] { return MakeLruPolicy(); });
  BufferManager shared_q(&fq.storage(), 16, /*shards=*/8,
                         [] { return MakeLruPolicy(); });
  auto tree_p = RStarTree::Open(&shared_p, fp.tree().meta_page());
  auto tree_q = RStarTree::Open(&shared_q, fq.tree().meta_page());
  ASSERT_TRUE(tree_p.ok());
  ASSERT_TRUE(tree_q.ok());

  std::vector<BatchQuery> batch(16);
  for (size_t i = 0; i < batch.size(); ++i) {
    batch[i].options.k = 1 + i * 3;
    batch[i].options.algorithm =
        (i % 2 == 0) ? CpqAlgorithm::kHeap : CpqAlgorithm::kSortedDistances;
  }
  const BufferStats before_p = shared_p.stats();
  const BufferStats before_q = shared_q.stats();
  BatchOptions options;
  options.threads = 8;
  const auto results = BatchKClosestPairs(*tree_p.value(), *tree_q.value(),
                                          batch, options);
  uint64_t sum_p = 0;
  uint64_t sum_q = 0;
  for (size_t i = 0; i < results.size(); ++i) {
    KCPQ_ASSERT_OK(results[i].status);
    sum_p += results[i].stats.disk_accesses_p;
    sum_q += results[i].stats.disk_accesses_q;

    CpqStats want_stats;
    auto want = KClosestPairs(fp.tree(), fq.tree(), batch[i].options,
                              &want_stats);
    ASSERT_TRUE(want.ok());
    ExpectSameDistances(results[i].pairs, want.value(),
                        "shared query " + std::to_string(i));
    ExpectSameStats(results[i].stats, want_stats,
                    "shared query " + std::to_string(i));
  }
  EXPECT_EQ(sum_p, shared_p.stats().misses - before_p.misses);
  EXPECT_EQ(sum_q, shared_q.stats().misses - before_q.misses);
}

TEST(ShardedBufferTest, ShardedMatchesClassicSingleThread) {
  const auto items = MakeUniformItems(1500, 9113);
  TreeFixture fx(/*buffer_pages=*/32);
  KCPQ_ASSERT_OK(fx.Build(items));
  BufferManager sharded(&fx.storage(), 32, /*shards=*/4,
                        [] { return MakeLruPolicy(); });
  auto tree = RStarTree::Open(&sharded, fx.tree().meta_page());
  ASSERT_TRUE(tree.ok());
  CpqOptions options;
  options.k = 5;
  options.self_join = true;
  auto a = SelfKClosestPairs(fx.tree(), options);
  auto b = SelfKClosestPairs(*tree.value(), options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ExpectSameDistances(b.value(), a.value(), "sharded vs classic");
}

}  // namespace
}  // namespace kcpq
