// Differential proof that speculative prefetch is invisible to everything
// but wall-clock: 50 seeded workloads x all five CPQ algorithms x both
// height strategies x K in {1, 10}, each run with prefetch off and on —
// the result pairs, distances, traversal counters, and the paper-metric
// disk-access counts must be bit-identical. The same property is checked
// for the HS incremental join's three traversals, for the batch executor
// at several thread counts, and under a chaos stack combining transient
// storage faults, retries, deadlines, and prefetch (clean drains, no
// leaked in-flight reads — run under ASan/TSan in CI).

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "buffer/buffer_manager.h"
#include "buffer/replacement_policy.h"
#include "cpq/cpq.h"
#include "exec/batch.h"
#include "geometry/metrics.h"
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

constexpr CpqAlgorithm kAllAlgorithms[] = {
    CpqAlgorithm::kNaive, CpqAlgorithm::kExhaustive, CpqAlgorithm::kSimple,
    CpqAlgorithm::kSortedDistances, CpqAlgorithm::kHeap};
constexpr HeightStrategy kBothStrategies[] = {HeightStrategy::kFixAtLeaves,
                                              HeightStrategy::kFixAtRoot};

struct RunResult {
  std::vector<PairResult> pairs;
  CpqStats stats;
};

/// Runs one query over fresh buffers on `fixture` storage so the cache
/// history — and hence the disk-access counts — depends only on the query.
RunResult RunOnce(TreeFixture* fp, TreeFixture* fq, size_t buffer_pages,
                  const CpqOptions& options) {
  BufferManager buffer_p(&fp->storage(), buffer_pages);
  BufferManager buffer_q(&fq->storage(), buffer_pages);
  auto tree_p = RStarTree::Open(&buffer_p, fp->tree().meta_page());
  auto tree_q = RStarTree::Open(&buffer_q, fq->tree().meta_page());
  KCPQ_CHECK_OK(tree_p.status());
  KCPQ_CHECK_OK(tree_q.status());
  RunResult r;
  auto pairs = KClosestPairs(*tree_p.value(), *tree_q.value(), options,
                             &r.stats);
  KCPQ_CHECK_OK(pairs.status());
  r.pairs = std::move(pairs).value();
  // A clean query leaves nothing staged or in flight behind.
  EXPECT_EQ(buffer_p.prefetch_inflight(), 0u);
  EXPECT_EQ(buffer_p.prefetch_staged(), 0u);
  EXPECT_EQ(buffer_q.prefetch_inflight(), 0u);
  EXPECT_EQ(buffer_q.prefetch_staged(), 0u);
  return r;
}

void ExpectIdentical(const RunResult& off, const RunResult& on,
                     const std::string& label) {
  ASSERT_EQ(off.pairs.size(), on.pairs.size()) << label;
  for (size_t i = 0; i < off.pairs.size(); ++i) {
    EXPECT_EQ(off.pairs[i].p_id, on.pairs[i].p_id) << label << " rank " << i;
    EXPECT_EQ(off.pairs[i].q_id, on.pairs[i].q_id) << label << " rank " << i;
    // Bitwise, not approximate: the traversal must be unchanged.
    EXPECT_EQ(off.pairs[i].distance, on.pairs[i].distance)
        << label << " rank " << i;
  }
  EXPECT_EQ(off.stats.node_pairs_processed, on.stats.node_pairs_processed)
      << label;
  EXPECT_EQ(off.stats.candidate_pairs_generated,
            on.stats.candidate_pairs_generated)
      << label;
  EXPECT_EQ(off.stats.candidate_pairs_pruned, on.stats.candidate_pairs_pruned)
      << label;
  EXPECT_EQ(off.stats.point_distance_computations,
            on.stats.point_distance_computations)
      << label;
  EXPECT_EQ(off.stats.leaf_pairs_skipped, on.stats.leaf_pairs_skipped)
      << label;
  EXPECT_EQ(off.stats.max_heap_size, on.stats.max_heap_size) << label;
  EXPECT_EQ(off.stats.node_accesses, on.stats.node_accesses) << label;
  // The paper's cost metric, per tree: bit-identical.
  EXPECT_EQ(off.stats.disk_accesses_p, on.stats.disk_accesses_p) << label;
  EXPECT_EQ(off.stats.disk_accesses_q, on.stats.disk_accesses_q) << label;
}

class PrefetchDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PrefetchDifferentialTest, ResultsAndDiskCountsBitIdentical) {
  const uint64_t seed = GetParam();
  const size_t np = 60 + (seed % 5) * 40;
  const size_t nq = 60 + ((seed / 5) % 5) * 40;
  const auto p_items = (seed % 2 == 0) ? MakeUniformItems(np, 7000 + seed)
                                       : MakeClusteredItems(np, 7000 + seed);
  const auto q_items = (seed % 3 == 0)
                           ? MakeClusteredItems(nq, 8000 + seed)
                           : MakeUniformItems(nq, 8000 + seed);
  TreeFixture fp, fq;
  KCPQ_ASSERT_OK(fp.Build(p_items));
  KCPQ_ASSERT_OK(fq.Build(q_items));
  // Small and varied so some runs are miss-heavy and some pass-through.
  const size_t buffer_pages = (seed % 4 == 0) ? 0 : 2 + seed % 8;
  const size_t window = 1 + seed % 16;

  for (const CpqAlgorithm algorithm : kAllAlgorithms) {
    for (const HeightStrategy strategy : kBothStrategies) {
      for (const size_t k : {size_t{1}, size_t{10}}) {
        CpqOptions options;
        options.algorithm = algorithm;
        options.height_strategy = strategy;
        options.k = k;
        const std::string label =
            std::string(CpqAlgorithmName(algorithm)) +
            (strategy == HeightStrategy::kFixAtRoot ? "/root" : "/leaves") +
            " k=" + std::to_string(k) + " seed=" + std::to_string(seed) +
            " w=" + std::to_string(window);
        SCOPED_TRACE(label);
        options.prefetch_window = 0;
        const RunResult off = RunOnce(&fp, &fq, buffer_pages, options);
        EXPECT_EQ(off.stats.prefetch_issued, 0u);
        EXPECT_EQ(off.stats.prefetch_hits, 0u);
        options.prefetch_window = window;
        const RunResult on = RunOnce(&fp, &fq, buffer_pages, options);
        ExpectIdentical(off, on, label);
        EXPECT_GE(on.stats.prefetch_issued, on.stats.prefetch_hits) << label;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(FiftySeeds, PrefetchDifferentialTest,
                         ::testing::Range(uint64_t{0}, uint64_t{50}));

// The HS incremental join: same bit-identity, all three traversals.
TEST(PrefetchHsTest, ResultsAndDiskCountsBitIdentical) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    const auto p_items = MakeUniformItems(150 + seed * 20, 9100 + seed);
    const auto q_items = MakeClusteredItems(130 + seed * 15, 9200 + seed);
    TreeFixture fp, fq;
    KCPQ_ASSERT_OK(fp.Build(p_items));
    KCPQ_ASSERT_OK(fq.Build(q_items));
    for (const HsTraversal traversal :
         {HsTraversal::kBasic, HsTraversal::kEven,
          HsTraversal::kSimultaneous}) {
      const std::string label = std::string(HsTraversalName(traversal)) +
                                " seed=" + std::to_string(seed);
      SCOPED_TRACE(label);
      const auto run = [&](size_t window) {
        BufferManager buffer_p(&fp.storage(), 4);
        BufferManager buffer_q(&fq.storage(), 4);
        auto tree_p = RStarTree::Open(&buffer_p, fp.tree().meta_page());
        auto tree_q = RStarTree::Open(&buffer_q, fq.tree().meta_page());
        KCPQ_CHECK_OK(tree_p.status());
        KCPQ_CHECK_OK(tree_q.status());
        HsOptions options;
        options.traversal = traversal;
        options.prefetch_window = window;
        CpqStats stats;
        auto pairs = HsKClosestPairs(*tree_p.value(), *tree_q.value(), 10,
                                     options, &stats);
        KCPQ_CHECK_OK(pairs.status());
        EXPECT_EQ(buffer_p.prefetch_inflight(), 0u) << label;
        EXPECT_EQ(buffer_q.prefetch_inflight(), 0u) << label;
        return std::make_pair(std::move(pairs).value(), stats);
      };
      const auto [off_pairs, off_stats] = run(0);
      const auto [on_pairs, on_stats] = run(6);
      EXPECT_EQ(off_stats.prefetch_issued, 0u) << label;
      ASSERT_EQ(off_pairs.size(), on_pairs.size()) << label;
      for (size_t i = 0; i < off_pairs.size(); ++i) {
        EXPECT_EQ(off_pairs[i].p_id, on_pairs[i].p_id) << label;
        EXPECT_EQ(off_pairs[i].q_id, on_pairs[i].q_id) << label;
        EXPECT_EQ(off_pairs[i].distance, on_pairs[i].distance) << label;
      }
      EXPECT_EQ(off_stats.items_pushed, on_stats.items_pushed) << label;
      EXPECT_EQ(off_stats.node_pairs_processed, on_stats.node_pairs_processed)
          << label;
      EXPECT_EQ(off_stats.node_accesses, on_stats.node_accesses) << label;
      EXPECT_EQ(off_stats.disk_accesses_p, on_stats.disk_accesses_p) << label;
      EXPECT_EQ(off_stats.disk_accesses_q, on_stats.disk_accesses_q) << label;
      EXPECT_GE(on_stats.prefetch_issued, on_stats.prefetch_hits) << label;
    }
  }
}

/// Pass-through storage that records the page id of every asynchronous
/// (speculative) read before serving it through the default path.
class AsyncRecordingStorage final : public StorageManager {
 public:
  explicit AsyncRecordingStorage(StorageManager* base)
      : StorageManager(base->page_size()), base_(base) {}

  std::vector<PageId> async_pages() const {
    std::lock_guard<std::mutex> lock(mu_);
    return async_pages_;
  }

  uint64_t PageCount() const override { return base_->PageCount(); }
  Result<PageId> Allocate() override { return base_->Allocate(); }
  Status Free(PageId id) override { return base_->Free(id); }
  Status WritePage(PageId id, const Page& page) override {
    CountWrite();
    return base_->WritePage(id, page);
  }
  Status Sync() override { return base_->Sync(); }

 protected:
  Status DoReadPage(PageId id, Page* page, const QueryContext* ctx) override {
    CountRead();
    return base_->ReadPage(id, page, ctx);
  }
  void DoReadPagesAsync(const PageId* ids, size_t count,
                        const AsyncReadCallback& callback) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      async_pages_.insert(async_pages_.end(), ids, ids + count);
    }
    StorageManager::DoReadPagesAsync(ids, count, callback);
  }

 private:
  StorageManager* base_;
  mutable std::mutex mu_;
  std::vector<PageId> async_pages_;
};

/// Page id -> the rect its parent entry records, for every non-root node.
std::map<PageId, Rect> ChildRects(const RStarTree& tree) {
  std::map<PageId, Rect> rects;
  std::vector<PageId> stack = {tree.root_page()};
  while (!stack.empty()) {
    Node node;
    KCPQ_CHECK_OK(tree.ReadNode(stack.back(), &node));
    stack.pop_back();
    if (node.IsLeaf()) continue;
    for (const Entry& e : node.entries) {
      rects[e.id] = e.rect;
      stack.push_back(e.id);
    }
  }
  return rects;
}

// A range-restricted HS join drops every child pair with a subtree
// strictly outside the query rect, so it must never speculate on such a
// subtree either — even while its K-bound is still +infinity. Speculation
// stays invisible: pairs and disk accesses equal a run without it.
TEST(PrefetchHsTest, RangeClosestSpeculatesOnlyOnEnqueuedSubtrees) {
  TreeFixture fp, fq;
  KCPQ_ASSERT_OK(fp.Build(MakeUniformItems(1500, 9601)));
  KCPQ_ASSERT_OK(fq.Build(MakeClusteredItems(1500, 9602)));
  const std::map<PageId, Rect> rects_p = ChildRects(fp.tree());
  const std::map<PageId, Rect> rects_q = ChildRects(fq.tree());
  Rect window;
  window.lo[0] = 0.30;
  window.lo[1] = 0.35;
  window.hi[0] = 0.45;
  window.hi[1] = 0.50;
  for (const HsTraversal traversal :
       {HsTraversal::kBasic, HsTraversal::kEven,
        HsTraversal::kSimultaneous}) {
    const std::string label = HsTraversalName(traversal);
    SCOPED_TRACE(label);
    struct Run {
      std::vector<PairResult> pairs;
      CpqStats stats;
      std::vector<PageId> async_p, async_q;
    };
    const auto run = [&](size_t window_pages) {
      AsyncRecordingStorage storage_p(&fp.storage());
      AsyncRecordingStorage storage_q(&fq.storage());
      BufferManager buffer_p(&storage_p, 4);
      BufferManager buffer_q(&storage_q, 4);
      auto tree_p = RStarTree::Open(&buffer_p, fp.tree().meta_page());
      auto tree_q = RStarTree::Open(&buffer_q, fq.tree().meta_page());
      KCPQ_CHECK_OK(tree_p.status());
      KCPQ_CHECK_OK(tree_q.status());
      HsOptions options;
      options.traversal = traversal;
      options.family = QueryFamily::kRangeClosest;
      options.query_rect = window;
      options.prefetch_window = window_pages;
      Run r;
      auto pairs = HsKClosestPairs(*tree_p.value(), *tree_q.value(), 10,
                                   options, &r.stats);
      KCPQ_CHECK_OK(pairs.status());
      r.pairs = std::move(pairs).value();
      r.async_p = storage_p.async_pages();
      r.async_q = storage_q.async_pages();
      return r;
    };
    const Run off = run(0);
    const Run on = run(8);
    EXPECT_TRUE(off.async_p.empty() && off.async_q.empty());
    EXPECT_GT(on.async_p.size() + on.async_q.size(), 0u);
    for (const auto& [pages, rects, side] :
         {std::make_tuple(&on.async_p, &rects_p, "P"),
          std::make_tuple(&on.async_q, &rects_q, "Q")}) {
      for (const PageId page : *pages) {
        const auto it = rects->find(page);
        ASSERT_NE(it, rects->end()) << side << " page " << page;
        EXPECT_EQ(MinMinDistSquared(it->second, window), 0.0)
            << side << " page " << page << " lies outside the rect";
      }
    }
    ASSERT_EQ(off.pairs.size(), on.pairs.size());
    for (size_t i = 0; i < off.pairs.size(); ++i) {
      EXPECT_EQ(off.pairs[i].p_id, on.pairs[i].p_id) << "rank " << i;
      EXPECT_EQ(off.pairs[i].q_id, on.pairs[i].q_id) << "rank " << i;
      EXPECT_EQ(off.pairs[i].distance, on.pairs[i].distance) << "rank " << i;
    }
    EXPECT_EQ(off.stats.items_pushed, on.stats.items_pushed);
    EXPECT_EQ(off.stats.node_accesses, on.stats.node_accesses);
    EXPECT_EQ(off.stats.disk_accesses_p, on.stats.disk_accesses_p);
    EXPECT_EQ(off.stats.disk_accesses_q, on.stats.disk_accesses_q);
  }
}

// The accounting identity at the buffer level after a full query: every
// speculative read is eventually a hit or wasted, nothing leaks.
TEST(PrefetchAccountingTest, IssuedEqualsHitsPlusWastedAfterQuery) {
  const auto p_items = MakeUniformItems(400, 9301);
  const auto q_items = MakeUniformItems(350, 9302);
  TreeFixture fp, fq;
  KCPQ_ASSERT_OK(fp.Build(p_items));
  KCPQ_ASSERT_OK(fq.Build(q_items));
  BufferManager buffer_p(&fp.storage(), 8);
  BufferManager buffer_q(&fq.storage(), 8);
  auto tree_p = RStarTree::Open(&buffer_p, fp.tree().meta_page());
  auto tree_q = RStarTree::Open(&buffer_q, fq.tree().meta_page());
  ASSERT_TRUE(tree_p.ok());
  ASSERT_TRUE(tree_q.ok());
  CpqOptions options;
  options.algorithm = CpqAlgorithm::kHeap;
  options.k = 10;
  options.prefetch_window = 8;
  CpqStats stats;
  auto pairs = KClosestPairs(*tree_p.value(), *tree_q.value(), options,
                             &stats);
  KCPQ_ASSERT_OK(pairs.status());
  for (BufferManager* buffer : {&buffer_p, &buffer_q}) {
    const BufferStats bs = buffer->stats();
    EXPECT_EQ(bs.prefetch_issued, bs.prefetch_hits + bs.prefetch_wasted);
    EXPECT_EQ(buffer->prefetch_inflight(), 0u);
    EXPECT_EQ(buffer->prefetch_staged(), 0u);
  }
  // The per-query counters agree with the buffer-level aggregates (one
  // single-threaded query is the whole aggregate here).
  EXPECT_EQ(stats.prefetch_issued,
            buffer_p.stats().prefetch_issued + buffer_q.stats().prefetch_issued);
  EXPECT_GT(stats.prefetch_issued, 0u);
}

// Batch-mode identity: a batch-wide window changes no per-query result at
// any thread count; disk counts are compared single-threaded where the
// buffer interleaving is deterministic.
TEST(PrefetchBatchTest, BatchWideWindowKeepsResultsIdentical) {
  const auto p_items = MakeUniformItems(500, 9401);
  const auto q_items = MakeClusteredItems(450, 9402);
  TreeFixture fp, fq;
  KCPQ_ASSERT_OK(fp.Build(p_items));
  KCPQ_ASSERT_OK(fq.Build(q_items));
  std::vector<BatchQuery> batch(10);
  for (size_t i = 0; i < batch.size(); ++i) {
    batch[i].options.k = 1 + i * 3;
    batch[i].options.algorithm =
        (i % 2 == 0) ? CpqAlgorithm::kHeap : CpqAlgorithm::kSortedDistances;
  }
  const std::vector<BatchQueryResult> want =
      BatchKClosestPairs(fp.tree(), fq.tree(), batch, BatchOptions{});
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    BatchOptions options;
    options.threads = threads;
    options.prefetch_window = 8;
    const std::vector<BatchQueryResult> got =
        BatchKClosestPairs(fp.tree(), fq.tree(), batch, options);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      const std::string label =
          "query " + std::to_string(i) + " threads " + std::to_string(threads);
      KCPQ_ASSERT_OK(got[i].status);
      ASSERT_EQ(got[i].pairs.size(), want[i].pairs.size()) << label;
      for (size_t r = 0; r < want[i].pairs.size(); ++r) {
        EXPECT_EQ(got[i].pairs[r].p_id, want[i].pairs[r].p_id) << label;
        EXPECT_EQ(got[i].pairs[r].q_id, want[i].pairs[r].q_id) << label;
        EXPECT_EQ(got[i].pairs[r].distance, want[i].pairs[r].distance)
            << label;
      }
      EXPECT_EQ(got[i].stats.node_pairs_processed,
                want[i].stats.node_pairs_processed)
          << label;
      EXPECT_EQ(got[i].stats.point_distance_computations,
                want[i].stats.point_distance_computations)
          << label;
      if (threads == 1) {
        EXPECT_EQ(got[i].stats.disk_accesses(), want[i].stats.disk_accesses())
            << label;
      }
    }
  }
  // An explicit per-query window beats the batch-wide default.
  std::vector<BatchQuery> explicit_batch = batch;
  explicit_batch[0].options.prefetch_window = 2;
  BatchOptions options;
  options.prefetch_window = 8;
  const std::vector<BatchQueryResult> got =
      BatchKClosestPairs(fp.tree(), fq.tree(), explicit_batch, options);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    KCPQ_ASSERT_OK(got[i].status);
    ASSERT_EQ(got[i].pairs.size(), want[i].pairs.size());
  }
}

// Chaos: prefetch composed with transient faults + retries + a deadline.
// In-flight speculative reads must drain cleanly (no leaks under
// ASan/TSan), failed speculation must fall back to the synchronous
// demand-read path, and fault-free-equivalent results must come back
// bit-identical when the query completes.
TEST(PrefetchChaosTest, TransientFaultsAndDeadlinesDrainCleanly) {
  const auto p_items = MakeUniformItems(700, 9501);
  const auto q_items = MakeClusteredItems(600, 9502);
  TreeFixture fp, fq;
  KCPQ_ASSERT_OK(fp.Build(p_items));
  KCPQ_ASSERT_OK(fq.Build(q_items));

  CpqOptions options;
  options.algorithm = CpqAlgorithm::kHeap;
  options.k = 12;
  const auto reference = KClosestPairs(fp.tree(), fq.tree(), options);
  KCPQ_ASSERT_OK(reference.status());

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
  faulty_p.FailWithProbability(0.2, /*seed=*/71, /*transient=*/true);
  faulty_q.FailWithProbability(0.2, /*seed=*/72, /*transient=*/true);

  // Round 1: flaky but unlimited — retries absorb every fault, so the
  // prefetching run must match the fault-free reference exactly.
  options.prefetch_window = 8;
  CpqStats stats;
  auto flaky = KClosestPairs(*tree_p.value(), *tree_q.value(), options,
                             &stats);
  KCPQ_ASSERT_OK(flaky.status());
  ASSERT_EQ(flaky.value().size(), reference.value().size());
  for (size_t i = 0; i < flaky.value().size(); ++i) {
    EXPECT_EQ(flaky.value()[i].p_id, reference.value()[i].p_id);
    EXPECT_EQ(flaky.value()[i].q_id, reference.value()[i].q_id);
    EXPECT_EQ(flaky.value()[i].distance, reference.value()[i].distance);
  }
  EXPECT_GT(faulty_p.faults_injected() + faulty_q.faults_injected(), 0u);

  // Round 2: repeat under tight deadlines; partial results are fine, but
  // every speculative read must be drained or claimed — nothing in
  // flight, and the identity holds at the buffer level.
  for (int round = 0; round < 8; ++round) {
    QueryContext ctx(QueryControl::WithDeadlineAfter(
        std::chrono::microseconds(round * 300)));
    CpqOptions limited = options;
    limited.context = &ctx;
    CpqStats limited_stats;
    auto partial = KClosestPairs(*tree_p.value(), *tree_q.value(), limited,
                                 &limited_stats);
    KCPQ_ASSERT_OK(partial.status());  // expiry is a partial, not an error
  }
  for (BufferManager* buffer : {&buffer_p, &buffer_q}) {
    EXPECT_EQ(buffer->prefetch_inflight(), 0u);
    EXPECT_EQ(buffer->prefetch_staged(), 0u);
    const BufferStats bs = buffer->stats();
    EXPECT_EQ(bs.prefetch_issued, bs.prefetch_hits + bs.prefetch_wasted);
  }
}

}  // namespace
}  // namespace kcpq
