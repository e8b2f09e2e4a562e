// Reproduction regression tests: the paper's qualitative experimental
// findings, asserted at reduced scale so they run in the unit-test budget.
// If a change to the algorithms or the substrate breaks a *shape* the
// paper reports (and EXPERIMENTS.md documents), these tests fail before
// anyone reruns the full benches.

#include "cpq/cpq.h"
#include "gtest/gtest.h"
#include "hs/hs.h"
#include "tests/test_util.h"

namespace kcpq {
namespace {

using testing::MakeClusteredItems;
using testing::MakeUniformItems;
using testing::TreeFixture;

// One measured query on fresh cold views.
uint64_t Accesses(TreeFixture& fp, TreeFixture& fq, CpqAlgorithm algorithm,
                  size_t k = 1,
                  HeightStrategy height = HeightStrategy::kFixAtRoot) {
  KCPQ_CHECK_OK(fp.buffer().FlushAndClear());
  KCPQ_CHECK_OK(fq.buffer().FlushAndClear());
  CpqOptions options;
  options.algorithm = algorithm;
  options.k = k;
  options.height_strategy = height;
  CpqStats stats;
  KCPQ_CHECK_OK(KClosestPairs(fp.tree(), fq.tree(), options, &stats).status());
  return stats.disk_accesses();
}

class ReproductionTest : public ::testing::Test {
 protected:
  // "R" analogue (clustered) and a uniform partner at 0% / 100% overlap.
  void SetUp() override {
    real_ = std::make_unique<TreeFixture>();
    KCPQ_CHECK_OK(real_->Build(MakeClusteredItems(kN, 7777)));
    disjoint_ = std::make_unique<TreeFixture>();
    KCPQ_CHECK_OK(disjoint_->Build(MakeUniformItems(
        kN, 7778, ShiftedWorkspace(UnitWorkspace(), 0.0))));
    overlapping_ = std::make_unique<TreeFixture>();
    KCPQ_CHECK_OK(overlapping_->Build(MakeUniformItems(kN, 7779)));
  }

  static constexpr size_t kN = 8000;
  std::unique_ptr<TreeFixture> real_, disjoint_, overlapping_;
};

TEST_F(ReproductionTest, Figure4a_StdAndHeapBeatExhByALotWhenDisjoint) {
  const uint64_t exh = Accesses(*real_, *disjoint_, CpqAlgorithm::kExhaustive);
  const uint64_t std_cost =
      Accesses(*real_, *disjoint_, CpqAlgorithm::kSortedDistances);
  const uint64_t heap = Accesses(*real_, *disjoint_, CpqAlgorithm::kHeap);
  // Paper: "one order of magnitude lower"; require at least 4x at this
  // reduced scale.
  EXPECT_GT(exh, 4 * std_cost);
  EXPECT_GT(exh, 4 * heap);
}

TEST_F(ReproductionTest, Figure4_SimNeverBeatsStdOrHeapMaterially) {
  for (TreeFixture* q : {disjoint_.get(), overlapping_.get()}) {
    const uint64_t sim = Accesses(*real_, *q, CpqAlgorithm::kSimple);
    const uint64_t std_cost =
        Accesses(*real_, *q, CpqAlgorithm::kSortedDistances);
    EXPECT_GE(sim + sim / 10, std_cost);  // STD within 10% or better
  }
}

TEST_F(ReproductionTest, Figure5_OverlapDominatesCost) {
  // Cost at 100% overlap is orders of magnitude above 0% overlap.
  const uint64_t disjoint_cost =
      Accesses(*real_, *disjoint_, CpqAlgorithm::kHeap);
  const uint64_t overlap_cost =
      Accesses(*real_, *overlapping_, CpqAlgorithm::kHeap);
  EXPECT_GT(overlap_cost, 20 * disjoint_cost);
}

TEST_F(ReproductionTest, Figure6_BufferHelpsRecursiveAlgorithms) {
  // EXH with a healthy buffer must be materially cheaper than without.
  const auto items_q = MakeUniformItems(kN, 7780);
  uint64_t cost[2];
  int i = 0;
  for (const size_t pages : {size_t{0}, size_t{128}}) {
    TreeFixture fq(pages);
    KCPQ_CHECK_OK(fq.Build(items_q));
    TreeFixture fp(pages);
    KCPQ_CHECK_OK(fp.Build(MakeClusteredItems(kN, 7777)));
    cost[i++] = Accesses(fp, fq, CpqAlgorithm::kExhaustive);
  }
  EXPECT_GT(cost[0], cost[1] + cost[1] / 4);  // >25% cheaper with buffer
}

TEST_F(ReproductionTest, Figure7_CostGrowsWithK) {
  uint64_t prev = 0;
  for (const size_t k : {1, 100, 10000}) {
    const uint64_t cost =
        Accesses(*real_, *overlapping_, CpqAlgorithm::kHeap, k);
    EXPECT_GE(cost, prev);
    prev = cost;
  }
  // And the growth from K=1 to K=10000 is substantial.
  EXPECT_GT(prev, Accesses(*real_, *overlapping_, CpqAlgorithm::kHeap, 1));
}

TEST_F(ReproductionTest, Figure7b_HeapWinsAtHighOverlapLargeK) {
  const size_t k = 10000;
  const uint64_t heap =
      Accesses(*real_, *overlapping_, CpqAlgorithm::kHeap, k);
  const uint64_t exh =
      Accesses(*real_, *overlapping_, CpqAlgorithm::kExhaustive, k);
  const uint64_t std_cost =
      Accesses(*real_, *overlapping_, CpqAlgorithm::kSortedDistances, k);
  EXPECT_LT(heap, exh);
  EXPECT_LE(heap, std_cost);
}

TEST_F(ReproductionTest, Figure3_FixAtRootNoWorseOnOverlappingData) {
  // Different heights: 8K vs a much smaller set.
  TreeFixture small;
  KCPQ_CHECK_OK(small.Build(MakeUniformItems(400, 7781)));
  ASSERT_NE(real_->tree().height(), small.tree().height());
  const uint64_t at_leaves =
      Accesses(*real_, small, CpqAlgorithm::kHeap, 1,
               HeightStrategy::kFixAtLeaves);
  const uint64_t at_root = Accesses(*real_, small, CpqAlgorithm::kHeap, 1,
                                    HeightStrategy::kFixAtRoot);
  EXPECT_LE(at_root, at_leaves);
}

TEST_F(ReproductionTest, Figure10_HeapMatchesSmlOnDisjointWorkspaces) {
  // The paper: "for disjoint workspaces HEAP and SML appear to have
  // identical behavior".
  KCPQ_CHECK_OK(real_->buffer().FlushAndClear());
  KCPQ_CHECK_OK(disjoint_->buffer().FlushAndClear());
  CpqOptions options;
  options.algorithm = CpqAlgorithm::kHeap;
  options.k = 100;
  CpqStats heap_stats;
  KCPQ_CHECK_OK(KClosestPairs(real_->tree(), disjoint_->tree(), options,
                              &heap_stats)
                    .status());
  KCPQ_CHECK_OK(real_->buffer().FlushAndClear());
  KCPQ_CHECK_OK(disjoint_->buffer().FlushAndClear());
  HsOptions hs_options;
  hs_options.traversal = HsTraversal::kSimultaneous;
  CpqStats sml_stats;
  KCPQ_CHECK_OK(HsKClosestPairs(real_->tree(), disjoint_->tree(), 100,
                                hs_options, &sml_stats)
                    .status());
  // Identical in our implementation, but allow a small slack so the guard
  // is about the relationship, not bit-for-bit equality.
  const double ratio = static_cast<double>(heap_stats.disk_accesses()) /
                       static_cast<double>(sml_stats.disk_accesses());
  EXPECT_GT(ratio, 0.9);
  EXPECT_LT(ratio, 1.1);
}

TEST_F(ReproductionTest, Figure10_HeapQueueFarSmallerThanSmlQueue) {
  // The paper's architectural argument for the non-incremental HEAP: its
  // pair heap stays a small fraction of [11]'s priority queue.
  KCPQ_CHECK_OK(real_->buffer().FlushAndClear());
  KCPQ_CHECK_OK(overlapping_->buffer().FlushAndClear());
  CpqOptions options;
  options.algorithm = CpqAlgorithm::kHeap;
  options.k = 1000;
  CpqStats heap_stats;
  KCPQ_CHECK_OK(KClosestPairs(real_->tree(), overlapping_->tree(), options,
                              &heap_stats)
                    .status());
  // The basic algorithm of [11] is fully incremental (no K bound): its
  // queue accumulates object-level pairs. That is the regime the paper's
  // size comparison addresses ("a small fraction of the pairs that are
  // likely to be inserted in the priority queue of [11]").
  HsOptions hs_options;
  hs_options.k_bound = 0;
  IncrementalDistanceJoin join(real_->tree(), overlapping_->tree(),
                               hs_options);
  for (int i = 0; i < 1000; ++i) {
    auto next = join.Next();
    KCPQ_CHECK_OK(next.status());
    ASSERT_TRUE(next.value().has_value());
  }
  EXPECT_LT(heap_stats.max_heap_size, join.stats().max_heap_size / 4);
}

}  // namespace
}  // namespace kcpq
