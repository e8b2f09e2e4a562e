// EXPLAIN ANALYZE tests: the per-level pruning accounting identity
//
//   considered == visited + pruned_ineq1 + pruned_order + deferred
//
// must hold at every level for every engine driver (recursive, heap,
// naive), complete or stopped early; plus a golden-file test locking the
// report's rendering. Regenerate the golden with
//
//   KCPQ_UPDATE_GOLDEN=1 ./explain_test --gtest_filter='*Golden*'

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/query_context.h"
#include "cpq/cpq.h"
#include "gtest/gtest.h"
#include "obs/explain.h"
#include "tests/test_util.h"

namespace kcpq {
namespace {

using testing::MakeUniformItems;
using testing::TreeFixture;

struct ProfiledRun {
  std::vector<PairResult> pairs;
  CpqStats stats;
  obs::PruningProfile profile;
};

// Runs one K-CPQ with a pruning profile attached; trees are built fresh
// from fixed seeds so counts are deterministic.
ProfiledRun RunProfiledOptions(CpqOptions options, size_t n,
                               const QueryControl& control = {}) {
  TreeFixture p;
  TreeFixture q;
  KCPQ_CHECK_OK(p.Build(MakeUniformItems(n, /*seed=*/42, UnitWorkspace())));
  KCPQ_CHECK_OK(q.Build(MakeUniformItems(n, /*seed=*/43, UnitWorkspace())));

  ProfiledRun run;
  QueryContext ctx(control);
  ctx.set_profile(&run.profile);
  options.context = &ctx;
  auto result = KClosestPairs(p.tree(), q.tree(), options, &run.stats);
  KCPQ_CHECK_OK(result.status());
  run.pairs = std::move(result).value();
  return run;
}

ProfiledRun RunProfiled(CpqAlgorithm algorithm, size_t n, size_t k,
                        const QueryControl& control = {}) {
  CpqOptions options;
  options.algorithm = algorithm;
  options.k = k;
  return RunProfiledOptions(options, n, control);
}

void ExpectIdentityHolds(const obs::PruningProfile& profile) {
  for (size_t level = 0; level < profile.levels().size(); ++level) {
    const obs::LevelPruningCounts& c = profile.levels()[level];
    EXPECT_EQ(c.considered,
              c.visited + c.pruned_ineq1 + c.pruned_order + c.deferred)
        << "identity broken at level " << level;
  }
}

class ExplainProfileTest : public ::testing::TestWithParam<CpqAlgorithm> {};

TEST_P(ExplainProfileTest, IdentityAndTotalsMatchStats) {
  const ProfiledRun run = RunProfiled(GetParam(), /*n=*/2000, /*k=*/10);
  ASSERT_EQ(run.pairs.size(), 10u);
  ExpectIdentityHolds(run.profile);

  const obs::LevelPruningCounts totals = run.profile.Totals();
  // Every visited pair was expanded by the engine and vice versa.
  EXPECT_EQ(totals.visited, run.stats.node_pairs_processed);
  // Every candidate the engine generated was considered, plus the root
  // pair which no candidate list ever contains.
  EXPECT_EQ(totals.considered, run.stats.candidate_pairs_generated + 1);
  // A completed query defers nothing.
  EXPECT_EQ(totals.deferred, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, ExplainProfileTest,
                         ::testing::Values(CpqAlgorithm::kNaive,
                                           CpqAlgorithm::kExhaustive,
                                           CpqAlgorithm::kSimple,
                                           CpqAlgorithm::kSortedDistances,
                                           CpqAlgorithm::kHeap));

TEST(ExplainProfileTest, NaiveConsidersEverythingItVisits) {
  const ProfiledRun run = RunProfiled(CpqAlgorithm::kNaive, 500, 5);
  const obs::LevelPruningCounts totals = run.profile.Totals();
  // kNaive prunes nothing: every considered pair is visited.
  EXPECT_EQ(totals.considered, totals.visited);
  EXPECT_EQ(totals.pruned_ineq1, 0u);
  EXPECT_EQ(totals.pruned_order, 0u);
}

TEST(ExplainProfileTest, BudgetStopMarksDeferred) {
  QueryControl control;
  control.max_node_accesses = 20;
  const ProfiledRun run =
      RunProfiled(CpqAlgorithm::kHeap, 2000, 10, control);
  ASSERT_TRUE(run.stats.quality.is_partial());
  ExpectIdentityHolds(run.profile);
  EXPECT_GT(run.profile.Totals().deferred, 0u);
}

TEST(ExplainProfileTest, BoundSamplesAreMonotone) {
  const ProfiledRun run = RunProfiled(CpqAlgorithm::kHeap, 2000, 10);
  const std::vector<obs::BoundSample>& samples =
      run.profile.bound_samples();
  ASSERT_FALSE(samples.empty());
  for (size_t i = 1; i < samples.size(); ++i) {
    EXPECT_LE(samples[i].bound, samples[i - 1].bound);
    EXPECT_GE(samples[i].node_pairs, samples[i - 1].node_pairs);
  }
  // The final sample's bound admits the kth result distance.
  EXPECT_LE(run.pairs.back().distance * run.pairs.back().distance,
            samples.back().bound + 1e-9);
}

TEST(ExplainProfileTest, BoundSampleDecimationKeepsEndpoints) {
  obs::PruningProfile profile;
  for (uint64_t i = 0; i < 500; ++i) {
    profile.BoundUpdate(i, 1000.0 - static_cast<double>(i));
  }
  const std::vector<obs::BoundSample>& samples = profile.bound_samples();
  ASSERT_LE(samples.size(), obs::PruningProfile::kMaxBoundSamples);
  EXPECT_EQ(samples.front().node_pairs, 0u);
  EXPECT_EQ(samples.back().node_pairs, 499u);
}

// The CLI's EXPLAIN inputs for a profiled run (CpqExplainInputs), over
// the pass-through buffer every fixture uses, where every read is
// physical. The wall time stays unset (timing is nondeterministic; it
// renders "n/a").
obs::ExplainInputs MakeInputs(const CpqOptions& options,
                              const ProfiledRun& run) {
  obs::ExplainInputs inputs = CpqExplainInputs(options, run.stats, run.pairs);
  inputs.buffer_misses = run.stats.disk_accesses();
  return inputs;
}

void CheckGolden(const std::string& file, const std::string& report) {
  const std::string path = std::string(KCPQ_TEST_GOLDEN_DIR) + "/" + file;
  if (std::getenv("KCPQ_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << report;
    GTEST_SKIP() << "golden updated: " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " (run with KCPQ_UPDATE_GOLDEN=1)";
  std::stringstream want;
  want << in.rdbuf();
  EXPECT_EQ(report, want.str());
}

TEST(ExplainGoldenTest, ReportMatchesGoldenFile) {
  CpqOptions options;
  options.algorithm = CpqAlgorithm::kHeap;
  options.k = 10;
  const ProfiledRun run = RunProfiledOptions(options, 2000);
  CheckGolden("explain_heap_k10.txt",
              RenderExplainReport(MakeInputs(options, run), run.profile));
}

// The recursive algorithms' reports: their per-level tables count pruning
// at expansion and at descend time, which the heap golden does not cover.
TEST(ExplainGoldenTest, RecursiveReportsMatchGoldenFiles) {
  const struct {
    CpqAlgorithm algorithm;
    const char* file;
  } kCases[] = {{CpqAlgorithm::kSortedDistances, "explain_std_k10.txt"},
                {CpqAlgorithm::kSimple, "explain_sim_k10.txt"},
                {CpqAlgorithm::kExhaustive, "explain_exh_k10.txt"}};
  for (const auto& c : kCases) {
    SCOPED_TRACE(c.file);
    CpqOptions options;
    options.algorithm = c.algorithm;
    options.k = 10;
    const ProfiledRun run = RunProfiledOptions(options, 2000);
    ExpectIdentityHolds(run.profile);
    CheckGolden(c.file,
                RenderExplainReport(MakeInputs(options, run), run.profile));
  }
}

TEST(ExplainGoldenTest, FarthestReportMatchesGoldenFile) {
  CpqOptions options;
  options.algorithm = CpqAlgorithm::kHeap;
  options.k = 10;
  options.family = QueryFamily::kFarthest;
  const ProfiledRun run = RunProfiledOptions(options, 2000);
  ExpectIdentityHolds(run.profile);
  CheckGolden("explain_farthest_k10.txt",
              RenderExplainReport(MakeInputs(options, run), run.profile));
}

TEST(ExplainGoldenTest, RangeClosestReportMatchesGoldenFile) {
  CpqOptions options;
  options.algorithm = CpqAlgorithm::kHeap;
  options.k = 10;
  options.family = QueryFamily::kRangeClosest;
  options.query_rect.lo[0] = 0.2;
  options.query_rect.lo[1] = 0.2;
  options.query_rect.hi[0] = 0.7;
  options.query_rect.hi[1] = 0.65;
  const ProfiledRun run = RunProfiledOptions(options, 2000);
  ExpectIdentityHolds(run.profile);
  CheckGolden("explain_rcp_k10.txt",
              RenderExplainReport(MakeInputs(options, run), run.profile));
}

// The IO section splits a uring-backed query's reads into those copied
// inline from the page cache and those the ring carried.
TEST(ExplainIoTest, UringSectionShowsInlineVsRingReads) {
  CpqOptions options;
  options.algorithm = CpqAlgorithm::kHeap;
  options.k = 10;
  const ProfiledRun run = RunProfiledOptions(options, 500);
  obs::ExplainInputs inputs = MakeInputs(options, run);
  inputs.io_backend = "uring";
  inputs.uring_fixed_buffers = true;
  inputs.inline_reads = 480;
  inputs.uring_reads = 5;
  inputs.uring_batches = 3;
  inputs.uring_cqe_wakes = 2;
  const std::string report = RenderExplainReport(inputs, run.profile);
  EXPECT_NE(report.find("IO\n  backend: uring  buffers: fixed\n"
                        "  inline reads: 480  ring reads: 5\n"
                        "  batches: 3  cqe wakes: 2  sq-full stalls: 0\n"),
            std::string::npos)
      << report;
}

}  // namespace
}  // namespace kcpq
