// Anytime behaviour: result quality as a function of the node-access
// budget. Not a figure of the paper — it characterises the lifecycle
// control layer (common/query_control.h): how fast the partial result of a
// budget-stopped K-CPQ converges to the exact answer, and how tight the
// certified lower bound is along the way.
//
// For each budget the harness runs STD and HEAP at K = 100 and reports
// recall against the unbudgeted run, the certified guaranteed_lower_bound,
// and whether the stop was provably harmless (is_exact).

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"

namespace kcpq {
namespace bench {
namespace {

constexpr size_t kK = 100;
constexpr size_t kBufferPages = 64;
constexpr uint64_t kBudgets[] = {10,   30,    100,   300, 1000,
                                 3000, 10000, 30000, 0};  // 0 = unlimited

struct Run {
  std::vector<PairResult> pairs;
  CpqStats stats;
};

Run RunBudgeted(TreeStore& p, TreeStore& q, const CpqOptions& options) {
  TreeStore::View vp = p.OpenView(kBufferPages / 2);
  TreeStore::View vq = q.OpenView(kBufferPages / 2);
  Run run;
  auto result = KClosestPairs(*vp.tree, *vq.tree, options, &run.stats);
  KCPQ_CHECK_OK(result.status());
  run.pairs = std::move(result).value();
  return run;
}

/// Fraction of the true top-K recovered: pairs of the partial result at or
/// below the true K-th distance (the partial pairs are genuine, so each
/// such pair is a member of some true top-K set).
double Recall(const Run& partial, double kth_distance) {
  size_t hits = 0;
  for (const PairResult& pr : partial.pairs) {
    if (pr.distance <= kth_distance + 1e-12) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(kK);
}

void Main() {
  PrintFigureHeader(
      "Anytime",
      "Partial-result quality vs node-access budget (STD and HEAP, K=100)");
  BenchJson json("anytime");

  auto store_p =
      MakeStore(DataKind::kSequoiaLike, Scaled(kSequoiaCardinality), 1.0, 77);
  auto store_q = MakeStore(DataKind::kUniform, Scaled(40000), 0.1, 2005);

  for (const CpqAlgorithm algorithm :
       {CpqAlgorithm::kSortedDistances, CpqAlgorithm::kHeap}) {
    CpqOptions base;
    base.algorithm = algorithm;
    base.k = kK;

    // The reference: same configuration, no budget.
    const Run full = RunBudgeted(*store_p, *store_q, base);
    const double kth = full.pairs.back().distance;
    std::printf("\n%s: full run %llu node accesses, K-th distance %.6g\n",
                CpqAlgorithmName(algorithm),
                static_cast<unsigned long long>(full.stats.node_accesses),
                kth);
    json.AddScalar(
        std::string(CpqAlgorithmName(algorithm)) + "_full_node_accesses",
        static_cast<double>(full.stats.node_accesses));

    // glb_mid / glb_last sample the per-rank certificate
    // (QueryQuality::rank_lower_bounds) at ranks K/2 and K-1: how much
    // more the capacity-weighted profile certifies for deep ranks than
    // the scalar bound (= rank 0) does.
    Table table({"budget", "node_accesses", "pairs", "recall", "glb",
                 "glb_mid", "glb_last", "exact", "stop"});
    for (const uint64_t budget : kBudgets) {
      CpqOptions options = base;
      QueryContext ctx;  // fresh per run: a context serves one query
      ctx.control().max_node_accesses = budget;
      options.context = &ctx;
      const Run run = RunBudgeted(*store_p, *store_q, options);
      const QueryQuality& quality = run.stats.quality;
      const std::vector<double>& bounds = quality.rank_lower_bounds;
      const double mid = bounds.empty() ? quality.guaranteed_lower_bound
                                        : bounds[bounds.size() / 2];
      const double last = bounds.empty() ? quality.guaranteed_lower_bound
                                         : bounds.back();
      table.AddRow(
          {budget == 0 ? "inf" : Table::Count(static_cast<long long>(budget)),
           Table::Count(static_cast<long long>(run.stats.node_accesses)),
           Table::Count(static_cast<long long>(quality.pairs_found)),
           Table::Num(Recall(run, kth), 3),
           Table::Num(quality.guaranteed_lower_bound, 6),
           Table::Num(mid, 6), Table::Num(last, 6),
           quality.is_exact ? "yes" : "no",
           StopCauseName(quality.stop_cause)});
    }
    table.Print(stdout);
    json.AddTable(CpqAlgorithmName(algorithm), table);
  }

  std::printf(
      "\nExpectation: recall climbs steeply with the budget (the best-first "
      "traversals find the close pairs early); the certified bound tightens "
      "toward the true K-th distance, and is_exact flips once the frontier "
      "can no longer beat the K-heap. glb_mid/glb_last >= glb whenever the "
      "stopped frontier's closest entries cover fewer than K pairs.\n");
  json.Write();
}

}  // namespace
}  // namespace bench
}  // namespace kcpq

int main() { kcpq::bench::Main(); }
