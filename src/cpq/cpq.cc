#include "cpq/cpq.h"

#include "cpq/resumable.h"
#include "cpq/resumable_semi.h"
#include "obs/explain.h"
#include "obs/kcpq_metrics.h"

namespace kcpq {

const char* CpqAlgorithmName(CpqAlgorithm a) {
  switch (a) {
    case CpqAlgorithm::kNaive:
      return "NAIVE";
    case CpqAlgorithm::kExhaustive:
      return "EXH";
    case CpqAlgorithm::kSimple:
      return "SIM";
    case CpqAlgorithm::kSortedDistances:
      return "STD";
    case CpqAlgorithm::kHeap:
      return "HEAP";
  }
  return "?";
}

const char* QueryFamilyName(QueryFamily f) {
  switch (f) {
    case QueryFamily::kClosest:
      return "k-closest-pairs";
    case QueryFamily::kFarthest:
      return "k-farthest-pairs";
    case QueryFamily::kRangeClosest:
      return "k-range-closest-pairs";
  }
  return "?";
}

obs::Histogram* FamilyQuerySeconds(QueryFamily f) {
  const obs::KcpqMetrics& m = obs::KcpqMetrics::Get();
  switch (f) {
    case QueryFamily::kClosest:
      return m.query_seconds_closest;
    case QueryFamily::kFarthest:
      return m.query_seconds_farthest;
    case QueryFamily::kRangeClosest:
      return m.query_seconds_rcp;
  }
  return m.query_seconds_closest;
}

Result<std::vector<PairResult>> KClosestPairs(const RStarTree& tree_p,
                                              const RStarTree& tree_q,
                                              const CpqOptions& options,
                                              CpqStats* stats) {
  // No waker: the machine reads inline and finishes in one Step().
  ResumableCpqQuery query(tree_p, tree_q, options, stats, Waker());
  query.Step();
  KCPQ_RETURN_IF_ERROR(query.status());
  return query.TakeResults();
}

Result<std::vector<PairResult>> SelfKClosestPairs(const RStarTree& tree,
                                                  CpqOptions options,
                                                  CpqStats* stats) {
  options.self_join = true;
  return KClosestPairs(tree, tree, options, stats);
}

Result<std::vector<PairResult>> SemiClosestPairs(const RStarTree& tree_p,
                                                 const RStarTree& tree_q,
                                                 CpqStats* stats,
                                                 QueryContext* context) {
  ResumableSemiQuery query(tree_p, tree_q, stats, context, Waker());
  query.Step();
  KCPQ_RETURN_IF_ERROR(query.status());
  return query.TakeResults();
}

obs::ExplainInputs CpqExplainInputs(const CpqOptions& options,
                                    const CpqStats& stats,
                                    const std::vector<PairResult>& pairs) {
  const QueryObjective objective(options.family, options.metric,
                                 options.query_rect);
  obs::ExplainInputs inputs;
  inputs.algorithm = CpqAlgorithmName(options.algorithm);
  inputs.family = QueryFamilyName(options.family);
  inputs.bound_is_upper = objective.BoundIsUpper();
  switch (options.family) {
    case QueryFamily::kClosest:
      break;  // keep the default caption (and the pre-policy goldens)
    case QueryFamily::kFarthest:
      inputs.prune_rule =
          "Inequality 1 = MAXMAXDIST < T; order = worst-first cutoff";
      break;
    case QueryFamily::kRangeClosest:
      inputs.prune_rule =
          "Inequality 1 = MINMINDIST > T; order = best-first cutoff; "
          "rect-ineligible subtrees skipped before candidacy";
      break;
  }
  // The objective's prefetch pop order, so the wasted count is read
  // against the right speculation order (closest keeps the legacy
  // unlabelled rendering).
  if (options.family != QueryFamily::kClosest) {
    inputs.prefetch_pop_order = objective.minimizing()
                                    ? "MINMINDIST ascending"
                                    : "MAXMAXDIST descending";
  }
  inputs.k = options.k;
  inputs.results_returned = pairs.size();
  inputs.result_max_distance = pairs.empty() ? -1.0 : pairs.back().distance;
  inputs.node_pairs_processed = stats.node_pairs_processed;
  inputs.candidate_pairs_generated = stats.candidate_pairs_generated;
  inputs.candidate_pairs_pruned = stats.candidate_pairs_pruned;
  inputs.point_distance_computations = stats.point_distance_computations;
  inputs.leaf_pairs_skipped = stats.leaf_pairs_skipped;
  inputs.max_heap_size = stats.max_heap_size;
  inputs.node_accesses = stats.node_accesses;
  inputs.disk_accesses = stats.disk_accesses();
  inputs.prefetch_issued = stats.prefetch_issued;
  inputs.prefetch_hits = stats.prefetch_hits;
  inputs.complete = !stats.quality.is_partial();
  if (!inputs.complete) {
    inputs.stop_cause = StopCauseName(stats.quality.stop_cause);
    inputs.quality_bound = stats.quality.guaranteed_lower_bound;
  }
  return inputs;
}

}  // namespace kcpq
