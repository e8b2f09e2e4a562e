#include "cpq/cpq.h"

#include "cpq/resumable.h"
#include "cpq/resumable_semi.h"
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

const char* LeafKernelName(LeafKernel k) {
  switch (k) {
    case LeafKernel::kNestedLoop:
      return "NESTED";
    case LeafKernel::kPlaneSweep:
      return "SWEEP";
  }
  return "?";
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

}  // namespace kcpq
