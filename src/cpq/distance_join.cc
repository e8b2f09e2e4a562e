#include "cpq/distance_join.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "cpq/resumable.h"

namespace kcpq {

namespace {

void SortResults(std::vector<PairResult>* out) {
  std::sort(out->begin(), out->end(),
            [](const PairResult& a, const PairResult& b) {
              if (a.distance != b.distance) return a.distance < b.distance;
              if (a.p_id != b.p_id) return a.p_id < b.p_id;
              return a.q_id < b.q_id;
            });
}

}  // namespace

Result<std::vector<PairResult>> DistanceRangeJoin(
    const RStarTree& tree_p, const RStarTree& tree_q, double epsilon,
    const DistanceJoinOptions& options, CpqStats* stats) {
  if (!(epsilon >= 0.0)) {
    return Status::InvalidArgument("epsilon must be non-negative");
  }
  // EXH with T fixed at ε: prune a node pair when MINMINDIST > ε and
  // descend in entry order. Under the ε-join objective, k is the result
  // cap that max_results sets (0 = none).
  CpqOptions cpq;
  cpq.algorithm = CpqAlgorithm::kExhaustive;
  cpq.k = options.max_results > 0 ? options.max_results
                                  : std::numeric_limits<size_t>::max();
  cpq.metric = options.metric;
  cpq.height_strategy = options.height_strategy;
  cpq.self_join = options.self_join;
  cpq.context = options.context;
  ResumableCpqQuery query(tree_p, tree_q, std::move(cpq),
                          QueryObjective::EpsilonJoin(options.metric, epsilon),
                          stats, Waker());
  query.Step();
  KCPQ_RETURN_IF_ERROR(query.status());
  std::vector<PairResult> out = query.TakeResults();
  SortResults(&out);
  return out;
}

std::vector<PairResult> BruteForceDistanceRangeJoin(
    const std::vector<std::pair<Point, uint64_t>>& p,
    const std::vector<std::pair<Point, uint64_t>>& q, double epsilon,
    bool self_join, Metric metric) {
  std::vector<PairResult> out;
  const double epsilon_pow = DistanceToPow(epsilon, metric);
  for (const auto& [pp, pid] : p) {
    for (const auto& [qq, qid] : q) {
      if (self_join && pid >= qid) continue;
      const double d = PointDistancePow(pp, qq, metric);
      if (d > epsilon_pow) continue;
      out.push_back(PairResult{pp, qq, pid, qid, PowToDistance(d, metric)});
    }
  }
  SortResults(&out);
  return out;
}

}  // namespace kcpq
