#include "cpq/brute.h"

#include <cmath>

#include "cpq/leaf_kernel.h"
#include "cpq/result_heap.h"

namespace kcpq {

namespace {

/// The points as one hand-built leaf for the shared sweep kernel, which
/// orders its sweep axis into the oracle's own scratch (the oracle never
/// borrows a buffer frame's orders).
Node ToSweepLeaf(const std::vector<std::pair<Point, uint64_t>>& items) {
  Node leaf;
  leaf.entries.reserve(items.size());
  for (const auto& [pt, id] : items) {
    leaf.entries.push_back(Entry::ForPoint(pt, id));
  }
  return leaf;
}

}  // namespace

std::vector<PairResult> BruteForceKClosestPairs(
    const std::vector<std::pair<Point, uint64_t>>& p,
    const std::vector<std::pair<Point, uint64_t>>& q, size_t k,
    bool self_join, Metric metric, LeafKernel kernel, QueryQuality* quality,
    QueryContext* context) {
  ResultHeap heap(k, QueryObjective(QueryFamily::kClosest, metric));
  StopCause stop = StopCause::kNone;
  // Stop granularity: one outer point (= |q| distance tests) per poll.
  // Node budgets are meaningless here (no tree is read), so only the
  // cancel / deadline limits are honored.
  uint64_t outer = 0;
  const auto should_stop = [&] {
    if (stop != StopCause::kNone) return true;
    if (context == nullptr) return false;
    stop = context->control().Check(0, 0);
    if (stop == StopCause::kNodeBudget || stop == StopCause::kMemoryBudget) {
      stop = StopCause::kNone;
    }
    return stop != StopCause::kNone;
  };
  if (kernel == LeafKernel::kPlaneSweep) {
    cpq_internal::SweepScratch scratch;
    cpq_internal::PlaneSweepPairs(
        ToSweepLeaf(p), ToSweepLeaf(q), metric, /*strict=*/false, &scratch,
        [&] { return heap.Bound(); },
        [&](const Entry& a, const Entry& b) {
          if (++outer % 1024 == 0 && should_stop()) return false;
          if (!self_join || a.id < b.id) {
            const Point pa = a.AsPoint();
            const Point pb = b.AsPoint();
            heap.Offer(PointDistancePow(pa, pb, metric), pa, pb, a.id, b.id);
          }
          return true;
        });
  } else {
    for (const auto& [pp, pid] : p) {
      if (should_stop()) break;
      for (const auto& [qq, qid] : q) {
        if (self_join && pid >= qid) continue;
        heap.Offer(PointDistancePow(pp, qq, metric), pp, qq, pid, qid);
      }
    }
  }
  if (quality != nullptr) {
    *quality = QueryQuality{};
    quality->stop_cause = stop;
    quality->pairs_found = heap.size();
    if (stop != StopCause::kNone) {
      quality->guaranteed_lower_bound = 0.0;  // a scan certifies nothing
      quality->is_exact = false;
    }
  }
  return std::move(heap).Extract();
}

std::vector<PairResult> BruteForceSemiClosestPairs(
    const std::vector<std::pair<Point, uint64_t>>& p,
    const std::vector<std::pair<Point, uint64_t>>& q) {
  std::vector<PairResult> out;
  if (q.empty()) return out;
  out.reserve(p.size());
  for (const auto& [pp, pid] : p) {
    ResultHeap best(1);
    for (const auto& [qq, qid] : q) {
      best.Offer(SquaredDistance(pp, qq), pp, qq, pid, qid);
    }
    std::vector<PairResult> one = std::move(best).Extract();
    out.push_back(one.front());
  }
  std::sort(out.begin(), out.end(),
            [](const PairResult& a, const PairResult& b) {
              if (a.distance != b.distance) return a.distance < b.distance;
              return a.p_id < b.p_id;
            });
  return out;
}

}  // namespace kcpq
