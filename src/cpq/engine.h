// Internal engine shared by the five CPQ algorithms. Not part of the
// public API; include cpq/cpq.h instead.

#ifndef KCPQ_CPQ_ENGINE_H_
#define KCPQ_CPQ_ENGINE_H_

#include <cstdint>
#include <vector>

#include "cpq/cpq.h"
#include "cpq/leaf_kernel.h"
#include "cpq/prefetch.h"
#include "cpq/result_heap.h"
#include "cpq/tie.h"
#include "rtree/rtree.h"

namespace kcpq {

class ResumableCpqQuery;

namespace cpq_internal {

/// A node of one tree as seen by the traversal: location plus the facts the
/// pruning math needs without reading the page.
struct NodeRef {
  PageId page = kInvalidPageId;
  int level = 0;
  Rect mbr;
  /// Lower bound on the number of points in the subtree (minimum-fill
  /// argument m^(level+1); exact-count-based for nodes already read).
  uint64_t min_points = 1;
  /// Upper bound on the points beneath (max-fill argument M^(level+1);
  /// exact-count-based for nodes already read). Feeds the per-rank anytime
  /// certificate: a frontier pair can hide at most
  /// max_points_p * max_points_q undiscovered point pairs.
  uint64_t max_points = 1;
};

/// A candidate pair of subtrees with its precomputed ordering keys.
struct Candidate {
  NodeRef p;
  NodeRef q;
  /// Objective key of the pair (cpq/objective.h): MINMINDIST power for
  /// minimizing families, -MAXMAXDIST power for kFarthest. Smaller =
  /// more promising for every family.
  double key = 0.0;
  double tie[kMaxTieChain] = {0, 0, 0, 0, 0};
  uint64_t min_pairs = 1;  // lower bound on point pairs beneath
  uint64_t max_pairs = 1;  // upper bound on point pairs beneath
};

/// Strict weak order: ascending key (the objective's pop order), then the
/// tie chain, then page ids (full determinism).
struct CandidateLess {
  bool operator()(const Candidate& a, const Candidate& b) const {
    if (a.key != b.key) return a.key < b.key;
    for (size_t i = 0; i < kMaxTieChain; ++i) {
      if (a.tie[i] != b.tie[i]) return a.tie[i] < b.tie[i];
    }
    if (a.p.page != b.p.page) return a.p.page < b.p.page;
    return a.q.page < b.q.page;
  }
};

/// The heap loop's pop order: a min-heap via reversed CandidateLess.
struct CandidateGreater {
  bool operator()(const Candidate& a, const Candidate& b) const {
    return CandidateLess()(b, a);
  }
};

/// EXPLAIN level of a node pair: the deeper side (leaves are level 0).
inline int PairLevel(int level_p, int level_q) {
  return level_p > level_q ? level_p : level_q;
}

/// Which side(s) of a node pair to descend (Section 3.7).
enum class DescendChoice { kBoth, kFirstOnly, kSecondOnly, kLeaves };

DescendChoice ChooseDescend(int level_p, int level_q, HeightStrategy strategy);

/// The kernels and per-query state of one K-CPQ execution. The traversal
/// itself — the recursive descent of kNaive/kExhaustive/kSimple/
/// kSortedDistances and the best-first heap loop of kHeap — is the state
/// machine ResumableCpqQuery (cpq/resumable.h), which owns one engine and
/// drives these kernels against its state.
class CpqEngine {
 public:
  CpqEngine(const RStarTree& tree_p, const RStarTree& tree_q,
            const CpqOptions& options, CpqStats* stats);

 private:
  friend class ::kcpq::ResumableCpqQuery;

  /// Brute-force distance scan of two leaves; feeds the result heap and
  /// tightens T. `same_node` drives the self-join duplicate rules.
  void ProcessLeaves(const Node& node_p, const Node& node_q, bool same_node);

  /// Generates the child pairs of (ref_p, ref_q) according to the descend
  /// choice, with minmin / tie / min_pairs filled in.
  void GenerateCandidates(const NodeRef& ref_p, const Node& node_p,
                          const NodeRef& ref_q, const Node& node_q,
                          DescendChoice choice, std::vector<Candidate>* out);

  /// Tightens T from Inequality-2-style guarantees over `candidates`.
  /// Minimizing: MINMAXDIST for K = 1, MAXMAXDIST count accumulation for
  /// K > 1. kFarthest: the mirror — MINMINDIST lower-bounds every pair
  /// beneath a candidate, so accumulating candidates by descending
  /// MINMINDIST until min_pairs reaches K bounds the K-th farthest
  /// distance from below. No-op when the objective forbids capacity-based
  /// tightening (kRangeClosest: counted pairs may lie outside the rect).
  void TightenBoundFromCandidates(const std::vector<Candidate>& candidates);

  /// Polls the QueryContext (at node-pair granularity). Once a stop cause
  /// is latched it stays latched — the traversal switches from expanding
  /// the frontier to draining it into the certificate.
  bool ShouldStop(uint64_t extra_bytes);

  /// Records an unexpanded node pair: its key (the minimum over all of
  /// them certifies that no undiscovered pair can beat it — "closer" for
  /// minimizing families, "farther" for kFarthest) and its pair capacity,
  /// which refines the certificate per rank.
  void FoldFrontier(double key, uint64_t max_pairs) {
    frontier_min_pow_ = std::min(frontier_min_pow_, key);
    certificate_.Add(key, std::max<uint64_t>(max_pairs, 1));
  }

  /// Reports a strict improvement of the pruning bound T to the attached
  /// profile / trace; no-op (one compare) when neither wants it.
  void NoteBoundImprovement();

  /// Query epilogue: fills the quality certificate from the latched stop
  /// cause / frontier state and records the query-summary trace event.
  void FinalizeQualityAndTrace();

  /// True for algorithms that prune with MINMINDIST (all but kNaive).
  bool Prunes() const { return options_.algorithm != CpqAlgorithm::kNaive; }
  /// True for algorithms that tighten T beyond found pairs.
  bool TightensBound() const {
    switch (options_.algorithm) {
      case CpqAlgorithm::kSimple:
      case CpqAlgorithm::kSortedDistances:
      case CpqAlgorithm::kHeap:
        return true;
      default:
        return false;
    }
  }

  const RStarTree& tree_p_;
  const RStarTree& tree_q_;
  const CpqOptions& options_;
  CpqStats* stats_;  // never null (engine owns a local fallback)
  CpqStats local_stats_;

  TieContext tie_context_;
  /// The query's objective policy (family + metric + optional rect); every
  /// key, prune test, and certificate conversion goes through it.
  QueryObjective objective_;
  ResultHeap results_;
  /// Pruning bound T (key space). Upper bound on the final K-th key.
  double bound_;
  /// Scratch for the capacity accumulation of TightenBoundFromCandidates
  /// (avoids reallocating per node).
  std::vector<std::pair<double, uint64_t>> maxmax_scratch_;
  /// Sorted-copy buffers for the plane-sweep leaf kernel.
  SweepScratch<Entry> sweep_scratch_;
  /// Speculative reads for the frontier's best pairs (disabled unless
  /// options.prefetch_window > 0; see cpq/prefetch.h).
  PrefetchScheduler prefetch_;

  // --- lifecycle control state ---
  /// The query's context: `options.context` when the caller provided one,
  /// otherwise `local_context_` built from `options.control`. All stop
  /// polls and resource charges go through it.
  QueryContext local_context_;
  QueryContext* context_;
  /// Observability sinks borrowed from the context (null when the caller
  /// attached none — the common case, which must stay zero-cost). The
  /// profile feeds the EXPLAIN per-level pruning table; the trace records
  /// descend/heap/prune/leaf events (obs/explain.h, obs/trace.h).
  obs::PruningProfile* profile_;
  obs::TraceBuffer* trace_;
  /// False only for uncontrolled queries with no external context — the
  /// zero-overhead fast path (no polls, no page charging).
  bool accounting_;
  /// Logical node reads so far (2 per expanded pair); the budgeted
  /// quantity.
  uint64_t node_accesses_ = 0;
  /// Live candidate-state bytes (recursion frames' candidate vectors; the
  /// kHeap pair heap is accounted separately via ShouldStop's extra).
  uint64_t candidate_bytes_ = 0;
  /// Latched stop cause; kNone while the query is allowed to expand.
  StopCause stop_ = StopCause::kNone;
  /// Min key over node pairs left unexpanded by a stop; +infinity when
  /// the search space was exhausted. (Historically named after the
  /// minimizing families' MINMINDIST power; for kFarthest it is the
  /// negated MAXMAXDIST power, i.e. still the most optimistic frontier.)
  double frontier_min_pow_ = std::numeric_limits<double>::infinity();
  /// Per-rank refinement of the frontier bound (see FrontierCertificate).
  FrontierCertificate certificate_;
  /// Last bound_ value reported to the profile/trace (power space).
  double reported_bound_ = std::numeric_limits<double>::infinity();
};

/// Lower bound on points under a node that has been read.
uint64_t MinPointsOfNode(const Node& node, uint64_t min_entries);

/// Upper bound on points under a node that has been read (saturating).
uint64_t MaxPointsOfNode(const Node& node, uint64_t max_entries);

/// Folds a finished query's stats into the process-wide metrics registry
/// (the kcpq_cpq_* counters). `seconds < 0` means the caller skipped
/// timing; otherwise it also feeds kcpq_cpq_query_seconds and the
/// family's latency histogram.
void FoldCpqMetrics(const CpqStats& stats, double seconds, QueryFamily family);

}  // namespace cpq_internal
}  // namespace kcpq

#endif  // KCPQ_CPQ_ENGINE_H_
