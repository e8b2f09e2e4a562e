// Internal engine shared by the five CPQ algorithms. Not part of the
// public API; include cpq/cpq.h instead.

#ifndef KCPQ_CPQ_ENGINE_H_
#define KCPQ_CPQ_ENGINE_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "cpq/cpq.h"
#include "cpq/leaf_kernel.h"
#include "cpq/result_heap.h"
#include "cpq/tie.h"
#include "rtree/rtree.h"

namespace kcpq {

class ResumableCpqQuery;

namespace cpq_internal {

/// One frontier entry: a node pair that is not read yet, holding exactly
/// what the traversal reads after the push. The HEAP heap, the recursive
/// frames of NAIVE/EXH/SIM/STD (and the ε-join) and the pair chosen for
/// expansion are all made of these. MBRs and point counts are not kept:
/// the pair's nodes are read before anything needs them.
struct FrontierEntry {
  /// Objective key of the pair (cpq/objective.h): MINMINDIST power for
  /// minimizing families, -MAXMAXDIST power for kFarthest. Smaller =
  /// more promising for every family.
  double key = 0.0;
  /// First tie score of the chain (0 when unscored or the chain is empty).
  double tie = 0.0;
  PageId page_p = kInvalidPageId;
  PageId page_q = kInvalidPageId;
  /// Upper bound on the point pairs beneath (the anytime certificate's
  /// capacity; see CpqEngine::FoldFrontier).
  uint64_t max_pairs = 1;
  int16_t level_p = 0;
  int16_t level_q = 0;
  /// Row of the remaining tie scores in the query's TieTail; used only
  /// when the chain is longer than one.
  uint32_t tie_row = 0;
};
static_assert(sizeof(FrontierEntry) <= 48, "frontier entries stay 48 bytes");

/// Tie scores past the first, for chains longer than one: one fixed-width
/// row per scored entry. An entry keeps its first score inline, so a
/// comparison reads a row only when both keys and first scores are equal.
/// Rows released by a pop are reused.
class TieTail {
 public:
  explicit TieTail(size_t chain_length)
      : width_(chain_length > 1 ? std::min(chain_length, kMaxTieChain) - 1
                                : 0) {}

  /// Scores per row (0: chains of at most one criterion keep no rows).
  size_t width() const { return width_; }

  /// Stores scores[0 .. width()) and returns their row.
  uint32_t Add(const double* scores) {
    if (free_.empty()) {
      rows_.insert(rows_.end(), scores, scores + width_);
      return static_cast<uint32_t>(rows_.size() / width_ - 1);
    }
    const uint32_t row = free_.back();
    free_.pop_back();
    std::copy(scores, scores + width_, rows_.begin() + row * width_);
    return row;
  }
  /// Frees a row for reuse; no-op when no rows are kept.
  void Release(uint32_t row) {
    if (width_ != 0) free_.push_back(row);
  }
  void Clear() {
    rows_.clear();
    free_.clear();
  }
  /// Bytes held by live rows.
  uint64_t bytes() const {
    return (rows_.size() - free_.size() * width_) * sizeof(double);
  }
  /// Negative, zero or positive as row a orders before, with or after b.
  int Compare(uint32_t a, uint32_t b) const {
    for (size_t i = 0; i < width_; ++i) {
      const double x = rows_[a * width_ + i];
      const double y = rows_[b * width_ + i];
      if (x != y) return x < y ? -1 : 1;
    }
    return 0;
  }

 private:
  size_t width_;
  std::vector<double> rows_;
  std::vector<uint32_t> free_;
};

/// The frontier's one order, a strict weak order: ascending key (the
/// objective's pop order), then the tie chain, then page ids (full
/// determinism). `tail` is null when the chain has at most one criterion.
struct FrontierLess {
  const TieTail* tail = nullptr;
  bool operator()(const FrontierEntry& a, const FrontierEntry& b) const {
    if (a.key != b.key) return a.key < b.key;
    if (a.tie != b.tie) return a.tie < b.tie;
    if (tail != nullptr) {
      const int c = tail->Compare(a.tie_row, b.tie_row);
      if (c != 0) return c < 0;
    }
    if (a.page_p != b.page_p) return a.page_p < b.page_p;
    return a.page_q < b.page_q;
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
/// drives these kernels against its state. Under a fixed-bound objective
/// (QueryObjective::EpsilonJoin) the same kernels run the ε-join: T stays
/// at ε, the result store is unbounded, and options.k caps its size.
class CpqEngine {
 public:
  CpqEngine(const RStarTree& tree_p, const RStarTree& tree_q,
            const CpqOptions& options, const QueryObjective& objective,
            CpqStats* stats);

 private:
  friend class ::kcpq::ResumableCpqQuery;
  /// Test access to Expand and T (tests/sweep_expand_test.cc).
  friend struct CpqEngineTestPeer;

  /// Plane-sweep distance scan of two leaves; feeds the result heap and
  /// tightens T. `same_node` drives the self-join duplicate rules. Fails
  /// only when an ε-join finds more than options.k pairs
  /// (ResourceExhausted, its max_results guard).
  Status ProcessLeaves(const Node& node_p, const Node& node_q,
                       bool same_node);

  /// One side of an expansion: an expanded node yields its entries as the
  /// children, a fixed node yields itself (with its own page, computed MBR
  /// and point counts) as its one child.
  struct Side {
    const Node* node;
    bool expand;
    PageId page;
    Entry fixed;  // the fixed side's {node MBR, page}; unused when expanding
    int16_t child_level;
    uint64_t child_min_points;
    uint64_t child_max_points;
    size_t size() const { return expand ? node->entries.size() : 1; }
    const Entry* children() const {
      return expand ? node->entries.data() : &fixed;
    }
    const Rect& rect(uint32_t i) const { return children()[i].rect; }
    PageId child_page(uint32_t i) const { return children()[i].id; }
  };
  /// A child pair of the expansion in hand: its key and the child index
  /// on each side (0 for a fixed side).
  struct ChildKey {
    double key;
    uint32_t i;
    uint32_t j;
  };

  Side MakeSide(PageId page, const Node& node, bool expand,
                const RStarTree& tree) const;

  /// Expands the read node pair (page_p, node_p) x (page_q, node_q) in two
  /// passes. The first, SweepCandidates, computes child pair keys into
  /// child_keys_; its cut is T for the pruning algorithms under a
  /// sweepable objective and +∞ otherwise (kNaive never prunes, and
  /// kFarthest keys have no sweep bound). kNaive, kExhaustive and kSimple
  /// put the list back in generation (i, j) order, since they descend in
  /// it and for EXH and SIM that order drives T. The algorithms that
  /// tighten then lower T from the list. The second pass builds frontier
  /// entries into `out`. kHeap builds an entry only for a child with
  /// key <= T and pushes it onto the heap `out`; the others are counted,
  /// profiled and traced as pruned in the same loop. The recursive
  /// algorithms get an entry for every child in the list, because they
  /// prune at descend time (and kNaive never prunes); kSortedDistances
  /// sorts its frame afterwards. kHeap and kSortedDistances score the tie
  /// chain of each entry they build.
  void Expand(PageId page_p, const Node& node_p, PageId page_q,
              const Node& node_q, DescendChoice choice,
              std::vector<FrontierEntry>* out);

  /// The first pass: a plane sweep over the eligible children of p and q
  /// (cpq/leaf_kernel.h), cut at `cut` (power space, strict). A child pair
  /// whose sweep-axis gap alone exceeds the cut is counted, profiled and
  /// (with a trace, carrying T) traced as pruned here, at its own level,
  /// and its key is never computed; the keys of the others go to
  /// child_keys_, in sweep order. Generated counts come from arithmetic.
  /// Exact (docs/algorithms.md, "Node-pair expansion as an axis sweep"):
  /// with the cut at the T held before the expansion, a cut pair's key
  /// exceeds T in floating point, and T never rises, so HEAP's second pass
  /// and the recursive algorithms' descend-time test would prune it too.
  /// With cut = +∞ nothing is cut and the list holds every eligible pair.
  void SweepCandidates(const Side& p, const Side& q, double cut);

  /// `side`'s eligible children in ascending rect.lo[axis] order; the
  /// order lives in the node or in `scratch`.
  SweepList EligibleChildren(const Side& side, int axis,
                             std::vector<uint32_t>* scratch) const;

  /// Records a kPrune trace event for a child pair of key `key`, pruned
  /// against `bound` (trace_ must be set).
  void TracePrune(int16_t level_p, int16_t level_q, double key,
                  double bound) const;

  /// Tightens T from Inequality-2-style guarantees over child_keys_.
  /// Minimizing: MINMAXDIST for K = 1, MAXMAXDIST count accumulation for
  /// K > 1. kFarthest: the mirror — MINMINDIST lower-bounds every pair
  /// beneath a child pair, so accumulating them by descending MINMINDIST
  /// until the guaranteed pairs reach K bounds the K-th farthest distance
  /// from below. No-op when the objective forbids capacity-based
  /// tightening (kRangeClosest: counted pairs may lie outside the rect).
  void TightenBoundFromCandidates(const Side& p, const Side& q);

  /// The frontier order under this query's tie chain.
  FrontierLess Less() const {
    return FrontierLess{tie_tail_.width() != 0 ? &tie_tail_ : nullptr};
  }

  /// Polls the QueryContext (at node-pair granularity). Once a stop cause
  /// is latched it stays latched — the traversal switches from expanding
  /// the frontier to draining it into the certificate. The metered bytes
  /// are the recursive frames' entries, the live tie rows and
  /// `extra_bytes` (the HEAP heap's entries), and for an ε-join its
  /// materialised results.
  bool ShouldStop(uint64_t extra_bytes);

  /// Records an unexpanded node pair: its key (the minimum over all of
  /// them certifies that no undiscovered pair can beat it — "closer" for
  /// minimizing families, "farther" for kFarthest) and its pair capacity,
  /// which refines the certificate per rank — or, for an ε-join, counts
  /// toward the qualifying pairs it may hide when its key is within ε.
  void FoldFrontier(double key, uint64_t max_pairs) {
    frontier_min_pow_ = std::min(frontier_min_pow_, key);
    certificate_.Add(key, std::max<uint64_t>(max_pairs, 1));
    if (objective_.fixed_bound() && key <= bound_) {
      missing_pairs_ =
          SaturatingAdd(missing_pairs_, std::max<uint64_t>(max_pairs, 1));
    }
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
  /// The first pass's child keys of the expansion in hand (reused).
  std::vector<ChildKey> child_keys_;
  /// Scratch for putting child_keys_ back in generation order: each
  /// (i, j) slot's index into child_keys_, and the reordered list.
  std::vector<uint32_t> generation_slots_;
  std::vector<ChildKey> generation_keys_;
  /// Tie scores past the first of the scored frontier entries.
  TieTail tie_tail_;
  /// Scratch for the tighten keys of TightenBoundFromCandidates (avoids
  /// reallocating per node).
  std::vector<double> tighten_scratch_;
  /// Index orders for the plane sweep's order-less nodes.
  SweepScratch sweep_scratch_;

  // --- lifecycle control state ---
  /// The query's context (options.context). All stop polls and resource
  /// charges go through it; null means no limits and no accounting — the
  /// zero-overhead path (no polls, no page charging).
  QueryContext* context_;
  /// Sinks borrowed from the context (null when it has none, or there is
  /// no context — the common case, which must stay zero-cost). The profile
  /// feeds the EXPLAIN per-level pruning table; the trace records
  /// descend/heap/prune/leaf events (obs/explain.h, obs/trace.h); the
  /// observation carries the live bound (obs/query_registry.h).
  obs::PruningProfile* profile_;
  obs::TraceBuffer* trace_;
  obs::QueryObservation* observation_;
  /// Logical node reads so far (2 per expanded pair); the budgeted
  /// quantity.
  uint64_t node_accesses_ = 0;
  /// Live bytes of the recursion frames' entries (the kHeap heap is
  /// accounted separately via ShouldStop's extra).
  uint64_t frame_bytes_ = 0;
  /// Latched stop cause; kNone while the query is allowed to expand.
  StopCause stop_ = StopCause::kNone;
  /// Min key over node pairs left unexpanded by a stop; +infinity when
  /// the search space was exhausted. (Historically named after the
  /// minimizing families' MINMINDIST power; for kFarthest it is the
  /// negated MAXMAXDIST power, i.e. still the most optimistic frontier.)
  double frontier_min_pow_ = std::numeric_limits<double>::infinity();
  /// Per-rank refinement of the frontier bound (see FrontierCertificate).
  FrontierCertificate certificate_;
  /// ε-join certificate: saturating sum of the pair capacities of deferred
  /// node pairs with key <= ε (QueryQuality::missing_pair_bound).
  uint64_t missing_pairs_ = 0;
  /// Last bound_ value reported to the profile/trace (power space).
  double reported_bound_ = std::numeric_limits<double>::infinity();
};

/// Folds a finished query's stats into the process-wide metrics registry
/// (the kcpq_cpq_* counters). `seconds < 0` means the caller skipped
/// timing; otherwise it also feeds kcpq_cpq_query_seconds and the
/// family's latency histogram.
void FoldCpqMetrics(const CpqStats& stats, double seconds, QueryFamily family);

}  // namespace cpq_internal
}  // namespace kcpq

#endif  // KCPQ_CPQ_ENGINE_H_
