// Incremental distance join of Hjaltason & Samet (SIGMOD'98) — the
// comparator the paper evaluates against (Sections 3.9 and 5.2).
//
// The algorithm keeps one priority queue of heterogeneous item pairs
// (node/node, node/object, object/node, object/object) keyed by a lower
// bound on the distance of any point pair beneath them. Popping an
// object/object pair yields the next closest pair in ascending distance —
// the join is *incremental*: it can be stopped after any number of results.
//
// Three tree-traversal policies (how a node/node pair is expanded):
//   kBasic         always expand the first tree's node
//   kEven          expand the node at the shallower depth (higher level)
//   kSimultaneous  expand both nodes at once (all child pairs)
// and two tie-breaking policies for equal keys: depth-first (deeper pair
// wins) or breadth-first.
//
// Following [11], the priority queue can be too large for memory; items
// with key above a threshold DT overflow to disk-resident pages (see
// hybrid_queue.h). [11] leaves the choice of DT open; the default keeps
// everything in memory.

#ifndef KCPQ_HS_HS_H_
#define KCPQ_HS_HS_H_

#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "cpq/cpq.h"
#include "rtree/rtree.h"

namespace kcpq {

enum class HsTraversal { kBasic, kEven, kSimultaneous };
const char* HsTraversalName(HsTraversal t);

enum class HsTiePolicy { kDepthFirst, kBreadthFirst };

struct HsOptions {
  HsTraversal traversal = HsTraversal::kSimultaneous;
  HsTiePolicy tie_policy = HsTiePolicy::kDepthFirst;

  /// Query family (see CpqOptions::family). kFarthest emits pairs in
  /// *descending* distance (queue keys are negated MAXMAXDIST, so the
  /// ascending pop order is unchanged); kRangeClosest restricts results to
  /// pairs with both objects inside `query_rect`. HS keys are L2-only in
  /// every family.
  QueryFamily family = QueryFamily::kClosest;
  /// The restriction rectangle for kRangeClosest; ignored otherwise.
  Rect query_rect{};

  /// Upper bound K on the number of pairs that will be requested. When > 0
  /// the queue prunes items that cannot be among the first K results
  /// (the "incremental up to K" variant of [11]). 0 = fully incremental.
  size_t k_bound = 0;

  /// Queue memory threshold DT (squared distance): items with larger keys
  /// spill to disk-resident overflow pages. Default: everything in memory.
  double queue_distance_threshold = std::numeric_limits<double>::infinity();

  /// Speculative prefetch window W (see CpqOptions::prefetch_window): on
  /// each node expansion the join issues asynchronous reads for the node
  /// pages of the W nearest children just pushed. 0 (default) disables
  /// speculation; results and disk-access counts are identical either way.
  size_t prefetch_window = 0;

  /// The join's context: its limits and accounting (see
  /// CpqOptions::context; null = unlimited, unaccounted). The limits are
  /// polled before each node expansion. Because the join emits pairs in
  /// ascending distance, a stopped join's output is an exact *prefix* of
  /// the full result and the popped key at the stop is the certified lower
  /// bound on everything it did not emit. The memory budget meters the
  /// priority queue. Must outlive the join object.
  QueryContext* context = nullptr;
};

namespace hs_internal {
class JoinImpl;
}  // namespace hs_internal

/// The incremental join. Construct, then call Next() repeatedly; each call
/// returns the next closest pair, or nullopt when the cross product (or the
/// configured k_bound) is exhausted.
class IncrementalDistanceJoin {
 public:
  IncrementalDistanceJoin(const RStarTree& tree_p, const RStarTree& tree_q,
                          const HsOptions& options = HsOptions());
  ~IncrementalDistanceJoin();

  IncrementalDistanceJoin(const IncrementalDistanceJoin&) = delete;
  IncrementalDistanceJoin& operator=(const IncrementalDistanceJoin&) = delete;

  Result<std::optional<PairResult>> Next();

  /// The join's record so far (see CpqStats): items popped are in
  /// node_pairs_processed, the queue high-water in max_heap_size, and
  /// items_pushed and the queue spill counters are HS's own.
  const CpqStats& stats() const;

 private:
  std::unique_ptr<hs_internal::JoinImpl> impl_;
};

/// Convenience: run the join for k results (sets k_bound = k).
Result<std::vector<PairResult>> HsKClosestPairs(const RStarTree& tree_p,
                                                const RStarTree& tree_q,
                                                size_t k,
                                                HsOptions options = HsOptions(),
                                                CpqStats* stats = nullptr);

}  // namespace kcpq

#endif  // KCPQ_HS_HS_H_
