// K Closest Pair Queries over two R*-trees — the paper's contribution.
//
// Given point sets P and Q stored in R*-trees, find the K pairs
// (p, q) in P x Q with the K smallest Euclidean distances (Section 2.1).
// Five algorithms are provided (Section 3):
//
//   kNaive            exhaustive recursion, no pruning (baseline only)
//   kExhaustive       prune node pairs with MINMINDIST > T
//   kSimple           + tighten T from MINMAXDIST (K=1) / MAXMAXDIST (K>1)
//   kSortedDistances  + visit child pairs in ascending MINMINDIST order
//   kHeap             iterative: global min-heap of node pairs by MINMINDIST
//
// T is the pruning bound: an upper bound on the final K-th closest distance,
// maintained from (a) the K-th best pair found so far and (b) Inequality-2
// style guarantees. For K = 1 the MINMAXDIST of any node pair bounds the
// closest distance (the paper's 1-CPQ special case); for K > 1 that is
// unsound, and the implemented alternative (Section 3.8, detailed in the
// companion TR) accumulates MAXMAXDIST-sorted node pairs until the
// guaranteed number of point pairs beneath them reaches K.
//
// Usage:
//
//   CpqOptions options;
//   options.algorithm = CpqAlgorithm::kHeap;
//   options.k = 10;
//   CpqStats stats;
//   KCPQ_ASSIGN_OR_RETURN(std::vector<PairResult> pairs,
//                         KClosestPairs(tree_p, tree_q, options, &stats));
//
// Results come back in ascending distance. Distance ties make the result
// set non-unique; like the paper, any valid instance may be returned.

#ifndef KCPQ_CPQ_CPQ_H_
#define KCPQ_CPQ_CPQ_H_

#include <cstdint>
#include <vector>

#include "common/query_context.h"
#include "common/query_control.h"
#include "common/status.h"
#include "cpq/objective.h"
#include "geometry/minkowski.h"
#include "geometry/point.h"
#include "rtree/rtree.h"

namespace kcpq {

enum class CpqAlgorithm {
  kNaive,
  kExhaustive,
  kSimple,
  kSortedDistances,
  kHeap,
};

const char* CpqAlgorithmName(CpqAlgorithm a);

/// How two leaf nodes' entries are combined once the traversal bottoms out.
enum class LeafKernel {
  /// The paper's implicit choice: test all |P_leaf| x |Q_leaf| pairs.
  kNestedLoop,
  /// Sort both leaves along the best-spread axis and sweep: a pair whose
  /// separation on the sweep axis alone already exceeds the pruning bound
  /// is skipped without computing its distance, and — the sweep's payoff —
  /// so is every pair after it in sweep order. Same results (the skipped
  /// pairs are exactly ones the nested loop would reject), typically a
  /// large reduction in point-distance computations.
  kPlaneSweep,
};

const char* LeafKernelName(LeafKernel k);

/// How node pairs at different tree levels are handled (Section 3.7).
enum class HeightStrategy {
  /// Classic spatial-join style: descend both trees until the shorter one
  /// reaches its leaves, then keep the leaf fixed.
  kFixAtLeaves,
  /// The paper's proposal: keep the shorter tree's node fixed at the top
  /// until the taller tree descends to the same level.
  kFixAtRoot,
};

/// Tie-breaking criteria among node pairs with equal MINMINDIST
/// (Section 3.6, T1-T5). A chain is evaluated left to right; the first
/// criterion that separates two pairs decides.
enum class TieCriterion {
  /// T1: prefer the pair one of whose MBRs has the largest area relative
  /// to its tree's root MBR area.
  kLargestNormalizedArea,
  /// T2: prefer the smallest MINMAXDIST between the two MBRs.
  kSmallestMinMaxDist,
  /// T3: prefer the largest sum of the two MBR areas.
  kLargestAreaSum,
  /// T4: prefer the smallest dead space: area of the MBR enclosing both
  /// minus the two areas.
  kSmallestEnclosureWaste,
  /// T5: prefer the largest intersection area of the two MBRs.
  kLargestIntersection,
};

struct CpqOptions {
  CpqAlgorithm algorithm = CpqAlgorithm::kSortedDistances;

  /// Number of closest pairs to report. Capped by |P| * |Q| naturally.
  size_t k = 1;

  /// Query family (cpq/objective.h). kClosest is the paper's problem and
  /// the default; kFarthest reports the K pairs in *descending* distance;
  /// kRangeClosest restricts eligibility to pairs whose points both lie in
  /// `query_rect`. All five algorithms, both schedulers, prefetch, and the
  /// anytime certificates work for every family.
  QueryFamily family = QueryFamily::kClosest;

  /// The kRangeClosest query rectangle; ignored by the other families.
  Rect query_rect{};

  HeightStrategy height_strategy = HeightStrategy::kFixAtRoot;

  /// Distance metric. The paper uses Euclidean distance and notes the
  /// methods adapt to any Minkowski metric (Section 2.1); L1 and Linf are
  /// supported end-to-end (see geometry/minkowski.h).
  Metric metric = Metric::kL2;

  /// Applied by kSortedDistances and kHeap; empty = break ties by page ids
  /// only. Default T1, the paper's winner (Section 4.1).
  std::vector<TieCriterion> tie_chain = {TieCriterion::kLargestNormalizedArea};

  /// Enables the MAXMAXDIST guaranteed-count bound for K > 1 (Section 3.8)
  /// in kSimple / kSortedDistances / kHeap. When false those algorithms
  /// fall back to the K-heap-top bound only (the paper's "simple
  /// modification"); ablation knob.
  bool use_maxmaxdist_pruning = true;

  /// Self-join mode: both tree arguments are the same tree, reflexive
  /// pairs (same record id) are skipped and each unordered pair is
  /// reported once (p_id < q_id). Set by SelfKClosestPairs.
  bool self_join = false;

  /// Leaf node-pair combination strategy; ablation knob. The plane sweep
  /// returns the same distance multiset as the nested loop for every
  /// algorithm and metric (tests/parallel_test.cc locks this in).
  LeafKernel leaf_kernel = LeafKernel::kPlaneSweep;

  /// Speculative prefetch window W: at each expansion the engine issues
  /// asynchronous reads for the pages of the W best not-yet-read node
  /// pairs of its frontier (the kHeap priority queue; the sorted child
  /// list for the recursive algorithms). 0 disables speculation — the
  /// default, and results, disk-access counts, and traversal order are
  /// bit-identical for every W (prefetched pages are staged outside the
  /// buffer's frame table; docs/io.md). Speculation only changes
  /// wall-clock, and is charged to the query's ResourceAccountant.
  size_t prefetch_window = 0;

  /// Lifecycle limits (deadline / budgets / cancellation). Default is
  /// unlimited. When a limit trips mid-query the engine returns OK with a
  /// *partial* result and describes it in CpqStats::quality; it never
  /// converts expiry into an error.
  QueryControl control;

  /// Optional externally-owned QueryContext. When set it supersedes
  /// `control` (its own control is used) and the engine charges all buffer
  /// pages it touches to the context's ResourceAccountant, making
  /// `max_candidate_bytes` govern the query's *unified* footprint (engine
  /// candidate state + distinct buffer pages). When null the engine runs a
  /// private context built from `control`. Must outlive the call; a
  /// context serves exactly one query at a time.
  QueryContext* context = nullptr;
};

/// One reported closest pair.
struct PairResult {
  Point p;
  Point q;
  uint64_t p_id = 0;
  uint64_t q_id = 0;
  /// True distance under the query's metric (Euclidean by default).
  double distance = 0.0;
};

/// Work counters for one query. Disk accesses are counted by the trees'
/// buffer managers; this struct records the per-query deltas.
struct CpqStats {
  uint64_t node_pairs_processed = 0;
  uint64_t candidate_pairs_generated = 0;
  uint64_t candidate_pairs_pruned = 0;
  uint64_t point_distance_computations = 0;
  /// Leaf point pairs skipped by the plane-sweep kernel's axis test
  /// (0 under kNestedLoop). Skipped + computed = enumerated pairs.
  uint64_t leaf_pairs_skipped = 0;
  /// High-water mark of the kHeap algorithm's pair heap (0 otherwise).
  uint64_t max_heap_size = 0;
  /// Buffer misses (= physical reads) per tree during the query.
  uint64_t disk_accesses_p = 0;
  uint64_t disk_accesses_q = 0;
  /// Logical R-tree node reads (2 per processed node pair); the quantity
  /// QueryControl::max_node_accesses limits. Unlike disk accesses it is
  /// independent of buffer state, so budget stops are deterministic.
  uint64_t node_accesses = 0;
  /// Speculative reads issued / claimed by this query (both trees
  /// combined; zero with prefetch_window = 0). Wasted speculation is a
  /// buffer-level quantity — completions land on I/O threads — and is
  /// reported by BufferManager::stats() as issued - hits after a drain.
  uint64_t prefetch_issued = 0;
  uint64_t prefetch_hits = 0;
  /// How many times the query parked on a non-resident page and the total
  /// wall time it spent parked. Counted wherever the query's machine has a
  /// waker (the resumable scheduler, the CLI's --scheduler=resumable);
  /// zero for inline runs, whose reads wait instead of parking. Parked
  /// time is scheduler wait, not work — a multiplexed worker runs other
  /// queries during it.
  uint64_t io_parks = 0;
  uint64_t io_parked_ns = 0;

  /// Result quality certificate: trivial (exact) for completed queries,
  /// the anytime bound for partial ones. See QueryQuality.
  QueryQuality quality;

  uint64_t disk_accesses() const { return disk_accesses_p + disk_accesses_q; }
};

/// Finds the `options.k` closest pairs between `tree_p` and `tree_q`.
/// Returns fewer than k pairs when |P| * |Q| < k. `stats` may be null.
/// Runs the query's state machine (cpq/resumable.h) inline on the calling
/// thread; SelfKClosestPairs and SemiClosestPairs do the same.
Result<std::vector<PairResult>> KClosestPairs(const RStarTree& tree_p,
                                              const RStarTree& tree_q,
                                              const CpqOptions& options = {},
                                              CpqStats* stats = nullptr);

/// Self-CPQ (Section 6, future work): the K closest pairs of distinct
/// points within one data set; each unordered pair reported once.
Result<std::vector<PairResult>> SelfKClosestPairs(const RStarTree& tree,
                                                  CpqOptions options = {},
                                                  CpqStats* stats = nullptr);

/// Semi-CPQ (Section 6, future work): for every point of P, its nearest
/// point in Q; results in ascending distance. |result| == |P| when the
/// query completes. Under `control` limits the scan stops early with the
/// nearest-neighbor lists of the P-leaves finished so far (quality reports
/// a zero lower bound: per-point NN results certify nothing about the
/// unvisited points).
Result<std::vector<PairResult>> SemiClosestPairs(
    const RStarTree& tree_p, const RStarTree& tree_q,
    CpqStats* stats = nullptr, const QueryControl& control = {},
    QueryContext* context = nullptr);

}  // namespace kcpq

#endif  // KCPQ_CPQ_CPQ_H_
