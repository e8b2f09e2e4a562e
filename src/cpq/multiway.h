// Multi-way K closest tuples (the paper's future-work direction (a),
// Section 6: "the study of multi-way CPQs where tuples of objects are
// expected to be the answers, extending related work in multi-way spatial
// joins").
//
// Given m point sets R_1..R_m, each in an R*-tree, and a query graph of
// distance edges over {1..m}, find the K tuples (p_1, ..., p_m) with the
// smallest aggregate distance
//
//     D(t) = sum over edges (a, b) of dist(p_a, p_b).
//
// The classic two-set K-CPQ is the m = 2, single-edge special case.
//
// Algorithm: best-first synchronous traversal. The priority queue holds
// m-tuples of tree nodes keyed by the lower bound
//   sum over edges of MINMINDIST(M_a, M_b)
// (valid by Inequality 1 applied per edge). Expanding a tuple descends
// *one* slot — the deepest remaining node, ties by larger MBR area — so
// the branching factor stays at the fanout instead of fanout^m. When all
// slots are leaves, the entry combinations are enumerated with partial-sum
// pruning against the K-th best aggregate so far.

#ifndef KCPQ_CPQ_MULTIWAY_H_
#define KCPQ_CPQ_MULTIWAY_H_

#include <vector>

#include "cpq/cpq.h"

namespace kcpq {

/// One undirected distance edge of the query graph; 0-based tree indices.
struct MultiwayEdge {
  int a = 0;
  int b = 0;
};

struct MultiwayOptions {
  size_t k = 1;
  Metric metric = Metric::kL2;
  /// Safety valve on the tuple heap (the search space is exponential in m
  /// for adversarial inputs). 0 = unlimited. Unlike the lifecycle limits
  /// below this is an *error* valve: tripping it returns
  /// ResourceExhausted, not a partial result (an unbounded heap is a
  /// malformed query, not a slow one).
  uint64_t max_heap_items = 0;

  /// The query's context: its limits and accounting (see
  /// CpqOptions::context; null = unlimited, unaccounted). The best-first
  /// traversal pops tuples in ascending bound order, so on a stop the last
  /// popped bound certifies every unreported tuple's aggregate distance —
  /// the natural anytime certificate the two-tree engines get from their
  /// frontier minimum.
  QueryContext* context = nullptr;
};

/// One result tuple: points[i]/ids[i] come from trees[i].
struct TupleResult {
  std::vector<Point> points;
  std::vector<uint64_t> ids;
  /// Sum of true distances over the query graph's edges.
  double aggregate_distance = 0.0;
};

/// Finds the `options.k` closest tuples. Requirements: >= 2 trees, a
/// non-empty edge list with valid distinct endpoints. Returns fewer than k
/// tuples when the cross product is smaller. `stats` counts node accesses
/// across all trees (disk_accesses_p aggregates every tree).
Result<std::vector<TupleResult>> MultiwayKClosestTuples(
    const std::vector<const RStarTree*>& trees,
    const std::vector<MultiwayEdge>& graph, const MultiwayOptions& options,
    CpqStats* stats = nullptr);

/// Brute-force reference for tests: enumerates the full cross product.
std::vector<TupleResult> BruteForceMultiwayKClosestTuples(
    const std::vector<std::vector<std::pair<Point, uint64_t>>>& sets,
    const std::vector<MultiwayEdge>& graph, size_t k,
    Metric metric = Metric::kL2);

}  // namespace kcpq

#endif  // KCPQ_CPQ_MULTIWAY_H_
