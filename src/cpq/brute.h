// In-memory brute-force K closest pairs: the O(|P| * |Q|) reference that
// every tree algorithm is validated against in the tests, and the honest
// "no index" baseline in the benches.

#ifndef KCPQ_CPQ_BRUTE_H_
#define KCPQ_CPQ_BRUTE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "cpq/cpq.h"
#include "geometry/point.h"

namespace kcpq {

/// How BruteForceKClosestPairs enumerates the point pairs. The tree
/// engines always sweep (cpq/leaf_kernel.h); the nested loop lives on here
/// as the oracle that is independent of the sweep code it validates.
enum class LeafKernel {
  /// Test all |P| x |Q| pairs.
  kNestedLoop,
  /// Sort both sets along the best-spread axis and sweep: a pair whose
  /// separation on the sweep axis alone already reaches the K-th best
  /// distance is skipped without computing its distance, and so is every
  /// pair after it in sweep order. Same results.
  kPlaneSweep,
};

/// K closest pairs between two id-tagged point vectors, ascending distance.
/// `self_join` skips reflexive pairs and reports each unordered pair once
/// (p_id < q_id), matching SelfKClosestPairs. `kernel` selects the pair
/// enumeration strategy; the default stays kNestedLoop so the test oracle
/// remains independent of the sweep code it validates (a dedicated test
/// asserts sweep == nested here too).
///
/// `context` (null = unlimited) stops the scan early, honoring only the
/// deadline and cancellation of context->control(): node and memory
/// budgets do not apply, as no tree is read. It is polled per outer point.
/// Since a half-finished scan certifies nothing, a stopped run reports
/// guaranteed_lower_bound = 0 in `*quality` (when given) and keeps the
/// pairs seen so far.
std::vector<PairResult> BruteForceKClosestPairs(
    const std::vector<std::pair<Point, uint64_t>>& p,
    const std::vector<std::pair<Point, uint64_t>>& q, size_t k,
    bool self_join = false, Metric metric = Metric::kL2,
    LeafKernel kernel = LeafKernel::kNestedLoop,
    QueryQuality* quality = nullptr, QueryContext* context = nullptr);

/// For each point of `p`, its nearest point of `q`; ascending distance.
/// The brute-force reference for SemiClosestPairs.
std::vector<PairResult> BruteForceSemiClosestPairs(
    const std::vector<std::pair<Point, uint64_t>>& p,
    const std::vector<std::pair<Point, uint64_t>>& q);

}  // namespace kcpq

#endif  // KCPQ_CPQ_BRUTE_H_
