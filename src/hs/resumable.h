// The Hjaltason–Samet top-K join as a state machine: the HS analog of
// cpq/resumable.h, and the one traversal behind HsKClosestPairs,
// IncrementalDistanceJoin and the batch executor's HS queries. The join's
// priority-queue loop is already iterative, so the machine only needs
// parkable node reads: the join remembers the popped-but-unexpanded item
// plus whichever node of the pair is already read, parks on the missing
// one, and re-enters the expansion — never the pop or the context poll —
// when the page lands.
//
// An empty waker runs the join inline (reads wait; one Step() finishes
// it); a scheduler's waker lets it park. Both give identical emitted
// pairs, certificates, and per-query disk-access counts
// (tests/resumable_test.cc). The same lifetime rule as ResumableCpqQuery
// applies to a parking join: drain the tree buffers before destroying its
// QueryContext.

#ifndef KCPQ_HS_RESUMABLE_H_
#define KCPQ_HS_RESUMABLE_H_

#include <chrono>
#include <memory>
#include <vector>

#include "common/resumable.h"
#include "hs/hs.h"

namespace kcpq {

/// One HS top-K join (sets k_bound = k). Construct, Step until kDone,
/// read status()/TakeResults(), discard.
class ResumableHsQuery final : public ResumableTask {
 public:
  /// `stats` may be null. The trees must outlive the task and any buffer
  /// drain settling its speculation; `options.context` (if set) likewise.
  /// An empty `waker` runs the join inline.
  ResumableHsQuery(const RStarTree& tree_p, const RStarTree& tree_q, size_t k,
                   HsOptions options, HsStats* stats, Waker waker);
  ~ResumableHsQuery() override;

  StepResult Step() override;

  /// OK unless the join hit a non-deadline storage/corruption error.
  const Status& status() const { return final_status_; }
  std::vector<PairResult> TakeResults() { return std::move(results_); }

 private:
  std::unique_ptr<hs_internal::JoinImpl> impl_;
  size_t k_;
  HsStats* stats_;  // may be null
  QueryFamily family_ = QueryFamily::kClosest;  // for the metrics fold
  std::vector<PairResult> results_;
  Status final_status_;
  bool done_ = false;
  bool timed_ = false;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace kcpq

#endif  // KCPQ_HS_RESUMABLE_H_
