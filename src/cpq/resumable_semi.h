// Semi-CPQ (all-nearest-neighbor join) as an explicit state machine: the
// one traversal behind SemiClosestPairs and the batch executor's
// semi-joins.
//
// The scan walks P's leaves depth-first. For each P leaf, a group
// nearest-neighbor search runs one best-first traversal of Q that serves
// every point of the leaf at once: the queue key MINMINDIST(leaf MBR,
// Q subtree MBR) lower-bounds the distance from every leaf point to
// everything beneath the subtree, so the search stops when the key
// exceeds the worst unresolved best. That amortizes one Q descent over up
// to M points instead of one descent per point.
//
// Like ResumableCpqQuery (cpq/resumable.h), the machine runs inline with
// an empty waker (SemiClosestPairs, the blocking batch scheduler) or parks
// on a miss under exec::ResumableScheduler, with identical results,
// certificate and per-query disk accesses either way:
//
//   1. One order. A park resumes AT the read, never before a stop poll,
//      so interleaving cannot add or drop deadline observations.
//   2. One count. Every read goes through a NodeReader
//      (cpq/node_reader.h), which checks its level and tallies misses (at
//      claim), parks and parked time for the epilogue to copy;
//      node_accesses counts P leaves and popped Q nodes (internal P nodes
//      are read but not counted).
//   3. One epilogue, which folds the kcpq_cpq_* metrics once.

#ifndef KCPQ_CPQ_RESUMABLE_SEMI_H_
#define KCPQ_CPQ_RESUMABLE_SEMI_H_

#include <cstdint>
#include <algorithm>
#include <functional>
#include <vector>

#include "common/query_context.h"
#include "common/resumable.h"
#include "cpq/cpq.h"
#include "cpq/node_reader.h"
#include "rtree/rtree.h"

namespace kcpq {

/// One resumable semi-join (all-nearest-neighbor) execution. Construct,
/// Step until kDone (re-Stepping only after the waker fires when parked),
/// read status()/TakeResults(), discard. Same lifetime rules as
/// ResumableCpqQuery: trees, context, and waker must outlive the task and
/// any buffer drain that settles staged pages.
class ResumableSemiQuery final : public ResumableTask {
 public:
  /// `stats` may be null; `context` carries the limits (null = unlimited,
  /// unaccounted). An empty `waker` runs the query inline (the first
  /// Step() returns kDone).
  ResumableSemiQuery(const RStarTree& tree_p, const RStarTree& tree_q,
                     CpqStats* stats, QueryContext* context, Waker waker);
  ~ResumableSemiQuery() override;

  StepResult Step() override;

  /// OK unless the traversal hit a non-deadline storage error. Meaningful
  /// once Step() has returned kDone.
  const Status& status() const { return final_status_; }
  std::vector<PairResult> TakeResults() { return std::move(out_); }

 private:
  enum class Phase {
    kStart,      // stats reset, trivial-query check, pre-trip stop poll
    kScanRead,   // P traversal: read the top of the LIFO stack
    kGroupLoop,  // Q descent: pop, worst-bound break test, stop poll
    kGroupRead,  // Q descent: read the popped node, update best lists
    kGroupEmit,  // leaf finished whole: emit one pair per leaf point
    kFinish,     // epilogue: sort, per-query stats, quality certificate
    kDone,
  };

  // A page to read with the level its parent implies (the root's is
  // height - 1): a decoded page at any other level is kCorruption, never
  // adopted (CheckNodeLevel).
  struct PageRef {
    PageId page;
    int level;
  };

  struct QueueItem {
    double key;
    PageRef ref;
    bool operator>(const QueueItem& other) const { return key > other.key; }
  };

  void PushQueue(const QueueItem& item) {
    queue_.push_back(item);
    std::push_heap(queue_.begin(), queue_.end(), std::greater<QueueItem>());
  }
  /// Ends the query with `s` (OK unless it failed).
  StepResult End(Status s);

  bool StartPhase();  // returns false when the query is trivially done
  void FinishPhase();

  const RStarTree& tree_p_;
  const RStarTree& tree_q_;
  CpqStats* stats_;
  CpqStats local_stats_;
  QueryContext* ctx_;
  /// Every node read and its tallies. The P leaf of the current group
  /// stays in node_p() while the group's Q nodes are read into node_q().
  cpq_internal::NodeReader reader_;

  Phase phase_ = Phase::kStart;
  Status final_status_;
  std::vector<PairResult> out_;

  // P traversal state: the depth-first leaf scan's explicit stack. The
  // page being read stays on the stack until the read lands, so a park
  // simply re-reads it.
  std::vector<PageRef> stack_;

  // Group-NN state for the current P leaf.
  Rect leaf_mbr_;
  std::vector<double> best_;
  std::vector<Entry> best_entry_;
  /// Min-heap on key (std::push_heap/pop_heap with std::greater, the
  /// order std::priority_queue keeps), reused across P leaves.
  std::vector<QueueItem> queue_;
  double group_worst_ = 0.0;  // worst unresolved best at this pop
  PageRef group_ref_{kInvalidPageId, 0};

  // Per-query accounting (see header comment).
  uint64_t node_accesses_ = 0;
  StopCause stop_ = StopCause::kNone;
};

}  // namespace kcpq

#endif  // KCPQ_CPQ_RESUMABLE_SEMI_H_
