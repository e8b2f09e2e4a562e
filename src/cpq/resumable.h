// K-CPQ execution as an explicit state machine: the one traversal of all
// five algorithms (the recursive descent of NAIVE/EXH/SIM/STD and the
// best-first heap loop of HEAP) for every query family.
//
// The machine owns a CpqEngine (cpq/engine.h: kernels plus per-query
// state) and drives it phase by phase. Every node read goes through
// RStarTree::TryReadNode with the machine's waker, and the waker decides
// how a miss is served:
//
//   * Empty waker (inline). The read waits, exactly like
//     BufferManager::Read: the QueryContext reaches storage
//     (deadline-aware retry abandonment, replication tallies) and an
//     in-flight staged page is awaited. One Step() call runs the query to
//     completion. KClosestPairs, SelfKClosestPairs and the blocking batch
//     scheduler drive the machine this way.
//   * Scheduler waker (multiplexed). A non-resident page registers the
//     waker with the buffer's in-flight fetch and Step() returns kParked.
//     exec::ResumableScheduler re-runs the task when the page lands, so a
//     small worker pool multiplexes hundreds of in-flight queries.
//
// Both modes run the same query: identical results, quality certificate
// and per-query disk accesses (tests/resumable_test.cc checks both against
// one golden digest). Three properties deliver that:
//
//   1. One order. The recursion is an explicit frame stack and the heap
//      loop pops before reading, so interleaving with other queries cannot
//      reorder this query's work. A park resumes at the read, never before
//      a stop poll, so a parked query observes no extra deadline polls.
//   2. One count. Disk accesses are tallied from each read's
//      TryReadOutcome, which counts a miss when the page is claimed, not
//      when a fetch is issued. (Thread-local buffer deltas would be
//      meaningless when many queries share a worker thread.)
//   3. One epilogue. The finish step fills the stats and the certificate
//      and folds the kcpq_cpq_* metrics, once per successful query.
//
// Lifetime: a multiplexed machine registers wakers and an issuer
// (QueryContext) pointer with the BufferManager. Both may outlive the
// finished query inside staged prefetch entries, so the caller must drain
// the buffers (DrainPrefetches) before destroying the query's
// QueryContext. The batch executor drains once after the whole run; a
// per-query drain would discard sibling queries' staged pages. An inline
// machine settles its own speculation when it finishes.

#ifndef KCPQ_CPQ_RESUMABLE_H_
#define KCPQ_CPQ_RESUMABLE_H_

#include <chrono>
#include <cstdint>
#include <vector>

#include "common/resumable.h"
#include "cpq/engine.h"

namespace kcpq {

/// One K-CPQ execution. Construct, Step until kDone (re-Stepping only
/// after the waker fires when parked), read status()/TakeResults(),
/// discard. Self-joins pass the same tree twice with options.self_join.
class ResumableCpqQuery final : public ResumableTask {
 public:
  /// `stats` may be null. `options` is copied; `options.context` (if set)
  /// and the trees must outlive the task *and* any buffer drain that
  /// settles its speculation. An empty `waker` runs the query inline (the
  /// first Step() returns kDone); otherwise the waker must be callable
  /// from I/O completion threads until Step() has returned kDone.
  ResumableCpqQuery(const RStarTree& tree_p, const RStarTree& tree_q,
                    CpqOptions options, CpqStats* stats, Waker waker);
  ~ResumableCpqQuery() override;

  StepResult Step() override;

  /// OK unless the traversal hit a non-deadline storage/corruption error.
  /// Meaningful once Step() has returned kDone.
  const Status& status() const { return final_status_; }
  std::vector<PairResult> TakeResults() { return std::move(results_out_); }

 private:
  enum class Phase {
    kStart,       // stats reset, trivial-query checks, prefetch config
    kReadRootP,   // root MBR of P (parks like any read)
    kReadRootQ,   // root MBR of Q
    kSeed,        // tie context + root refs; dispatch to a driver
    kExpandCheck, // recursive driver: stop poll before the pair's reads
    kExpandRead,  // recursive driver: read pair, expand, descend
    kHeapLoop,    // heap driver: prefetch, pop, CP5 / stop checks
    kHeapRead,    // heap driver: read the popped pair, expand, push
    kFinish,      // epilogue: per-query stats + quality certificate
    kDone,
  };

  /// One suspended level of the recursive descent: the candidate list of
  /// an expanded pair and the index of the next candidate to visit.
  struct RecFrame {
    std::vector<cpq_internal::Candidate> candidates;
    size_t next = 0;
    uint64_t frame_bytes = 0;
  };

  enum class ReadPairOutcome { kOk, kParked, kDeadline, kError };

  /// Reads whichever side of (cur_p_, cur_q_) is not in hand yet,
  /// parking on a miss-in-flight. Only after BOTH nodes are read does it
  /// count the pair (node_pairs_processed, node_accesses += 2) and
  /// refresh the refs from the pages, so the bookkeeping is the same no
  /// matter how many parks interleaved.
  ReadPairOutcome TryReadPair(Status* error);

  /// Records a park on `page` and returns kParked. The matching resume
  /// bookkeeping (parked-time accounting, io_park trace span) runs at the
  /// top of the next Step().
  StepResult Park(PageId page);
  StepResult Fail(Status s);
  /// Fills the stats and certificate, folds the metrics, and ends the
  /// query.
  StepResult Finish();
  /// An inline machine settles its own speculation when it ends (waits out
  /// in-flight prefetches, discards unclaimed ones), so the accounting
  /// identity holds at query end; no-op for a multiplexed machine.
  void SettleInlineSpeculation();

  /// Tallies one served read into the per-query miss / prefetch-hit
  /// counters. A self-join's shared buffer counts each miss on both sides
  /// (disk_accesses_p and disk_accesses_q both cover the one buffer).
  void CountRead(const BufferManager::TryReadOutcome& outcome, bool is_p);

  /// Walks the frame stack to the next candidate to expand (re-testing
  /// each against T, draining into the certificate once stopped), setting
  /// pending_ and phase kExpandCheck; kFinish when the stack empties.
  void AdvanceRecursive();
  /// The heap loop's stop-drain: folds the popped pair plus the whole
  /// remaining heap into the certificate.
  void DrainHeapIntoCertificate(const cpq_internal::Candidate& popped);

  bool StartPhase();     // returns false when the query is trivially done
  bool ReadRoot(bool is_p, StepResult* parked);
  void SeedPhase();
  void HeapLoopPhase();

  CpqOptions options_;  // stable storage for engine_'s options reference
  cpq_internal::CpqEngine engine_;
  Waker waker_;
  Phase phase_ = Phase::kStart;
  Status final_status_;
  std::vector<PairResult> results_out_;

  // Traversal state.
  int root_level_ = 0;
  Rect mbr_p_, mbr_q_;
  cpq_internal::Candidate pending_;  // pair chosen for expansion, pre-read
  cpq_internal::NodeRef cur_p_, cur_q_;  // refs refreshed by TryReadPair
  Node node_p_, node_q_;
  bool have_p_ = false, have_q_ = false;
  std::vector<RecFrame> rec_stack_;
  /// kHeap's min-heap of node pairs by (key, tie chain): CP1-CP5 of
  /// Section 3.5, open-coded over a vector with std::push_heap / pop_heap
  /// so the prefetch scheduler can peek at the frontier's best pairs
  /// without disturbing the heap.
  std::vector<cpq_internal::Candidate> heap_;
  std::vector<cpq_internal::Candidate> candidates_scratch_;
  std::vector<uint32_t> spec_order_;

  // Per-query I/O accounting from TryReadOutcome (see header comment).
  uint64_t misses_p_ = 0;
  uint64_t misses_q_ = 0;
  uint64_t prefetch_hits_ = 0;
  uint64_t prefetch_issued_ = 0;

  // Metrics timing (kcpq_cpq_query_seconds), from construction.
  bool timed_ = false;
  std::chrono::steady_clock::time_point start_;

  // Park bookkeeping: resume time minus park time is the io_park span.
  bool park_pending_ = false;
  PageId park_page_ = kInvalidPageId;
  std::chrono::steady_clock::time_point park_start_;
  uint64_t park_trace_ts_ = 0;
};

}  // namespace kcpq

#endif  // KCPQ_CPQ_RESUMABLE_H_
