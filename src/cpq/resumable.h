// K-CPQ execution as an explicit state machine: the one traversal of all
// five algorithms (the recursive descent of NAIVE/EXH/SIM/STD and the
// best-first heap loop of HEAP) for every query family, and of the ε-join
// (EXH with T fixed at ε, cpq/distance_join.h).
//
// The machine owns a CpqEngine (cpq/engine.h: kernels plus per-query
// state) and drives it phase by phase. Every node read goes through its
// NodeReader (cpq/node_reader.h), which checks each node's level and
// tallies the read, and the machine's waker decides how a miss is served:
//
//   * Empty waker (inline). The read waits, exactly like
//     BufferManager::Read: the QueryContext reaches storage
//     (deadline-aware retry abandonment, replication tallies) and an
//     in-flight staged page is awaited. One Step() call runs the query to
//     completion. KClosestPairs, SelfKClosestPairs, DistanceRangeJoin and
//     the blocking batch scheduler drive the machine this way.
//   * Scheduler waker (multiplexed). A non-resident page registers the
//     waker with the buffer's in-flight fetch and Step() returns kParked.
//     exec::ResumableScheduler re-runs the task when the page lands, so a
//     small worker pool multiplexes hundreds of in-flight queries.
//
// The frontier — the HEAP heap, the recursive frames' child lists and the
// pair chosen for expansion (pending_) — is made of 48-byte FrontierEntry
// values (cpq/engine.h): key, first tie score, page ids, levels and pair
// capacity. A pair's MBRs and point counts come from its nodes once both
// are read, so an entry that crosses a park carries nothing to refresh.
//
// Both modes run the same query: identical results, quality certificate
// and per-query disk accesses (tests/resumable_test.cc checks both against
// one golden digest). Three properties deliver that:
//
//   1. One order. The recursion is an explicit frame stack and the heap
//      loop pops before reading, so interleaving with other queries cannot
//      reorder this query's work. A park resumes at the read, never before
//      a stop poll, so a parked query observes no extra deadline polls.
//   2. One count. The NodeReader tallies disk accesses, prefetch claims
//      and parks from each read's TryReadOutcome, which counts a miss when
//      the page is claimed, not when a fetch is issued, and the epilogue
//      copies them into the stats. (Buffer-wide counter deltas would mix
//      in every other query sharing the buffer.)
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
#include "cpq/node_reader.h"

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
  /// The same machine under an explicit objective (the constructor above
  /// derives it from options.family / metric / query_rect).
  /// DistanceRangeJoin passes QueryObjective::EpsilonJoin and runs
  /// kExhaustive with options.k as its result cap (cpq/distance_join.h).
  ResumableCpqQuery(const RStarTree& tree_p, const RStarTree& tree_q,
                    CpqOptions options, const QueryObjective& objective,
                    CpqStats* stats, Waker waker);
  ~ResumableCpqQuery() override;

  StepResult Step() override;

  /// OK unless the traversal hit a non-deadline storage/corruption error.
  /// Meaningful once Step() has returned kDone.
  const Status& status() const { return final_status_; }
  std::vector<PairResult> TakeResults() { return std::move(results_out_); }

 private:
  enum class Phase {
    kStart,       // stats reset, trivial-query checks, prefetch config
    kReadRoots,   // both roots (parks like any read), then the seed: tie
                  // context + root refs; dispatch to a driver
    kExpandCheck, // recursive driver: stop poll before the pair's reads
    kExpandRead,  // recursive driver: read pair, expand, descend
    kHeapLoop,    // heap driver: prefetch, pop, CP5 / stop checks
    kHeapRead,    // heap driver: read the popped pair, expand, push
    kFinish,      // epilogue: per-query stats + quality certificate
    kDone,
  };

  /// One suspended level of the recursive descent: the child entries of
  /// an expanded pair and the index of the next one to visit.
  struct RecFrame {
    std::vector<cpq_internal::FrontierEntry> entries;
    size_t next = 0;
  };

  /// Reads pending_'s nodes through reader_. Only after BOTH nodes are
  /// read does it count the pair (node_pairs_processed, node_accesses +=
  /// 2), so the bookkeeping is the same no matter how many parks
  /// interleaved.
  cpq_internal::NodeReader::Outcome ReadPending();

  /// Ends the query with `s` (OK unless it failed): settles an inline
  /// machine's speculation, then runs Finish() for a successful query.
  StepResult End(Status s);
  /// The epilogue: fills the stats and certificate and folds the metrics.
  void Finish();

  /// Folds an unexpanded pair into the certificate (and the profile's
  /// deferred count).
  void Defer(const cpq_internal::FrontierEntry& entry);
  /// Walks the frame stack to the next entry to expand (re-testing each
  /// against T, draining into the certificate once stopped), setting
  /// pending_ and phase kExpandCheck; kFinish when the stack empties.
  void AdvanceRecursive();
  /// The recursive drivers' expansion of the pair in hand: a new frame of
  /// its child entries (sorted for STD), speculating on the first W.
  void ExpandIntoFrame(cpq_internal::DescendChoice choice);
  /// The heap loop's stop-drain: folds the whole remaining heap into the
  /// certificate and ends the traversal.
  void DrainHeapIntoCertificate();

  bool StartPhase();     // returns false when the query is trivially done
  void SeedPhase();
  void HeapLoopPhase();

  CpqOptions options_;  // stable storage for engine_'s options reference
  cpq_internal::CpqEngine engine_;
  /// Every node read, its tallies and the query's speculation.
  cpq_internal::NodeReader reader_;
  Phase phase_ = Phase::kStart;
  Status final_status_;
  std::vector<PairResult> results_out_;

  // Traversal state.
  cpq_internal::FrontierEntry pending_;  // pair chosen for expansion, pre-read
  std::vector<RecFrame> rec_stack_;
  /// kHeap's min-heap of node pairs in FrontierLess order (key, tie
  /// chain, pages): CP1-CP5 of Section 3.5, open-coded over a vector with
  /// std::push_heap / pop_heap so the prefetch scheduler can peek at the
  /// frontier's best pairs without disturbing the heap. 48 bytes a pair.
  std::vector<cpq_internal::FrontierEntry> heap_;
  std::vector<uint32_t> spec_order_;

  // Metrics timing (kcpq_cpq_query_seconds), from construction.
  bool timed_ = false;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace kcpq

#endif  // KCPQ_CPQ_RESUMABLE_H_
