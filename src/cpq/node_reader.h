// The one node read of the query state machines: ResumableCpqQuery
// (K-CPQ and the ε-join), HS's JoinImpl and ResumableSemiQuery read every
// node through a NodeReader, which owns the whole read protocol:
//
//   * RStarTree::TryReadNode with the query's context and waker. An empty
//     waker waits like BufferManager::Read (inline); a scheduler's waker
//     registers with the page's fetch and the read parks.
//   * One outcome split: kOk, kParked (the machine returns kParked and
//     re-runs this read when woken), kDeadline (storage abandoned a retry
//     the deadline could not cover: the machine stops as on a deadline
//     poll) and kError (error()).
//   * CheckNodeLevel against the level the parent entry implies (the
//     root's is height - 1). A page at any other level is kCorruption,
//     never adopted, so a cyclic or relabelled page cannot loop or
//     mislead a traversal.
//   * The per-query tallies. A miss counts when the page is claimed
//     (TryReadOutcome), not when a fetch is issued; buffer-wide counter
//     deltas would mix in every other query sharing the buffer.
//   * The park record: each park counts once, here and nowhere else (the
//     tally and the live QueryObservation the context carries), and its
//     parked time and io_park trace span are closed by the next read. A
//     parked machine always resumes at the read that parked, so that read
//     is the first thing its next Step() does.
//   * Speculative read-ahead (cpq/prefetch.h) and its settling.
//
// Each machine copies the tallies, and the replication outcomes its
// context recorded, into its CpqStats in its one epilogue (CopyTallies).

#ifndef KCPQ_CPQ_NODE_READER_H_
#define KCPQ_CPQ_NODE_READER_H_

#include <chrono>
#include <cstdint>

#include "common/query_context.h"
#include "common/resumable.h"
#include "cpq/cpq.h"
#include "cpq/prefetch.h"
#include "rtree/rtree.h"

namespace kcpq {
namespace cpq_internal {

/// TryReadNode plus CheckNodeLevel on a served node: the checked read
/// under NodeReader, and the whole read of engines that never park
/// (multiway passes an empty waker).
Status TryReadCheckedNode(const RStarTree& tree, PageId page, int level,
                          QueryContext* ctx, const Waker& waker, Node* node,
                          BufferManager::TryReadOutcome* outcome);

class NodeReader {
 public:
  enum class Outcome { kOk, kParked, kDeadline, kError };

  /// `ctx` may be null (no limits, no trace). The trees and the context
  /// must outlive the reader and any buffer drain settling its
  /// speculation.
  NodeReader(const RStarTree& tree_p, const RStarTree& tree_q,
             QueryContext* ctx, Waker waker);

  /// Reads `page` of P (`is_p`) or Q, expected at `level`, into node_p()
  /// or node_q().
  Outcome Read(bool is_p, PageId page, int level);

  /// Starts a pair read: the next ReadPair reads both nodes.
  void NewPair() { have_p_ = have_q_ = false; }
  /// Reads whichever node of the pair is not in hand since NewPair(), so
  /// a pair read resumed after a park re-reads only the missing node.
  Outcome ReadPair(PageId page_p, int level_p, PageId page_q, int level_q);

  const Node& node_p() const { return node_p_; }
  const Node& node_q() const { return node_q_; }
  /// The status of the last kError.
  const Status& error() const { return error_; }

  PrefetchScheduler& prefetch() { return prefetch_; }
  /// Arms speculation on the trees' buffers; `window` = 0 disables it.
  void ConfigurePrefetch(size_t window);
  /// An inline query settles its own speculation when it ends, so the
  /// accounting identity (issued == hits + wasted) holds at query end. A
  /// multiplexed query shares the buffers with the scheduler's other
  /// queries, whose staged pages a drain would discard: the batch
  /// executor settles once after the whole run instead.
  void SettleInline();

  /// Copies the tallies and the context's replication outcomes into
  /// `stats`.
  void CopyTallies(CpqStats* stats) const;

 private:
  void ClosePark();

  const RStarTree& tree_p_;
  const RStarTree& tree_q_;
  QueryContext* ctx_;
  obs::TraceBuffer* trace_;  // the context's trace sink; null = none
  Waker waker_;
  PrefetchScheduler prefetch_;
  Node node_p_, node_q_;
  bool have_p_ = false, have_q_ = false;
  Status error_;

  uint64_t misses_p_ = 0;
  uint64_t misses_q_ = 0;
  uint64_t prefetch_hits_ = 0;
  uint64_t parks_ = 0;
  uint64_t parked_ns_ = 0;

  bool park_pending_ = false;
  PageId park_page_ = kInvalidPageId;
  std::chrono::steady_clock::time_point park_start_;
  uint64_t park_trace_ts_ = 0;
};

}  // namespace cpq_internal
}  // namespace kcpq

#endif  // KCPQ_CPQ_NODE_READER_H_
