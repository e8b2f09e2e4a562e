// Speculative heap-frontier prefetch for the CPQ engines (docs/io.md).
//
// The HEAP algorithm's global min-heap — and STD's sorted child list —
// already name the node pairs the traversal will expand next; the
// scheduler turns that knowledge into overlapped I/O by handing the pages
// of the W best not-yet-read pairs to BufferManager::Prefetch. Speculation
// is invisible to the paper's cost metric (the buffer stages prefetched
// pages outside the frame table; see buffer/buffer_manager.h) and charged
// to the query's ResourceAccountant at issue time, so governance sees the
// waste a mispredicting window creates.
//
// Usage per expansion step: Clear(), Add() every candidate that survives
// the bound, Issue(). Issue selects the window() best by key, so callers
// need not pre-sort; duplicate and already-resident pages are coalesced by
// the buffer, making repeated speculation on a slow-moving frontier cheap.
//
// Keys live in the active QueryObjective's key space (cpq/objective.h):
// "best" always means smallest key, which is ascending MINMINDIST for the
// minimizing families and descending MAXMAXDIST (negated) for farthest
// pairs — the scheduler speculates along whichever pop order the objective
// actually uses, with no per-family code here.

#ifndef KCPQ_CPQ_PREFETCH_H_
#define KCPQ_CPQ_PREFETCH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "buffer/buffer_manager.h"
#include "common/query_context.h"
#include "storage/page.h"

namespace kcpq {
namespace cpq_internal {

class PrefetchScheduler {
 public:
  /// Arms the scheduler: pages of the P side go to `buffer_p`, the Q side
  /// to `buffer_q` (one merged batch when both sides share a buffer, as in
  /// a self-join). `window` = 0 disables speculation entirely; `ctx` (may
  /// be null) receives the per-page accounting charges.
  void Configure(BufferManager* buffer_p, BufferManager* buffer_q,
                 size_t window, QueryContext* ctx) {
    buffer_p_ = buffer_p;
    buffer_q_ = buffer_q;
    window_ = window;
    ctx_ = ctx;
  }

  bool enabled() const { return window_ > 0; }
  size_t window() const { return window_; }

  void Clear() { targets_.clear(); }

  /// Registers one upcoming node pair; `key` orders targets (smaller =
  /// sooner). Either page may be kInvalidPageId to skip that side.
  void Add(double key, PageId page_p, PageId page_q) {
    if (!enabled()) return;
    targets_.push_back(Target{key, page_p, page_q});
  }

  /// Prefetches the pages of the window() best targets and clears the
  /// list.
  void Issue();

  /// Speculative reads actually issued so far, after the buffer's
  /// resident/duplicate coalescing (the query's prefetch_issued).
  uint64_t issued() const { return issued_; }

  /// Waits out in-flight prefetches and discards unclaimed staged pages
  /// on both buffers; no-op when speculation is disabled.
  void Drain();

 private:
  struct Target {
    double key = 0.0;
    PageId page_p = kInvalidPageId;
    PageId page_q = kInvalidPageId;
  };

  std::vector<Target> targets_;
  std::vector<PageId> pages_p_;  // scratch, reused across Issue calls
  std::vector<PageId> pages_q_;
  BufferManager* buffer_p_ = nullptr;
  BufferManager* buffer_q_ = nullptr;
  QueryContext* ctx_ = nullptr;
  size_t window_ = 0;
  uint64_t issued_ = 0;
};

}  // namespace cpq_internal
}  // namespace kcpq

#endif  // KCPQ_CPQ_PREFETCH_H_
