// Query lifecycle control: deadlines, cooperative cancellation, and
// resource budgets, shared by every query execution path (cpq, hs, exec).
//
// A QueryControl rides inside the query's QueryContext
// (common/query_context.h), the one carrier of a query's limits. The
// engines poll `Check()` at node-pair granularity (each poll is an atomic
// load or two and at most one clock read — noise next to a page read).
// When a limit trips, the engine does NOT error out: it drains to a
// *partial result* and reports a QueryQuality alongside, including a
// certified `guaranteed_lower_bound` derived from the branch-and-bound
// invariant (the smallest MINMINDIST among unexpanded node pairs
// lower-bounds every undiscovered pair — see docs/robustness.md for the
// proof sketch).

#ifndef KCPQ_COMMON_QUERY_CONTROL_H_
#define KCPQ_COMMON_QUERY_CONTROL_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

namespace kcpq {

/// Why a query stopped before exhausting its search space. kNone means the
/// query ran to completion.
enum class StopCause {
  kNone = 0,
  kDeadline,
  kNodeBudget,
  kMemoryBudget,
  kCancelled,
};

/// Stable human-readable name ("deadline", ...).
const char* StopCauseName(StopCause cause);

/// Observer half of a cancellation pair. Default-constructed tokens are
/// inert (never cancelled); real tokens come from a CancellationSource.
/// Copyable and cheap to poll from any thread.
class CancellationToken {
 public:
  CancellationToken() = default;

  /// True once any linked source has been cancelled.
  bool cancelled() const {
    for (const auto& flag : flags_) {
      if (flag->load(std::memory_order_acquire)) return true;
    }
    return false;
  }

  /// A token observing every source either input observes. Used by the
  /// batch executor to merge a per-query token with the batch-wide one.
  static CancellationToken Combine(const CancellationToken& a,
                                   const CancellationToken& b) {
    CancellationToken out;
    out.flags_.reserve(a.flags_.size() + b.flags_.size());
    out.flags_.insert(out.flags_.end(), a.flags_.begin(), a.flags_.end());
    out.flags_.insert(out.flags_.end(), b.flags_.begin(), b.flags_.end());
    return out;
  }

 private:
  friend class CancellationSource;
  std::vector<std::shared_ptr<const std::atomic<bool>>> flags_;
};

/// Owner half: whoever holds the source can cancel every query polling a
/// token derived from it. Thread-safe; cancellation is sticky.
class CancellationSource {
 public:
  CancellationSource() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  void Cancel() { flag_->store(true, std::memory_order_release); }
  bool cancelled() const { return flag_->load(std::memory_order_acquire); }

  CancellationToken token() const {
    CancellationToken t;
    t.flags_.push_back(flag_);
    return t;
  }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// Per-query execution limits. Default-constructed control is unlimited:
/// no deadline, no budgets, no cancellation. (A query without a context
/// has no control at all and skips the polls entirely.)
struct QueryControl {
  using Clock = std::chrono::steady_clock;
  static constexpr Clock::time_point kNoDeadline = Clock::time_point::max();

  /// Wall-clock deadline. Queries past it stop with StopCause::kDeadline.
  Clock::time_point deadline = kNoDeadline;

  /// Maximum R-tree node reads (logical ReadNode calls, counted by the
  /// engine, so the limit is deterministic and independent of buffer
  /// hits). 0 = unlimited. Checked at node-pair granularity, so a query
  /// may overshoot by one pair's reads.
  uint64_t max_node_accesses = 0;

  /// Maximum bytes of live candidate state (pair heap / candidate lists /
  /// priority queue, estimated by the engine). 0 = unlimited.
  uint64_t max_candidate_bytes = 0;

  /// Cooperative cancellation; inert by default.
  CancellationToken cancel;

  /// Control with only a deadline, `budget` from now.
  static QueryControl WithDeadlineAfter(std::chrono::nanoseconds budget) {
    QueryControl c;
    c.deadline = Clock::now() + budget;
    return c;
  }

  /// The stop decision, polled by the engines. Budget checks come before
  /// the deadline so budget-limited runs are deterministic (the clock is
  /// only read when a deadline is actually set).
  StopCause Check(uint64_t node_accesses, uint64_t candidate_bytes) const {
    if (cancel.cancelled()) return StopCause::kCancelled;
    if (max_node_accesses != 0 && node_accesses >= max_node_accesses) {
      return StopCause::kNodeBudget;
    }
    if (max_candidate_bytes != 0 && candidate_bytes >= max_candidate_bytes) {
      return StopCause::kMemoryBudget;
    }
    if (deadline != kNoDeadline && Clock::now() >= deadline) {
      return StopCause::kDeadline;
    }
    return StopCause::kNone;
  }

  /// The stricter of two controls: earlier deadline, smaller non-zero
  /// budgets, union of cancellation sources. Used to merge batch-wide
  /// control into each query's own.
  static QueryControl Merged(const QueryControl& a, const QueryControl& b) {
    const auto min_nonzero = [](uint64_t x, uint64_t y) {
      if (x == 0) return y;
      if (y == 0) return x;
      return std::min(x, y);
    };
    QueryControl out;
    out.deadline = std::min(a.deadline, b.deadline);
    out.max_node_accesses = min_nonzero(a.max_node_accesses,
                                        b.max_node_accesses);
    out.max_candidate_bytes = min_nonzero(a.max_candidate_bytes,
                                          b.max_candidate_bytes);
    out.cancel = CancellationToken::Combine(a.cancel, b.cancel);
    return out;
  }
};

/// Quality report accompanying every query result. For a completed query
/// it is the trivial certificate (exact, bound = +infinity); for a partial
/// one it is the anytime guarantee:
///
///  * Every pair of the *true* answer that is missing from the partial
///    result has distance >= guaranteed_lower_bound (in true distance
///    units under the query's metric).
///  * is_exact additionally certifies that the partial result IS a true
///    answer (the bound proves nothing better remained undiscovered).
struct QueryQuality {
  StopCause stop_cause = StopCause::kNone;
  uint64_t pairs_found = 0;
  double guaranteed_lower_bound = std::numeric_limits<double>::infinity();
  bool is_exact = true;

  /// Certificate direction. False (the default, every minimizing family):
  /// missing pairs are all >= the bound. True (kFarthest): the bound is an
  /// *upper* bound — every missing pair is at most that far. The field
  /// name keeps the historical "lower" even though a farthest-pair bound
  /// points the other way; bound_is_upper is the single source of truth.
  bool bound_is_upper = false;

  /// Capacity-weighted upper bound on how many qualifying pairs a partial
  /// result may be missing. Computed by the ε-join (the sum of subtree
  /// pair capacities over deferred node pairs whose MINMINDIST <= ε);
  /// engines that do not compute it leave 0, and it is only meaningful on
  /// partial results.
  uint64_t missing_pair_bound = 0;

  /// Per-rank refinement of the scalar bound (CPQ engines only; empty
  /// elsewhere). rank_lower_bounds[i] certifies that the (i+1)-th smallest
  /// pair *missing* from the partial result has distance >= that value —
  /// derived from the frontier's (MINMINDIST, max pair capacity) profile,
  /// so on overlapping workspaces where guaranteed_lower_bound sticks at 0
  /// the higher ranks stay informative (docs/robustness.md has the proof).
  /// Invariants: ascending; rank_lower_bounds[0] == guaranteed_lower_bound.
  /// Under bound_is_upper the inequality flips: rank_lower_bounds[i]
  /// certifies that at most i missing pairs have distance > that value
  /// (the values are then descending and start at the scalar upper bound).
  std::vector<double> rank_lower_bounds;

  bool is_partial() const { return stop_cause != StopCause::kNone; }

  /// Bound for rank `i` (0-based): the per-rank value when present, the
  /// scalar bound otherwise (always sound, possibly looser).
  double RankBound(size_t i) const {
    return i < rank_lower_bounds.size() ? rank_lower_bounds[i]
                                        : guaranteed_lower_bound;
  }
};

}  // namespace kcpq

#endif  // KCPQ_COMMON_QUERY_CONTROL_H_
