#include "cpq/resumable_semi.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "cpq/engine.h"
#include "geometry/metrics.h"

namespace kcpq {

namespace {

uint64_t ElapsedNs(std::chrono::steady_clock::time_point from,
                   std::chrono::steady_clock::time_point to) {
  const auto d =
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count();
  return d > 0 ? static_cast<uint64_t>(d) : 0;
}

}  // namespace

ResumableSemiQuery::ResumableSemiQuery(const RStarTree& tree_p,
                                       const RStarTree& tree_q,
                                       CpqStats* stats,
                                       QueryContext* context, Waker waker)
    : tree_p_(tree_p),
      tree_q_(tree_q),
      stats_(stats != nullptr ? stats : &local_stats_),
      ctx_(context),
      waker_(std::move(waker)) {}

ResumableSemiQuery::~ResumableSemiQuery() = default;

ResumableTask::StepResult ResumableSemiQuery::Park(PageId page) {
  ++stats_->io_parks;
  park_pending_ = true;
  park_start_ = std::chrono::steady_clock::now();
  (void)page;
  return StepResult::kParked;
}

ResumableTask::StepResult ResumableSemiQuery::Fail(Status s) {
  final_status_ = std::move(s);
  phase_ = Phase::kDone;
  return StepResult::kDone;
}

void ResumableSemiQuery::CountRead(const BufferManager::TryReadOutcome& outcome,
                                   bool is_p) {
  if (outcome.hit) return;
  if (tree_p_.buffer() == tree_q_.buffer()) {
    ++misses_p_;
    ++misses_q_;
  } else if (is_p) {
    ++misses_p_;
  } else {
    ++misses_q_;
  }
  if (outcome.prefetch_claim) ++prefetch_hits_;
}

bool ResumableSemiQuery::StartPhase() {
  *stats_ = CpqStats{};
  // Trivial queries return untouched default stats: no epilogue, no
  // metric fold.
  if (tree_p_.size() == 0 || tree_q_.size() == 0) return false;
  out_.reserve(tree_p_.size());
  // Pre-trip check: a pre-cancelled or pre-expired query touches no pages.
  stop_ = ctx_ != nullptr ? ctx_->Check(0, 0) : StopCause::kNone;
  if (stop_ != StopCause::kNone) {
    phase_ = Phase::kFinish;
  } else {
    stack_.push_back(PageRef{tree_p_.root_page(), tree_p_.height() - 1});
    phase_ = Phase::kScanRead;
  }
  return true;
}

void ResumableSemiQuery::FinishPhase() {
  std::sort(out_.begin(), out_.end(),
            [](const PairResult& a, const PairResult& b) {
              if (a.distance != b.distance) return a.distance < b.distance;
              return a.p_id < b.p_id;
            });
  stats_->disk_accesses_p = misses_p_;
  stats_->disk_accesses_q = misses_q_;
  stats_->node_accesses = node_accesses_;
  stats_->prefetch_hits = prefetch_hits_;
  stats_->quality.stop_cause = stop_;
  stats_->quality.pairs_found = out_.size();
  if (stop_ != StopCause::kNone) {
    // A per-point NN result says nothing about the unvisited P points, so
    // the only honest global lower bound is zero; the partial result is
    // still complete and exact for every P point it covers.
    stats_->quality.guaranteed_lower_bound = 0.0;
    stats_->quality.is_exact = false;
  }
  // No latency sample: a batch times its semi-joins in the executor's
  // per-scheduler histograms.
  cpq_internal::FoldCpqMetrics(*stats_, -1.0, QueryFamily::kClosest);
}

ResumableTask::StepResult ResumableSemiQuery::Step() {
  if (park_pending_) {
    park_pending_ = false;
    stats_->io_parked_ns +=
        ElapsedNs(park_start_, std::chrono::steady_clock::now());
  }

  for (;;) {
    switch (phase_) {
      case Phase::kStart: {
        if (!StartPhase()) {
          final_status_ = Status::OK();
          phase_ = Phase::kDone;
          return StepResult::kDone;
        }
        continue;
      }
      case Phase::kScanRead: {
        // Depth-first scan of P's leaves over an explicit LIFO stack. The
        // page stays on the stack until its read lands, so a park simply
        // re-reads it.
        if (stack_.empty()) {
          phase_ = Phase::kFinish;
          continue;
        }
        const PageRef ref = stack_.back();
        BufferManager::TryReadOutcome outcome;
        const Status s =
            tree_p_.TryReadNode(ref.page, &node_p_, ctx_, waker_, &outcome);
        if (outcome.parked) return Park(ref.page);
        if (s.code() == StatusCode::kDeadlineExceeded) {
          stop_ = StopCause::kDeadline;
          phase_ = Phase::kFinish;
          continue;
        }
        if (!s.ok()) return Fail(s);
        CountRead(outcome, /*is_p=*/true);
        if (Status level = CheckNodeLevel(node_p_, ref.level, ref.page);
            !level.ok()) {
          return Fail(std::move(level));
        }
        stack_.pop_back();
        if (!node_p_.IsLeaf()) {
          // Internal P nodes are read (and cost disk accesses) but are not
          // charged to node_accesses: only P leaves and popped Q nodes are.
          for (const Entry& e : node_p_.entries) {
            stack_.push_back(PageRef{e.id, ref.level - 1});
          }
          continue;
        }
        ++node_accesses_;  // the P leaf itself
        leaf_mbr_ = node_p_.ComputeMbr();
        best_.assign(node_p_.entries.size(),
                     std::numeric_limits<double>::infinity());
        best_entry_.assign(node_p_.entries.size(), Entry{});
        queue_ = decltype(queue_){};
        queue_.push(
            QueueItem{0.0, {tree_q_.root_page(), tree_q_.height() - 1}});
        phase_ = Phase::kGroupLoop;
        continue;
      }
      case Phase::kGroupLoop: {
        if (queue_.empty()) {
          phase_ = Phase::kGroupEmit;
          continue;
        }
        const QueueItem item = queue_.top();
        queue_.pop();
        group_worst_ = *std::max_element(best_.begin(), best_.end());
        if (item.key > group_worst_) {  // no leaf point can improve
          phase_ = Phase::kGroupEmit;
          continue;
        }
        if (ctx_ != nullptr) {
          // Stop poll BEFORE the read, once per popped node; a park resumes
          // at the read and never re-polls. On a stop the leaf's half-built
          // best lists are discarded: per-point answers are emitted whole.
          stop_ = ctx_->Check(node_accesses_, out_.size() * sizeof(PairResult));
          if (stop_ != StopCause::kNone) {
            phase_ = Phase::kFinish;
            continue;
          }
        }
        group_ref_ = item.ref;
        phase_ = Phase::kGroupRead;
        continue;
      }
      case Phase::kGroupRead: {
        BufferManager::TryReadOutcome outcome;
        const Status s = tree_q_.TryReadNode(group_ref_.page, &node_q_, ctx_,
                                             waker_, &outcome);
        if (outcome.parked) return Park(group_ref_.page);
        if (s.code() == StatusCode::kDeadlineExceeded) {
          stop_ = StopCause::kDeadline;
          phase_ = Phase::kFinish;
          continue;
        }
        if (!s.ok()) return Fail(s);
        CountRead(outcome, /*is_p=*/false);
        if (Status level =
                CheckNodeLevel(node_q_, group_ref_.level, group_ref_.page);
            !level.ok()) {
          return Fail(std::move(level));
        }
        ++stats_->node_pairs_processed;
        ++node_accesses_;
        if (node_q_.IsLeaf()) {
          for (const Entry& eq : node_q_.entries) {
            for (size_t i = 0; i < node_p_.entries.size(); ++i) {
              ++stats_->point_distance_computations;
              const double d2 =
                  MinMinDistSquared(node_p_.entries[i].rect, eq.rect);
              if (d2 < best_[i]) {
                best_[i] = d2;
                best_entry_[i] = eq;
              }
            }
          }
        } else {
          for (const Entry& eq : node_q_.entries) {
            const double key = MinMinDistSquared(leaf_mbr_, eq.rect);
            // Re-test against the worst captured at this pop: later
            // insertions are useless once every point has a closer
            // neighbor.
            if (key <= group_worst_) {
              queue_.push(QueueItem{key, {eq.id, group_ref_.level - 1}});
            }
          }
        }
        phase_ = Phase::kGroupLoop;
        continue;
      }
      case Phase::kGroupEmit: {
        for (size_t i = 0; i < node_p_.entries.size(); ++i) {
          Point p_witness, q_witness;
          ClosestPoints(node_p_.entries[i].rect, best_entry_[i].rect,
                        &p_witness, &q_witness);
          out_.push_back(PairResult{p_witness, q_witness,
                                    node_p_.entries[i].id, best_entry_[i].id,
                                    std::sqrt(best_[i])});
        }
        phase_ = Phase::kScanRead;
        continue;
      }
      case Phase::kFinish: {
        FinishPhase();
        final_status_ = Status::OK();
        phase_ = Phase::kDone;
        return StepResult::kDone;
      }
      case Phase::kDone:
        return StepResult::kDone;
    }
  }
}

}  // namespace kcpq
