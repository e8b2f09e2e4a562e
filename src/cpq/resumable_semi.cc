#include "cpq/resumable_semi.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "cpq/engine.h"
#include "geometry/metrics.h"

namespace kcpq {

using ReadOutcome = cpq_internal::NodeReader::Outcome;

ResumableSemiQuery::ResumableSemiQuery(const RStarTree& tree_p,
                                       const RStarTree& tree_q,
                                       CpqStats* stats,
                                       QueryContext* context, Waker waker)
    : tree_p_(tree_p),
      tree_q_(tree_q),
      stats_(stats != nullptr ? stats : &local_stats_),
      ctx_(context),
      reader_(tree_p, tree_q, context, std::move(waker)) {}

ResumableSemiQuery::~ResumableSemiQuery() = default;

ResumableTask::StepResult ResumableSemiQuery::End(Status s) {
  // A failed scan still reports its I/O (see ResumableCpqQuery::End).
  if (!s.ok()) reader_.CopyTallies(stats_);
  final_status_ = std::move(s);
  phase_ = Phase::kDone;
  return StepResult::kDone;
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
  reader_.CopyTallies(stats_);
  stats_->node_accesses = node_accesses_;
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
  for (;;) {
    switch (phase_) {
      case Phase::kStart: {
        if (!StartPhase()) return End(Status::OK());
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
        const ReadOutcome r = reader_.Read(/*is_p=*/true, ref.page, ref.level);
        if (r == ReadOutcome::kParked) return StepResult::kParked;
        if (r == ReadOutcome::kError) return End(reader_.error());
        if (r == ReadOutcome::kDeadline) {
          stop_ = StopCause::kDeadline;
          phase_ = Phase::kFinish;
          continue;
        }
        stack_.pop_back();
        const Node& node_p = reader_.node_p();
        if (!node_p.IsLeaf()) {
          // Internal P nodes are read (and cost disk accesses) but are not
          // charged to node_accesses: only P leaves and popped Q nodes are.
          for (const Entry& e : node_p.entries) {
            stack_.push_back(PageRef{e.id, ref.level - 1});
          }
          continue;
        }
        ++node_accesses_;  // the P leaf itself
        leaf_mbr_ = node_p.ComputeMbr();
        best_.assign(node_p.entries.size(),
                     std::numeric_limits<double>::infinity());
        best_entry_.assign(node_p.entries.size(), Entry{});
        queue_.clear();
        PushQueue(QueueItem{0.0, {tree_q_.root_page(), tree_q_.height() - 1}});
        phase_ = Phase::kGroupLoop;
        continue;
      }
      case Phase::kGroupLoop: {
        if (queue_.empty()) {
          phase_ = Phase::kGroupEmit;
          continue;
        }
        std::pop_heap(queue_.begin(), queue_.end(), std::greater<QueueItem>());
        const QueueItem item = queue_.back();
        queue_.pop_back();
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
        const ReadOutcome r =
            reader_.Read(/*is_p=*/false, group_ref_.page, group_ref_.level);
        if (r == ReadOutcome::kParked) return StepResult::kParked;
        if (r == ReadOutcome::kError) return End(reader_.error());
        if (r == ReadOutcome::kDeadline) {
          stop_ = StopCause::kDeadline;
          phase_ = Phase::kFinish;
          continue;
        }
        ++stats_->node_pairs_processed;
        ++node_accesses_;
        const Node& leaf = reader_.node_p();
        const Node& node_q = reader_.node_q();
        if (node_q.IsLeaf()) {
          // Point by point, each seeing the Q entries in leaf order, so
          // the first strictly closer entry stays its witness. A point
          // whose best is already no farther than the Q leaf's MBR skips
          // the leaf: no entry inside the MBR can be strictly closer, as
          // each per-axis gap to an entry is at least the gap to the MBR
          // in floating point too.
          const Rect q_mbr = node_q.ComputeMbr();
          const size_t nq = node_q.entries.size();
          for (size_t i = 0; i < leaf.entries.size(); ++i) {
            const Rect& rp = leaf.entries[i].rect;
            if (MinMinDistSquared(rp, q_mbr) >= best_[i]) {
              stats_->leaf_pairs_skipped += nq;
              continue;
            }
            stats_->point_distance_computations += nq;
            for (const Entry& eq : node_q.entries) {
              const double d2 = MinMinDistSquared(rp, eq.rect);
              if (d2 < best_[i]) {
                best_[i] = d2;
                best_entry_[i] = eq;
              }
            }
          }
        } else {
          for (const Entry& eq : node_q.entries) {
            const double key = MinMinDistSquared(leaf_mbr_, eq.rect);
            // Re-test against the worst captured at this pop: later
            // insertions are useless once every point has a closer
            // neighbor.
            if (key <= group_worst_) {
              PushQueue(QueueItem{key, {eq.id, group_ref_.level - 1}});
            }
          }
        }
        phase_ = Phase::kGroupLoop;
        continue;
      }
      case Phase::kGroupEmit: {
        const Node& leaf = reader_.node_p();
        for (size_t i = 0; i < leaf.entries.size(); ++i) {
          Point p_witness, q_witness;
          ClosestPoints(leaf.entries[i].rect, best_entry_[i].rect,
                        &p_witness, &q_witness);
          out_.push_back(PairResult{p_witness, q_witness, leaf.entries[i].id,
                                    best_entry_[i].id, std::sqrt(best_[i])});
        }
        phase_ = Phase::kScanRead;
        continue;
      }
      case Phase::kFinish: {
        FinishPhase();
        return End(Status::OK());
      }
      case Phase::kDone:
        return StepResult::kDone;
    }
  }
}

}  // namespace kcpq
