#include "cpq/resumable.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "geometry/metrics.h"
#include "obs/explain.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace kcpq {

using cpq_internal::ChooseDescend;
using cpq_internal::CpqEngine;
using cpq_internal::DescendChoice;
using cpq_internal::FrontierEntry;
using cpq_internal::FrontierLess;
using cpq_internal::PairLevel;
using ReadOutcome = cpq_internal::NodeReader::Outcome;

ResumableCpqQuery::ResumableCpqQuery(const RStarTree& tree_p,
                                     const RStarTree& tree_q,
                                     CpqOptions options, CpqStats* stats,
                                     Waker waker)
    : ResumableCpqQuery(tree_p, tree_q, options,
                        QueryObjective(options.family, options.metric,
                                       options.query_rect),
                        stats, std::move(waker)) {}

ResumableCpqQuery::ResumableCpqQuery(const RStarTree& tree_p,
                                     const RStarTree& tree_q,
                                     CpqOptions options,
                                     const QueryObjective& objective,
                                     CpqStats* stats, Waker waker)
    : options_(std::move(options)),
      engine_(tree_p, tree_q, options_, objective, stats),
      reader_(tree_p, tree_q, options_.context, std::move(waker)) {
#if KCPQ_METRICS
  // Like the semi-join, an ε-join feeds no per-family latency histogram:
  // its cost scales with its answer, not with a K.
  timed_ = obs::Enabled() && !objective.fixed_bound();
#endif
  if (timed_) start_ = std::chrono::steady_clock::now();
}

ResumableCpqQuery::~ResumableCpqQuery() = default;

ResumableTask::StepResult ResumableCpqQuery::End(Status s) {
  reader_.SettleInline();
  if (s.ok()) {
    Finish();
  } else {
    // A failed query still reports its I/O (replication effort is real
    // even when every replica failed).
    reader_.CopyTallies(engine_.stats_);
  }
  final_status_ = std::move(s);
  phase_ = Phase::kDone;
  return StepResult::kDone;
}

void ResumableCpqQuery::Finish() {
  CpqEngine& e = engine_;
  if (phase_ == Phase::kFinish) {
    reader_.CopyTallies(e.stats_);
    e.stats_->node_accesses = e.node_accesses_;
    e.FinalizeQualityAndTrace();
    results_out_ = std::move(e.results_).Extract();
  }
  const double seconds =
      timed_ ? std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             start_)
                   .count()
             : -1.0;
  cpq_internal::FoldCpqMetrics(*e.stats_, seconds, options_.family);
}

bool ResumableCpqQuery::StartPhase() {
  CpqEngine& e = engine_;
  *e.stats_ = CpqStats{};
  if (options_.k == 0 || e.tree_p_.size() == 0 || e.tree_q_.size() == 0) {
    return false;
  }
  reader_.ConfigurePrefetch(options_.prefetch_window);
  // The root pair, keyed as weakly as any pair can be until its MBRs are
  // read (SeedPhase keys it).
  pending_ = FrontierEntry{};
  pending_.key = e.objective_.WeakestKey();
  pending_.page_p = e.tree_p_.root_page();
  pending_.page_q = e.tree_q_.root_page();
  pending_.max_pairs = SaturatingMul(e.tree_p_.size(), e.tree_q_.size());
  pending_.level_p = static_cast<int16_t>(e.tree_p_.height() - 1);
  pending_.level_q = static_cast<int16_t>(e.tree_q_.height() - 1);
  // The root pair enters the search unconditionally: it is the one pair
  // "considered" that no SweepCandidates call accounts for.
  if (e.profile_ != nullptr) {
    e.profile_->Considered(PairLevel(pending_.level_p, pending_.level_q), 1);
  }
  // Pre-trip check: a pre-cancelled or pre-expired query touches no pages.
  // Nothing was examined, so it certifies nothing (bound 0 at every rank;
  // every pair of P x Q may be missing).
  if (e.ShouldStop(0)) {
    Defer(pending_);
    phase_ = Phase::kFinish;
  } else {
    reader_.NewPair();
    phase_ = Phase::kReadRoots;
  }
  return true;
}

void ResumableCpqQuery::SeedPhase() {
  CpqEngine& e = engine_;
  const Rect mbr_p = reader_.node_p().ComputeMbr();
  const Rect mbr_q = reader_.node_q().ComputeMbr();
  e.tie_context_.root_area_p = mbr_p.Area();
  e.tie_context_.root_area_q = mbr_q.Area();
  e.tie_context_.metric = options_.metric;

  pending_.key = e.objective_.NodeKey(mbr_p, mbr_q);
  if (options_.algorithm == CpqAlgorithm::kHeap) {
    // The root pair is never scored; its row of zeros keeps every heap
    // entry's tie_row valid.
    const double zeros[kMaxTieChain] = {};
    if (e.tie_tail_.width() != 0) pending_.tie_row = e.tie_tail_.Add(zeros);
    heap_.push_back(pending_);
    phase_ = Phase::kHeapLoop;
  } else {
    phase_ = Phase::kExpandCheck;
  }
}

void ResumableCpqQuery::Defer(const FrontierEntry& entry) {
  CpqEngine& e = engine_;
  e.FoldFrontier(entry.key, entry.max_pairs);
  if (e.profile_ != nullptr) {
    e.profile_->Deferred(PairLevel(entry.level_p, entry.level_q), 1);
  }
}

ReadOutcome ResumableCpqQuery::ReadPending() {
  CpqEngine& e = engine_;
  const ReadOutcome r = reader_.ReadPair(pending_.page_p, pending_.level_p,
                                         pending_.page_q, pending_.level_q);
  if (r != ReadOutcome::kOk) return r;
  const Node& node_p = reader_.node_p();
  const Node& node_q = reader_.node_q();
  // Both nodes in hand, their levels checked against the entry: the pair
  // counts exactly once, no matter how many parks interleaved.
  ++e.stats_->node_pairs_processed;
  e.node_accesses_ += 2;
  if (e.profile_ != nullptr) {
    e.profile_->Visited(PairLevel(node_p.level, node_q.level), 1);
  }
  if (e.trace_ != nullptr) {
    obs::TraceEvent ev;
    ev.kind = obs::TraceEventKind::kDescend;
    ev.level_p = static_cast<int16_t>(node_p.level);
    ev.level_q = static_cast<int16_t>(node_q.level);
    ev.bound = e.bound_;
    ev.a = pending_.page_p;
    ev.b = pending_.page_q;
    e.trace_->RecordNow(ev);
  }
  return ReadOutcome::kOk;
}

void ResumableCpqQuery::AdvanceRecursive() {
  CpqEngine& e = engine_;
  while (!rec_stack_.empty()) {
    RecFrame& f = rec_stack_.back();
    if (f.next >= f.entries.size()) {
      e.frame_bytes_ -= f.entries.size() * sizeof(FrontierEntry);
      rec_stack_.pop_back();
      continue;
    }
    const FrontierEntry& entry = f.entries[f.next++];
    // Re-test against T at descend time: T may have tightened while the
    // earlier entries of this very list were processed (the mechanism
    // that makes the ascending-MINMINDIST order pay off).
    if (e.Prunes() && entry.key > e.bound_) {
      ++e.stats_->candidate_pairs_pruned;
      if (e.profile_ != nullptr) {
        e.profile_->PrunedIneq1(PairLevel(entry.level_p, entry.level_q), 1);
      }
      if (e.trace_ != nullptr) {
        e.TracePrune(entry.level_p, entry.level_q, entry.key, e.bound_);
      }
      continue;
    }
    // Once stopped (possibly deeper in the descent), drain: the remaining
    // un-pruned entries become frontier, not work.
    if (e.stop_ != StopCause::kNone) {
      Defer(entry);
      continue;
    }
    pending_ = entry;
    phase_ = Phase::kExpandCheck;
    return;
  }
  phase_ = Phase::kFinish;
}

void ResumableCpqQuery::DrainHeapIntoCertificate() {
  // The popped pair (deferred by the caller) plus everything still queued
  // is the frontier; fold it all so the per-rank certificate sees the full
  // capacity profile (the scalar bound needs only the popped key, but rank
  // bounds improve with every entry). FoldFrontier and the profile's
  // per-level counts are order-insensitive, so the heap is walked in array
  // order, no pops.
  for (const FrontierEntry& c : heap_) Defer(c);
  heap_.clear();
  phase_ = Phase::kFinish;
}

void ResumableCpqQuery::HeapLoopPhase() {
  CpqEngine& e = engine_;
  if (heap_.empty()) {
    phase_ = Phase::kFinish;
    return;
  }
  const FrontierLess less = e.Less();
  e.stats_->max_heap_size =
      std::max<uint64_t>(e.stats_->max_heap_size, heap_.size());
  cpq_internal::PrefetchScheduler& prefetch = reader_.prefetch();
  if (prefetch.enabled()) {
    // Speculate on the frontier's best W pairs, including heap_[0], the
    // pair read next, so even a child pushed by the previous expansion has
    // its reads in flight before they are demanded. The W smallest entries
    // of a binary heap all live in its first 2^W - 1 slots, so a bounded
    // prefix scan finds the exact top-W for W <= 9 and a close
    // approximation above. Selection uses the pop order itself
    // (FrontierLess: key plus tie chain); with overlapping data most
    // frontier keys tie at 0, and any other tie-break would speculate on
    // pairs the heap does not pop next. The rank is the scheduler key, so
    // pages of the nearest pops are submitted, and complete, first.
    prefetch.Clear();
    const size_t scan = std::min<size_t>(heap_.size(), 512);
    spec_order_.clear();
    for (uint32_t i = 0; i < scan; ++i) {
      if (heap_[i].key > e.bound_) continue;  // would be CP5-cut
      spec_order_.push_back(i);
    }
    const size_t take = std::min(spec_order_.size(), prefetch.window());
    std::partial_sort(spec_order_.begin(),
                      spec_order_.begin() + static_cast<ptrdiff_t>(take),
                      spec_order_.end(), [this, &less](uint32_t a, uint32_t b) {
                        return less(heap_[a], heap_[b]);
                      });
    for (size_t r = 0; r < take; ++r) {
      const FrontierEntry& c = heap_[spec_order_[r]];
      prefetch.Add(static_cast<double>(r), c.page_p, c.page_q);
    }
    prefetch.Issue();
  }
  const FrontierEntry top = heap_.front();
  std::pop_heap(heap_.begin(), heap_.end(),
                [&less](const FrontierEntry& a, const FrontierEntry& b) {
                  return less(b, a);
                });
  heap_.pop_back();
  // Nothing compares the popped entry again.
  e.tie_tail_.Release(top.tie_row);
  if (e.trace_ != nullptr) {
    obs::TraceEvent ev;
    ev.kind = obs::TraceEventKind::kHeapPop;
    ev.level_p = top.level_p;
    ev.level_q = top.level_q;
    ev.value = top.key;
    ev.bound = e.bound_;
    e.trace_->RecordNow(ev);
  }
  if (top.key > e.bound_) {
    // CP5: the popped pair and everything still queued are cut off.
    if (e.profile_ != nullptr) {
      e.profile_->PrunedOrder(PairLevel(top.level_p, top.level_q), 1);
      for (const FrontierEntry& c : heap_) {
        e.profile_->PrunedOrder(PairLevel(c.level_p, c.level_q), 1);
      }
    }
    phase_ = Phase::kFinish;
    return;
  }
  if (e.ShouldStop(heap_.size() * sizeof(FrontierEntry))) {
    Defer(top);
    DrainHeapIntoCertificate();
    return;
  }
  // The pop committed before any read: a park during the reads resumes at
  // kHeapRead and can never re-pop (or re-poll) this pair.
  pending_ = top;
  reader_.NewPair();
  phase_ = Phase::kHeapRead;
}

void ResumableCpqQuery::ExpandIntoFrame(DescendChoice choice) {
  CpqEngine& e = engine_;
  rec_stack_.emplace_back();
  RecFrame& f = rec_stack_.back();
  e.Expand(pending_.page_p, reader_.node_p(), pending_.page_q,
           reader_.node_q(), choice, &f.entries);
  e.frame_bytes_ += f.entries.size() * sizeof(FrontierEntry);
  if (options_.algorithm == CpqAlgorithm::kSortedDistances) {
    std::sort(f.entries.begin(), f.entries.end(), e.Less());
    // The sort was the frame's one comparison: its tie rows are done.
    e.tie_tail_.Clear();
  }
  cpq_internal::PrefetchScheduler& prefetch = reader_.prefetch();
  if (!prefetch.enabled() || f.entries.empty()) return;
  // Speculate on the first W surviving entries: for STD the exact descend
  // order, for the unsorted algorithms generation order, which is still
  // this frame's processing order.
  prefetch.Clear();
  size_t added = 0;
  for (const FrontierEntry& entry : f.entries) {
    if (added >= prefetch.window()) break;
    if (e.Prunes() && entry.key > e.bound_) continue;
    prefetch.Add(entry.key, entry.page_p, entry.page_q);
    ++added;
  }
  prefetch.Issue();
}

ResumableTask::StepResult ResumableCpqQuery::Step() {
  for (;;) {
    switch (phase_) {
      case Phase::kStart: {
        // A trivial query (K = 0 or an empty tree) ends with zeroed stats.
        if (!StartPhase()) return End(Status::OK());
        continue;
      }
      case Phase::kReadRoots: {
        // The roots' MBRs seed the search; the root pair is read (and
        // counted) again when it is expanded.
        const ReadOutcome r =
            reader_.ReadPair(pending_.page_p, pending_.level_p,
                             pending_.page_q, pending_.level_q);
        if (r == ReadOutcome::kParked) return StepResult::kParked;
        if (r == ReadOutcome::kError) return End(reader_.error());
        if (r == ReadOutcome::kDeadline) {
          // Storage abandoned a retry before anything was examined: partial
          // with a vacuous certificate, same as a pre-expired deadline.
          engine_.stop_ = StopCause::kDeadline;
          Defer(pending_);
          phase_ = Phase::kFinish;
          continue;
        }
        SeedPhase();
        continue;
      }
      case Phase::kExpandCheck: {
        // Stop check at node-pair granularity, *before* the reads: a
        // stopped query folds this unexpanded pair into the frontier bound
        // instead.
        if (engine_.ShouldStop(0)) {
          Defer(pending_);
          AdvanceRecursive();
          continue;
        }
        reader_.NewPair();
        phase_ = Phase::kExpandRead;
        continue;
      }
      case Phase::kHeapLoop: {
        HeapLoopPhase();
        continue;
      }
      case Phase::kExpandRead:
      case Phase::kHeapRead: {
        CpqEngine& e = engine_;
        const bool heap = phase_ == Phase::kHeapRead;
        const ReadOutcome r = ReadPending();
        if (r == ReadOutcome::kParked) return StepResult::kParked;
        if (r == ReadOutcome::kError) return End(reader_.error());
        if (r == ReadOutcome::kDeadline) {
          // Storage abandoned a retry the deadline could not cover. The
          // pair stays unexpanded: fold its entry.
          e.stop_ = StopCause::kDeadline;
          Defer(pending_);
          if (heap) {
            DrainHeapIntoCertificate();
          } else {
            AdvanceRecursive();
          }
          continue;
        }
        const Node& node_p = reader_.node_p();
        const Node& node_q = reader_.node_q();
        const DescendChoice choice = ChooseDescend(
            node_p.level, node_q.level, options_.height_strategy);
        if (choice == DescendChoice::kLeaves) {
          const Status s = e.ProcessLeaves(node_p, node_q,
                                           pending_.page_p == pending_.page_q);
          if (!s.ok()) return End(s);
        } else if (heap) {
          e.Expand(pending_.page_p, node_p, pending_.page_q, node_q, choice,
                   &heap_);
        } else {
          ExpandIntoFrame(choice);
        }
        if (heap) {
          phase_ = Phase::kHeapLoop;
        } else {
          AdvanceRecursive();
        }
        continue;
      }
      case Phase::kFinish:
        return End(Status::OK());
      case Phase::kDone:
        return StepResult::kDone;
    }
  }
}

}  // namespace kcpq
