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

namespace {

uint64_t ElapsedNs(std::chrono::steady_clock::time_point from,
                   std::chrono::steady_clock::time_point to) {
  const auto d =
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count();
  return d > 0 ? static_cast<uint64_t>(d) : 0;
}

}  // namespace

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
      waker_(std::move(waker)) {
#if KCPQ_METRICS
  // Like the semi-join, an ε-join feeds no per-family latency histogram:
  // its cost scales with its answer, not with a K.
  timed_ = obs::Enabled() && !objective.fixed_bound();
#endif
  if (timed_) start_ = std::chrono::steady_clock::now();
}

ResumableCpqQuery::~ResumableCpqQuery() = default;

ResumableTask::StepResult ResumableCpqQuery::Park(PageId page) {
  ++engine_.stats_->io_parks;
  park_pending_ = true;
  park_page_ = page;
  park_start_ = std::chrono::steady_clock::now();
  park_trace_ts_ = engine_.trace_ != nullptr ? engine_.trace_->NowNs() : 0;
  return StepResult::kParked;
}

ResumableTask::StepResult ResumableCpqQuery::Fail(Status s) {
  SettleInlineSpeculation();
  final_status_ = std::move(s);
  phase_ = Phase::kDone;
  return StepResult::kDone;
}

void ResumableCpqQuery::SettleInlineSpeculation() {
  CpqEngine& e = engine_;
  if (waker_ || !e.prefetch_.enabled()) return;
  e.tree_p_.buffer()->DrainPrefetches();
  if (e.tree_q_.buffer() != e.tree_p_.buffer()) {
    e.tree_q_.buffer()->DrainPrefetches();
  }
}

ResumableTask::StepResult ResumableCpqQuery::Finish() {
  CpqEngine& e = engine_;
  SettleInlineSpeculation();
  if (phase_ == Phase::kFinish) {
    e.stats_->disk_accesses_p = misses_p_;
    e.stats_->disk_accesses_q = misses_q_;
    e.stats_->node_accesses = e.node_accesses_;
    e.stats_->prefetch_issued = prefetch_issued_;
    e.stats_->prefetch_hits = prefetch_hits_;
    e.FinalizeQualityAndTrace();
    results_out_ = std::move(e.results_).Extract();
  }
  const double seconds =
      timed_ ? std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             start_)
                   .count()
             : -1.0;
  cpq_internal::FoldCpqMetrics(*e.stats_, seconds, options_.family);
  final_status_ = Status::OK();
  phase_ = Phase::kDone;
  return StepResult::kDone;
}

void ResumableCpqQuery::CountRead(const BufferManager::TryReadOutcome& outcome,
                                  bool is_p) {
  if (outcome.hit) return;
  if (engine_.tree_p_.buffer() == engine_.tree_q_.buffer()) {
    // One buffer serves both trees (self-join): each per-tree counter
    // covers that whole buffer, so a miss lands in both.
    ++misses_p_;
    ++misses_q_;
  } else if (is_p) {
    ++misses_p_;
  } else {
    ++misses_q_;
  }
  if (outcome.prefetch_claim) ++prefetch_hits_;
}

bool ResumableCpqQuery::StartPhase() {
  CpqEngine& e = engine_;
  *e.stats_ = CpqStats{};
  if (options_.k == 0 || e.tree_p_.size() == 0 || e.tree_q_.size() == 0) {
    return false;
  }
  e.prefetch_.Configure(e.tree_p_.buffer(), e.tree_q_.buffer(),
                        options_.prefetch_window, e.context_);
  root_level_ = PairLevel(e.tree_p_.height() - 1, e.tree_q_.height() - 1);
  // The root pair enters the search unconditionally: it is the one pair
  // "considered" that no GenerateCandidates call accounts for.
  if (e.profile_ != nullptr) e.profile_->Considered(root_level_, 1);
  // Pre-trip check: a pre-cancelled or pre-expired query touches no pages.
  // Nothing was examined, so it certifies nothing (bound 0 at every rank;
  // every pair of P x Q may be missing).
  if (e.ShouldStop(0)) {
    e.FoldFrontier(e.objective_.WeakestKey(),
                   SaturatingMul(e.tree_p_.size(), e.tree_q_.size()));
    if (e.profile_ != nullptr) e.profile_->Deferred(root_level_, 1);
    phase_ = Phase::kFinish;
  } else {
    phase_ = Phase::kReadRootP;
  }
  return true;
}

bool ResumableCpqQuery::ReadRoot(bool is_p, StepResult* parked) {
  CpqEngine& e = engine_;
  const RStarTree& tree = is_p ? e.tree_p_ : e.tree_q_;
  BufferManager::TryReadOutcome outcome;
  const Status s = tree.TryReadNode(tree.root_page(), &node_p_, e.context_,
                                    waker_, &outcome);
  if (outcome.parked) {
    *parked = Park(tree.root_page());
    return false;
  }
  if (s.code() == StatusCode::kDeadlineExceeded) {
    // Storage abandoned a retry before anything was examined: partial with
    // a vacuous certificate, same as a pre-expired deadline.
    e.stop_ = StopCause::kDeadline;
    e.FoldFrontier(e.objective_.WeakestKey(),
                   SaturatingMul(e.tree_p_.size(), e.tree_q_.size()));
    if (e.profile_ != nullptr) e.profile_->Deferred(root_level_, 1);
    phase_ = Phase::kFinish;
    return true;
  }
  if (!s.ok()) {
    *parked = Fail(s);
    return false;
  }
  CountRead(outcome, is_p);
  (is_p ? mbr_p_ : mbr_q_) = node_p_.ComputeMbr();
  phase_ = is_p ? Phase::kReadRootQ : Phase::kSeed;
  return true;
}

void ResumableCpqQuery::SeedPhase() {
  CpqEngine& e = engine_;
  e.tie_context_.root_area_p = mbr_p_.Area();
  e.tie_context_.root_area_q = mbr_q_.Area();
  e.tie_context_.metric = options_.metric;

  FrontierEntry first;
  first.key = e.objective_.NodeKey(mbr_p_, mbr_q_);
  first.page_p = e.tree_p_.root_page();
  first.page_q = e.tree_q_.root_page();
  first.max_pairs = SaturatingMul(e.tree_p_.size(), e.tree_q_.size());
  first.level_p = static_cast<int16_t>(e.tree_p_.height() - 1);
  first.level_q = static_cast<int16_t>(e.tree_q_.height() - 1);
  if (options_.algorithm == CpqAlgorithm::kHeap) {
    // The root pair is never scored; its row of zeros keeps every heap
    // entry's tie_row valid.
    const double zeros[kMaxTieChain] = {};
    if (e.tie_tail_.width() != 0) first.tie_row = e.tie_tail_.Add(zeros);
    heap_.push_back(first);
    phase_ = Phase::kHeapLoop;
  } else {
    pending_ = first;
    phase_ = Phase::kExpandCheck;
  }
}

ResumableCpqQuery::ReadPairOutcome ResumableCpqQuery::TryReadPair(
    Status* error) {
  CpqEngine& e = engine_;
  if (!have_p_) {
    BufferManager::TryReadOutcome outcome;
    const Status s =
        e.tree_p_.TryReadNode(pending_.page_p, &node_p_, e.context_, waker_,
                              &outcome);
    if (outcome.parked) {
      park_page_ = pending_.page_p;
      return ReadPairOutcome::kParked;
    }
    if (s.code() == StatusCode::kDeadlineExceeded) {
      return ReadPairOutcome::kDeadline;
    }
    if (!s.ok()) {
      *error = s;
      return ReadPairOutcome::kError;
    }
    CountRead(outcome, /*is_p=*/true);
    *error = CheckNodeLevel(node_p_, pending_.level_p, pending_.page_p);
    if (!error->ok()) return ReadPairOutcome::kError;
    have_p_ = true;
  }
  if (!have_q_) {
    BufferManager::TryReadOutcome outcome;
    const Status s =
        e.tree_q_.TryReadNode(pending_.page_q, &node_q_, e.context_, waker_,
                              &outcome);
    if (outcome.parked) {
      park_page_ = pending_.page_q;
      return ReadPairOutcome::kParked;
    }
    if (s.code() == StatusCode::kDeadlineExceeded) {
      return ReadPairOutcome::kDeadline;
    }
    if (!s.ok()) {
      *error = s;
      return ReadPairOutcome::kError;
    }
    CountRead(outcome, /*is_p=*/false);
    *error = CheckNodeLevel(node_q_, pending_.level_q, pending_.page_q);
    if (!error->ok()) return ReadPairOutcome::kError;
    have_q_ = true;
  }
  // Both nodes in hand, their levels checked against the entry: the pair
  // counts exactly once, no matter how many parks interleaved.
  ++e.stats_->node_pairs_processed;
  e.node_accesses_ += 2;
  if (e.profile_ != nullptr) {
    e.profile_->Visited(PairLevel(node_p_.level, node_q_.level), 1);
  }
  if (e.trace_ != nullptr) {
    obs::TraceEvent ev;
    ev.kind = obs::TraceEventKind::kDescend;
    ev.level_p = static_cast<int16_t>(node_p_.level);
    ev.level_q = static_cast<int16_t>(node_q_.level);
    ev.bound = e.bound_;
    ev.a = pending_.page_p;
    ev.b = pending_.page_q;
    e.trace_->RecordNow(ev);
  }
  return ReadPairOutcome::kOk;
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
        obs::TraceEvent ev;
        ev.kind = obs::TraceEventKind::kPrune;
        ev.level_p = entry.level_p;
        ev.level_q = entry.level_q;
        ev.value = entry.key;
        ev.bound = e.bound_;
        e.trace_->RecordNow(ev);
      }
      continue;
    }
    // Once stopped (possibly deeper in the descent), drain: the remaining
    // un-pruned entries become frontier, not work.
    if (e.stop_ != StopCause::kNone) {
      e.FoldFrontier(entry.key, entry.max_pairs);
      if (e.profile_ != nullptr) {
        e.profile_->Deferred(PairLevel(entry.level_p, entry.level_q), 1);
      }
      continue;
    }
    pending_ = entry;
    phase_ = Phase::kExpandCheck;
    return;
  }
  phase_ = Phase::kFinish;
}

void ResumableCpqQuery::DrainHeapIntoCertificate(
    const FrontierEntry& popped) {
  // The popped pair plus everything still queued is the frontier; fold it
  // all so the per-rank certificate sees the full capacity profile (the
  // scalar bound needs only the popped key, but rank bounds improve with
  // every entry). FoldFrontier and the profile's per-level counts are
  // order-insensitive, so the heap is walked in array order, no pops.
  CpqEngine& e = engine_;
  e.FoldFrontier(popped.key, popped.max_pairs);
  if (e.profile_ != nullptr) {
    e.profile_->Deferred(PairLevel(popped.level_p, popped.level_q), 1);
  }
  for (const FrontierEntry& c : heap_) {
    e.FoldFrontier(c.key, c.max_pairs);
    if (e.profile_ != nullptr) {
      e.profile_->Deferred(PairLevel(c.level_p, c.level_q), 1);
    }
  }
  heap_.clear();
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
  if (e.prefetch_.enabled()) {
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
    e.prefetch_.Clear();
    const size_t scan = std::min<size_t>(heap_.size(), 512);
    spec_order_.clear();
    for (uint32_t i = 0; i < scan; ++i) {
      if (heap_[i].key > e.bound_) continue;  // would be CP5-cut
      spec_order_.push_back(i);
    }
    const size_t take = std::min(spec_order_.size(), e.prefetch_.window());
    std::partial_sort(spec_order_.begin(),
                      spec_order_.begin() + static_cast<ptrdiff_t>(take),
                      spec_order_.end(), [this, &less](uint32_t a, uint32_t b) {
                        return less(heap_[a], heap_[b]);
                      });
    for (size_t r = 0; r < take; ++r) {
      const FrontierEntry& c = heap_[spec_order_[r]];
      e.prefetch_.Add(static_cast<double>(r), c.page_p, c.page_q);
    }
    prefetch_issued_ += e.prefetch_.Issue();
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
    DrainHeapIntoCertificate(top);
    phase_ = Phase::kFinish;
    return;
  }
  // The pop committed before any read: a park during the reads resumes at
  // kHeapRead and can never re-pop (or re-poll) this pair.
  pending_ = top;
  have_p_ = have_q_ = false;
  phase_ = Phase::kHeapRead;
}

ResumableTask::StepResult ResumableCpqQuery::Step() {
  if (park_pending_) {
    park_pending_ = false;
    const uint64_t dur =
        ElapsedNs(park_start_, std::chrono::steady_clock::now());
    engine_.stats_->io_parked_ns += dur;
    if (engine_.trace_ != nullptr) {
      obs::TraceEvent ev;
      ev.kind = obs::TraceEventKind::kIoPark;
      ev.ts_ns = park_trace_ts_;
      ev.dur_ns = dur > 0 ? dur : 1;
      ev.a = park_page_;
      engine_.trace_->Record(ev);
    }
  }

  for (;;) {
    switch (phase_) {
      case Phase::kStart: {
        // A trivial query (K = 0 or an empty tree) ends with zeroed stats.
        if (!StartPhase()) return Finish();
        continue;
      }
      case Phase::kReadRootP: {
        StepResult r = StepResult::kDone;
        if (!ReadRoot(/*is_p=*/true, &r)) return r;
        continue;
      }
      case Phase::kReadRootQ: {
        StepResult r = StepResult::kDone;
        if (!ReadRoot(/*is_p=*/false, &r)) return r;
        continue;
      }
      case Phase::kSeed: {
        SeedPhase();
        continue;
      }
      case Phase::kExpandCheck: {
        // Stop check at node-pair granularity, *before* the reads: a
        // stopped query folds this unexpanded pair into the frontier bound
        // instead.
        CpqEngine& e = engine_;
        if (e.ShouldStop(0)) {
          e.FoldFrontier(pending_.key, pending_.max_pairs);
          if (e.profile_ != nullptr) {
            e.profile_->Deferred(
                PairLevel(pending_.level_p, pending_.level_q), 1);
          }
          AdvanceRecursive();
          continue;
        }
        have_p_ = have_q_ = false;
        phase_ = Phase::kExpandRead;
        continue;
      }
      case Phase::kExpandRead: {
        CpqEngine& e = engine_;
        Status err;
        const ReadPairOutcome r = TryReadPair(&err);
        if (r == ReadPairOutcome::kParked) return Park(park_page_);
        if (r == ReadPairOutcome::kError) return Fail(err);
        if (r == ReadPairOutcome::kDeadline) {
          // Storage abandoned a retry the deadline could not cover. The
          // pair stays unexpanded: fold its entry.
          e.stop_ = StopCause::kDeadline;
          e.FoldFrontier(pending_.key, pending_.max_pairs);
          if (e.profile_ != nullptr) {
            e.profile_->Deferred(
                PairLevel(pending_.level_p, pending_.level_q), 1);
          }
          AdvanceRecursive();
          continue;
        }
        const DescendChoice choice = ChooseDescend(
            node_p_.level, node_q_.level, options_.height_strategy);
        if (choice == DescendChoice::kLeaves) {
          const Status s =
              e.ProcessLeaves(node_p_, node_q_,
                              pending_.page_p == pending_.page_q);
          if (!s.ok()) return Fail(s);
          AdvanceRecursive();
          continue;
        }
        rec_stack_.emplace_back();
        RecFrame& f = rec_stack_.back();
        e.Expand(pending_.page_p, node_p_, pending_.page_q, node_q_, choice,
                 &f.entries);
        e.frame_bytes_ += f.entries.size() * sizeof(FrontierEntry);
        if (options_.algorithm == CpqAlgorithm::kSortedDistances) {
          std::sort(f.entries.begin(), f.entries.end(), e.Less());
          // The sort was the frame's one comparison: its tie rows are done.
          e.tie_tail_.Clear();
        }
        if (e.prefetch_.enabled() && !f.entries.empty()) {
          // Speculate on the first W surviving entries: for STD the exact
          // descend order, for the unsorted algorithms generation order,
          // which is still this frame's processing order.
          e.prefetch_.Clear();
          size_t added = 0;
          for (const FrontierEntry& entry : f.entries) {
            if (added >= e.prefetch_.window()) break;
            if (e.Prunes() && entry.key > e.bound_) continue;
            e.prefetch_.Add(entry.key, entry.page_p, entry.page_q);
            ++added;
          }
          prefetch_issued_ += e.prefetch_.Issue();
        }
        AdvanceRecursive();
        continue;
      }
      case Phase::kHeapLoop: {
        HeapLoopPhase();
        continue;
      }
      case Phase::kHeapRead: {
        CpqEngine& e = engine_;
        Status err;
        const ReadPairOutcome r = TryReadPair(&err);
        if (r == ReadPairOutcome::kParked) return Park(park_page_);
        if (r == ReadPairOutcome::kError) return Fail(err);
        if (r == ReadPairOutcome::kDeadline) {
          e.stop_ = StopCause::kDeadline;
          DrainHeapIntoCertificate(pending_);
          phase_ = Phase::kFinish;
          continue;
        }
        const DescendChoice choice = ChooseDescend(
            node_p_.level, node_q_.level, options_.height_strategy);
        if (choice == DescendChoice::kLeaves) {
          const Status s =
              e.ProcessLeaves(node_p_, node_q_,
                              pending_.page_p == pending_.page_q);
          if (!s.ok()) return Fail(s);
          phase_ = Phase::kHeapLoop;
          continue;
        }
        e.Expand(pending_.page_p, node_p_, pending_.page_q, node_q_, choice,
                 &heap_);
        phase_ = Phase::kHeapLoop;
        continue;
      }
      case Phase::kFinish:
        return Finish();
      case Phase::kDone:
        return StepResult::kDone;
    }
  }
}

}  // namespace kcpq
