#include "hs/hs.h"

#include <chrono>
#include <cmath>
#include <utility>

#include "cpq/leaf_kernel.h"
#include "cpq/node_reader.h"
#include "cpq/result_heap.h"
#include "geometry/metrics.h"
#include "hs/hybrid_queue.h"
#include "hs/resumable.h"
#include "obs/kcpq_metrics.h"

namespace kcpq {

const char* HsTraversalName(HsTraversal t) {
  switch (t) {
    case HsTraversal::kBasic:
      return "BAS";
    case HsTraversal::kEven:
      return "EVN";
    case HsTraversal::kSimultaneous:
      return "SML";
  }
  return "?";
}

namespace hs_internal {

class JoinImpl {
 public:
  /// An empty `waker` runs the join inline: reads wait and TryNext never
  /// parks (IncrementalDistanceJoin, HsKClosestPairs, the blocking batch
  /// scheduler). A scheduler's waker makes misses park instead.
  JoinImpl(const RStarTree& tree_p, const RStarTree& tree_q,
           const HsOptions& options, Waker waker)
      : tree_p_(tree_p),
        tree_q_(tree_q),
        options_(options),
        ctx_(options.context),
        queue_(options.queue_distance_threshold, kDefaultPageSize,
               options.tie_policy == HsTiePolicy::kDepthFirst),
        objective_(options.family, Metric::kL2, options.query_rect),
        k_bound_(options.k_bound),
        reader_(tree_p, tree_q, ctx_, std::move(waker)) {
    stats_.quality.bound_is_upper = objective_.BoundIsUpper();
  }

  ~JoinImpl() { reader_.SettleInline(); }

  const CpqStats& stats() const { return stats_; }

  enum class NextOutcome { kEmitted, kExhausted, kParked, kError };

  /// Advances the join to its next pair: kEmitted fills `*out`; kParked
  /// (multiplexed joins only) means the waker was registered and TryNext
  /// must be re-called after it fires (the join resumes at the interrupted
  /// read — the pop, the context poll, and all per-item bookkeeping
  /// happened exactly once); kError fills `*error`.
  NextOutcome TryNext(std::optional<PairResult>* out, Status* error);

  /// Snapshots the per-join I/O tallies (the reader's misses, parks,
  /// speculation and replication outcomes; queue spills) into stats_.
  void CaptureIoStats();

 private:
  using TryOutcome = cpq_internal::NodeReader::Outcome;
  // The "incremental up to K" bound: the K smallest object-pair keys
  // pushed so far, tracked by the same bounded heap the CPQ ResultHeap
  // wraps (cpq/result_heap.h). Queue items with a larger key cannot be
  // among the first K results and are dropped at push time.
  struct KBoundKey {
    double key;
  };

  /// Enqueues `item` unless it is ineligible or cannot be among the
  /// first K; returns whether it was enqueued.
  bool PushItem(QueueItem item);
  /// Range-restriction test for one queue-item side; always true for
  /// unrestricted families.
  bool SideEligible(const ItemSide& s) const {
    if (!objective_.restricted()) return true;
    return s.is_node ? objective_.SubtreeEligible(s.rect)
                     : objective_.rect().Contains(s.rect);
  }
  ItemSide NodeSide(const Entry& entry, int child_level) const;
  ItemSide ObjectSide(const Entry& entry) const;
  /// Queue key of a pair from its two sides' rects (so an expansion can
  /// test a child pair before building its sides).
  double KeyOf(const Rect& a, const Rect& b) const;
  int32_t TieLevelOf(const ItemSide& a, const ItemSide& b) const;

  /// Expansion of a one-sided pair (after the node read): enqueues the
  /// child pairs of `node` against the fixed `other` (`node_first` says
  /// which element of the pair the node is) and speculates on the nearest
  /// ones.
  void PushChildrenOneSide(const Node& node, const ItemSide& other,
                           bool node_first);
  /// Expansion of a node/node pair whose nodes are both read.
  void PushChildrenBoth(const Node& node_a, const Node& node_b);

  /// Reads the two roots (parking on a miss when multiplexed) and seeds
  /// the queue with the root pair.
  TryOutcome TryStart();
  /// Expansion of pending_item_: reads whichever node of the pair is not
  /// in hand yet (parking on a miss when multiplexed), then pushes
  /// children.
  TryOutcome TryExpand();

  /// Latches `cause` and fills the quality certificate: `key` is the
  /// popped (or about-to-pop) queue key bounding everything unemitted.
  void LatchStop(StopCause cause, double key);

  const RStarTree& tree_p_;
  const RStarTree& tree_q_;
  HsOptions options_;
  /// The query's context (see CpqOptions::context); null = no limits, no
  /// accounting.
  QueryContext* ctx_;
  HybridQueue queue_;
  /// Objective policy (family + rect); the join's keys are L2-only in
  /// every family, so the metric is pinned to kL2.
  QueryObjective objective_;
  BoundedKeyHeap<KBoundKey> k_bound_;
  cpq_internal::SweepScratch sweep_scratch_;
  /// Every node read and its tallies (cpq/node_reader.h), plus the
  /// speculative reads for the W nearest children of each expansion
  /// (disabled unless options.prefetch_window > 0; see cpq/prefetch.h).
  /// Empty waker: an inline join (see the constructor).
  cpq_internal::NodeReader reader_;
  CpqStats stats_;
  uint64_t next_seq_ = 0;
  uint64_t results_emitted_ = 0;
  bool started_ = false;
  /// Latched stop cause; once set, TryNext keeps returning kExhausted.
  StopCause stop_ = StopCause::kNone;
  /// TryStart progress: false until the roots are being read (the
  /// pre-trip checks ran).
  bool reading_roots_ = false;
  /// The popped-but-unexpanded item a park interrupted; the reader keeps
  /// whichever of its nodes is already read.
  QueueItem pending_item_;
  bool have_pending_ = false;
};

ItemSide JoinImpl::NodeSide(const Entry& entry, int child_level) const {
  ItemSide side;
  side.is_node = true;
  side.rect = entry.rect;
  side.id = entry.id;
  side.level = child_level;
  return side;
}

ItemSide JoinImpl::ObjectSide(const Entry& entry) const {
  ItemSide side;
  side.is_node = false;
  side.rect = entry.rect;
  side.id = entry.id;
  side.level = -1;
  return side;
}

double JoinImpl::KeyOf(const Rect& a, const Rect& b) const {
  // MINMINDIST degenerates to point-rect MINDIST and point-point distance
  // for degenerate rects, so one formula covers all four item kinds; the
  // same holds for MAXMAXDIST, whose negation is the kFarthest key
  // (ascending pop order then emits pairs farthest-first).
  return objective_.minimizing() ? MinMinDistSquared(a, b)
                                 : -MaxMaxDistSquared(a, b);
}

int32_t JoinImpl::TieLevelOf(const ItemSide& a, const ItemSide& b) const {
  return a.level + b.level;  // objects contribute -1: deepest
}

bool JoinImpl::PushItem(QueueItem item) {
  // Range-restricted joins drop ineligible items at the push choke point:
  // a node side whose subtree is strictly outside the rect, or an object
  // side not contained in it, can never yield a qualifying pair — and a
  // skipped subtree is never expanded, so the saving compounds.
  if (!SideEligible(item.a) || !SideEligible(item.b)) return false;
  if (item.key > k_bound_.Bound()) return false;  // cannot be in the first K
  if (!item.a.is_node && !item.b.is_node) k_bound_.Offer({item.key});
  item.seq = next_seq_++;
  queue_.Push(item);
  ++stats_.items_pushed;
  stats_.max_heap_size =
      std::max<uint64_t>(stats_.max_heap_size, queue_.size());
  return true;
}

void JoinImpl::LatchStop(StopCause cause, double key) {
  stop_ = cause;
  stats_.quality.stop_cause = cause;
  stats_.quality.pairs_found = results_emitted_;
  // `key` is the popped (or about-to-pop) queue key: under kFarthest it is
  // a negated squared distance and the certificate is an *upper* bound on
  // everything unemitted (bound_is_upper, set at construction).
  stats_.quality.guaranteed_lower_bound = objective_.KeyToDistance(key);
  stats_.quality.is_exact = false;
  reader_.SettleInline();
  CaptureIoStats();
}

void JoinImpl::CaptureIoStats() {
  reader_.CopyTallies(&stats_);
  stats_.queue_spill_reads = queue_.spill_reads();
  stats_.queue_spill_writes = queue_.spill_writes();
}

void JoinImpl::PushChildrenOneSide(const Node& node, const ItemSide& other,
                                     bool node_first) {
  // Speculate on the node pages of the W nearest children: the queue pops
  // in ascending key order, so the children pushed with the smallest keys
  // are the likeliest next expansions. Children PushItem drops — ruled out
  // by the k_bound or, under a query rect, ineligible — are never
  // speculated on.
  cpq_internal::PrefetchScheduler& prefetch = reader_.prefetch();
  const bool speculate = prefetch.enabled() && !node.IsLeaf();
  if (speculate) prefetch.Clear();
  for (const Entry& entry : node.entries) {
    // Key first: a child pair the k_bound rules out is dropped before its
    // sides are built (PushItem would drop it anyway).
    const double key = node_first ? KeyOf(entry.rect, other.rect)
                                  : KeyOf(other.rect, entry.rect);
    if (key > k_bound_.Bound()) continue;
    const ItemSide child = node.IsLeaf() ? ObjectSide(entry)
                                         : NodeSide(entry, node.level - 1);
    QueueItem item;
    item.a = node_first ? child : other;
    item.b = node_first ? other : child;
    item.key = key;
    item.tie_level = TieLevelOf(item.a, item.b);
    if (PushItem(item) && speculate) {
      prefetch.Add(key, node_first ? entry.id : kInvalidPageId,
                   node_first ? kInvalidPageId : entry.id);
    }
  }
  if (speculate) prefetch.Issue();
}

void JoinImpl::PushChildrenBoth(const Node& node_a, const Node& node_b) {
  // Leaf/leaf expansions produce only object pairs — nothing to read ahead.
  cpq_internal::PrefetchScheduler& prefetch = reader_.prefetch();
  const bool speculate =
      prefetch.enabled() && !(node_a.IsLeaf() && node_b.IsLeaf());
  if (speculate) prefetch.Clear();
  const auto push_pair = [&](const Entry& ea, const Entry& eb) {
    // Key first, as in PushChildrenOneSide.
    const double key = KeyOf(ea.rect, eb.rect);
    if (key > k_bound_.Bound()) return true;
    QueueItem item;
    item.a = node_a.IsLeaf() ? ObjectSide(ea) : NodeSide(ea, node_a.level - 1);
    item.b = node_b.IsLeaf() ? ObjectSide(eb) : NodeSide(eb, node_b.level - 1);
    item.key = key;
    item.tie_level = TieLevelOf(item.a, item.b);
    if (PushItem(item) && speculate) {
      prefetch.Add(key, item.a.is_node ? item.a.id : kInvalidPageId,
                   item.b.is_node ? item.b.id : kInvalidPageId);
    }
    return true;
  };
  // Node/node pairs and kFarthest's leaf pairs keep the nested loop. The
  // queue breaks equal keys by push sequence and the k_bound is fed in push
  // order, so enumerating them in sweep order could change which pairs are
  // queued and popped, and with them the counters. Leaf/leaf pairs of a
  // minimizing objective sweep: the axis-gap skip lower-bounds a pair's
  // *distance*, which implies a droppable key only for those.
  if (objective_.SweepUsable() && node_a.IsLeaf() && node_b.IsLeaf()) {
    // Object pairs the sweep skips have axis separation alone > the k_bound
    // prune threshold, so their key (>= that separation, squared space)
    // would fail PushItem's `key > Bound()` drop. The bound is re-read each
    // skip test: object pairs pushed earlier in this sweep tighten it. The
    // join's keys are L2-only (KeyOf), hence kL2 here.
    cpq_internal::PlaneSweepPairs(node_a, node_b, Metric::kL2,
                                  /*strict=*/true, &sweep_scratch_,
                                  [&] { return k_bound_.Bound(); },
                                  push_pair);
    return;
  }
  for (const Entry& ea : node_a.entries) {
    for (const Entry& eb : node_b.entries) {
      push_pair(ea, eb);
    }
  }
  if (speculate) prefetch.Issue();
}

JoinImpl::TryOutcome JoinImpl::TryStart() {
  if (!reading_roots_) {
    reader_.ConfigurePrefetch(options_.prefetch_window);
    if (tree_p_.size() == 0 || tree_q_.size() == 0) {
      started_ = true;
      return TryOutcome::kOk;
    }
    // Pre-trip: a pre-expired or pre-cancelled join reads no pages.
    // Nothing was examined, so nothing is certified (bound 0).
    if (ctx_ != nullptr) {
      const StopCause pre = ctx_->Check(0, 0);
      if (pre != StopCause::kNone) {
        LatchStop(pre, objective_.WeakestKey());
        started_ = true;
        return TryOutcome::kOk;
      }
    }
    reading_roots_ = true;
    reader_.NewPair();
  }
  const int level_p = tree_p_.height() - 1;
  const int level_q = tree_q_.height() - 1;
  const TryOutcome r = reader_.ReadPair(tree_p_.root_page(), level_p,
                                        tree_q_.root_page(), level_q);
  if (r == TryOutcome::kParked || r == TryOutcome::kError) return r;
  started_ = true;
  if (r == TryOutcome::kDeadline) {
    // Storage abandoned a retry: the deadline is unmeetable. Same
    // certificate as the pre-trip — no pair was emitted yet.
    LatchStop(StopCause::kDeadline, objective_.WeakestKey());
    return TryOutcome::kOk;
  }
  QueueItem item;
  item.a = ItemSide{true, reader_.node_p().ComputeMbr(), tree_p_.root_page(),
                    level_p};
  item.b = ItemSide{true, reader_.node_q().ComputeMbr(), tree_q_.root_page(),
                    level_q};
  item.key = KeyOf(item.a.rect, item.b.rect);
  item.tie_level = TieLevelOf(item.a, item.b);
  PushItem(item);
  return TryOutcome::kOk;
}

JoinImpl::TryOutcome JoinImpl::TryExpand() {
  const QueueItem& item = pending_item_;
  if (item.a.is_node && item.b.is_node &&
      options_.traversal == HsTraversal::kSimultaneous) {
    const TryOutcome r =
        reader_.ReadPair(item.a.id, item.a.level, item.b.id, item.b.level);
    if (r != TryOutcome::kOk) return r;
    // Both nodes in hand: the expansion's bookkeeping and pushes run
    // exactly once, however many parks interleaved.
    stats_.node_accesses += 2;
    PushChildrenBoth(reader_.node_p(), reader_.node_q());
    return TryOutcome::kOk;
  }

  // One-sided expansion. kBasic gives priority to one of the trees,
  // arbitrarily the first; kEven expands the node at the shallower depth
  // (higher level).
  const bool node_first =
      item.a.is_node &&
      (!item.b.is_node || options_.traversal == HsTraversal::kBasic ||
       item.a.level >= item.b.level);
  const ItemSide& node_side = node_first ? item.a : item.b;
  const TryOutcome r =
      reader_.Read(node_first, node_side.id, node_side.level);
  if (r != TryOutcome::kOk) return r;
  ++stats_.node_accesses;
  PushChildrenOneSide(node_first ? reader_.node_p() : reader_.node_q(),
                      node_first ? item.b : item.a, node_first);
  return TryOutcome::kOk;
}

JoinImpl::NextOutcome JoinImpl::TryNext(std::optional<PairResult>* out,
                                        Status* error) {
  out->reset();
  if (!started_) {
    const TryOutcome r = TryStart();
    if (r == TryOutcome::kParked) return NextOutcome::kParked;
    if (r == TryOutcome::kError) {
      *error = reader_.error();
      return NextOutcome::kError;
    }
  }
  if (stop_ != StopCause::kNone) return NextOutcome::kExhausted;
  if (options_.k_bound > 0 && results_emitted_ >= options_.k_bound) {
    return NextOutcome::kExhausted;
  }
  for (;;) {
    if (!have_pending_) {
      if (queue_.Empty()) {
        reader_.SettleInline();
        CaptureIoStats();
        stats_.quality.pairs_found = results_emitted_;
        return NextOutcome::kExhausted;
      }
      pending_item_ = queue_.PopMin();
      ++stats_.node_pairs_processed;
      if (!pending_item_.a.is_node && !pending_item_.b.is_node) {
        // The next closest pair: no unexpanded item can beat its key.
        // ClosestPoints realizes the key; for point objects it returns the
        // points themselves. No drain here: the join is incremental and
        // staged speculation may still be claimed by the next call.
        PairResult res;
        ClosestPoints(pending_item_.a.rect, pending_item_.b.rect, &res.p,
                      &res.q);
        res.p_id = pending_item_.a.id;
        res.q_id = pending_item_.b.id;
        res.distance = objective_.KeyToDistance(pending_item_.key);
        ++results_emitted_;
        stats_.quality.pairs_found = results_emitted_;
        CaptureIoStats();
        *out = res;
        return NextOutcome::kEmitted;
      }
      // About to spend I/O expanding a node pair: poll the context, once
      // per popped pair (a park resumes at the interrupted read, never
      // re-polling). On a stop the popped key certifies everything not yet
      // emitted: the queue pops in ascending key order, so nothing
      // remaining (or beneath it) can be closer than this item. The memory
      // check covers the queue plus any buffer pages this query was
      // charged for.
      if (ctx_ != nullptr) {
        const StopCause cause = ctx_->Check(
            stats_.node_accesses, queue_.size() * sizeof(QueueItem));
        if (cause != StopCause::kNone) {
          LatchStop(cause, pending_item_.key);
          return NextOutcome::kExhausted;
        }
      }
      have_pending_ = true;
      reader_.NewPair();
    }
    const TryOutcome r = TryExpand();
    if (r == TryOutcome::kParked) return NextOutcome::kParked;
    if (r == TryOutcome::kError) {
      *error = reader_.error();
      return NextOutcome::kError;
    }
    have_pending_ = false;
    if (r == TryOutcome::kDeadline) {
      // Storage abandoned a retry mid-expansion: same certificate as a
      // deadline poll — this item's key bounds everything unemitted.
      LatchStop(StopCause::kDeadline, pending_item_.key);
      return NextOutcome::kExhausted;
    }
  }
}

}  // namespace hs_internal

IncrementalDistanceJoin::IncrementalDistanceJoin(const RStarTree& tree_p,
                                                 const RStarTree& tree_q,
                                                 const HsOptions& options)
    : impl_(std::make_unique<hs_internal::JoinImpl>(tree_p, tree_q, options,
                                                    Waker())) {}

IncrementalDistanceJoin::~IncrementalDistanceJoin() = default;

Result<std::optional<PairResult>> IncrementalDistanceJoin::Next() {
  std::optional<PairResult> out;
  Status error;
  // An inline join never parks.
  if (impl_->TryNext(&out, &error) ==
      hs_internal::JoinImpl::NextOutcome::kError) {
    return error;
  }
  return out;
}

const CpqStats& IncrementalDistanceJoin::stats() const {
  return impl_->stats();
}

namespace {

/// Folds a finished join's stats into the metrics registry. `seconds < 0`
/// means timing was skipped (metrics disabled at entry).
void FoldHsMetrics(const CpqStats& s, double seconds, QueryFamily family) {
#if KCPQ_METRICS
  if (!obs::Enabled()) return;
  const obs::KcpqMetrics& m = obs::KcpqMetrics::Get();
  m.hs_queries_total->Increment();
  m.hs_items_pushed_total->Add(s.items_pushed);
  m.hs_items_popped_total->Add(s.node_pairs_processed);
  m.hs_queue_spill_reads_total->Add(s.queue_spill_reads);
  m.hs_queue_spill_writes_total->Add(s.queue_spill_writes);
  if (seconds >= 0.0) {
    m.hs_query_seconds->Observe(seconds);
    FamilyQuerySeconds(family)->Observe(seconds);
  }
#else
  (void)s;
  (void)seconds;
  (void)family;
#endif
}

}  // namespace

Result<std::vector<PairResult>> HsKClosestPairs(const RStarTree& tree_p,
                                                const RStarTree& tree_q,
                                                size_t k, HsOptions options,
                                                CpqStats* stats) {
  // No waker: the join reads inline and finishes in one Step().
  ResumableHsQuery query(tree_p, tree_q, k, std::move(options), stats,
                         Waker());
  query.Step();
  KCPQ_RETURN_IF_ERROR(query.status());
  return query.TakeResults();
}

ResumableHsQuery::ResumableHsQuery(const RStarTree& tree_p,
                                   const RStarTree& tree_q, size_t k,
                                   HsOptions options, CpqStats* stats,
                                   Waker waker)
    : k_(k), stats_(stats), family_(options.family) {
  options.k_bound = k;
  impl_ = std::make_unique<hs_internal::JoinImpl>(tree_p, tree_q, options,
                                                  std::move(waker));
#if KCPQ_METRICS
  timed_ = obs::Enabled();
#endif
  if (timed_) start_ = std::chrono::steady_clock::now();
  results_.reserve(k);
}

ResumableHsQuery::~ResumableHsQuery() = default;

ResumableTask::StepResult ResumableHsQuery::Step() {
  if (done_) return StepResult::kDone;
  while (results_.size() < k_) {
    std::optional<PairResult> next;
    Status error;
    const auto r = impl_->TryNext(&next, &error);
    if (r == hs_internal::JoinImpl::NextOutcome::kParked) {
      return StepResult::kParked;
    }
    if (r == hs_internal::JoinImpl::NextOutcome::kError) {
      // A failed join still reports its I/O (replication effort is real
      // even when every replica failed), but feeds no metric.
      final_status_ = std::move(error);
      impl_->CaptureIoStats();
      break;
    }
    if (r == hs_internal::JoinImpl::NextOutcome::kEmitted) {
      results_.push_back(*next);
      continue;
    }
    break;  // exhausted (or stopped by the context)
  }
  if (stats_ != nullptr) *stats_ = impl_->stats();
  if (final_status_.ok()) {
    FoldHsMetrics(impl_->stats(),
                  timed_ ? std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start_)
                               .count()
                         : -1.0,
                  family_);
  }
  done_ = true;
  return StepResult::kDone;
}

}  // namespace kcpq
