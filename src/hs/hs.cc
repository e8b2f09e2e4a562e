#include "hs/hs.h"

#include <chrono>
#include <cmath>
#include <utility>

#include "cpq/leaf_kernel.h"
#include "cpq/prefetch.h"
#include "cpq/result_heap.h"
#include "geometry/metrics.h"
#include "hs/hybrid_queue.h"
#include "hs/resumable.h"
#include "obs/kcpq_metrics.h"
#include "obs/trace.h"

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
        local_ctx_(options.control),
        ctx_(options.context != nullptr ? options.context : &local_ctx_),
        accounting_(options.context != nullptr ||
                    !options.control.IsUnlimited()),
        queue_(options.queue_distance_threshold, options.queue_page_size,
               options.tie_policy == HsTiePolicy::kDepthFirst),
        objective_(options.family, Metric::kL2, options.query_rect),
        k_bound_(options.k_bound),
        waker_(std::move(waker)) {
    stats_.quality.bound_is_upper = objective_.BoundIsUpper();
  }

  ~JoinImpl() { DrainSpeculation(); }

  const HsStats& stats() const { return stats_; }

  enum class NextOutcome { kEmitted, kExhausted, kParked, kError };

  /// Advances the join to its next pair: kEmitted fills `*out`; kParked
  /// (multiplexed joins only) means the waker was registered and TryNext
  /// must be re-called after it fires (the join resumes at the interrupted
  /// read — the pop, the context poll, and all per-item bookkeeping
  /// happened exactly once); kError fills `*error`.
  NextOutcome TryNext(std::optional<PairResult>* out, Status* error);

 private:
  enum class TryOutcome { kOk, kParked, kDeadline, kError };
  // The "incremental up to K" bound: the K smallest object-pair keys
  // pushed so far, tracked by the same bounded heap the CPQ ResultHeap
  // wraps (cpq/result_heap.h). Queue items with a larger key cannot be
  // among the first K results and are dropped at push time.
  struct KBoundKey {
    double key;
  };

  void PushItem(QueueItem item);
  /// Range-restriction test for one queue-item side; always true for
  /// unrestricted families.
  bool SideEligible(const ItemSide& s) const {
    if (!objective_.restricted()) return true;
    return s.is_node ? objective_.SubtreeEligible(s.rect)
                     : objective_.rect().Contains(s.rect);
  }
  ItemSide NodeSide(const Entry& entry, int child_level) const;
  ItemSide ObjectSide(const Entry& entry) const;
  double KeyOf(const ItemSide& a, const ItemSide& b) const;
  int32_t TieLevelOf(const ItemSide& a, const ItemSide& b) const;

  /// Expansion of a one-sided pair (after the node read): enqueues the
  /// child pairs of `node` against the fixed `other` (`node_first` says
  /// which element of the pair the node is) and speculates on the nearest
  /// ones. Returns the number of speculative reads issued.
  size_t PushChildrenOneSide(const Node& node, const ItemSide& other,
                             bool node_first);
  /// Expansion of a node/node pair whose nodes are both read.
  size_t PushChildrenBoth(const Node& node_a, const Node& node_b);

  /// Reads the two roots (parking on a miss when multiplexed) and seeds
  /// the queue with the root pair.
  TryOutcome TryStart(Status* error);
  /// Expansion of pending_item_: reads whichever node of the pair is not
  /// in hand yet (parking on a miss when multiplexed), then pushes
  /// children.
  TryOutcome TryExpand(Status* error);

  /// Tallies one served read (see ResumableCpqQuery: a self-join's shared
  /// buffer counts each miss on both sides).
  void CountRead(const BufferManager::TryReadOutcome& outcome, bool is_p);
  void NotePark(PageId page);
  void NoteResumed();

  /// Latches `cause` and fills the quality certificate: `key` is the
  /// popped (or about-to-pop) queue key bounding everything unemitted.
  void LatchStop(StopCause cause, double key);

  /// Snapshots the per-join I/O tallies (buffer misses, queue spills,
  /// speculation) into stats_.
  void CaptureIoStats();

  /// An inline join discards staged-but-unclaimed speculative pages so the
  /// accounting identity (issued == hits + wasted) holds when it ends.
  /// No-op unless prefetch is enabled, and for multiplexed joins: they
  /// share the buffers with the scheduler's other queries, and the batch
  /// executor settles speculation once after the whole run.
  void DrainSpeculation();

  const RStarTree& tree_p_;
  const RStarTree& tree_q_;
  HsOptions options_;
  /// Context-wins (see CpqOptions::context): an external context supersedes
  /// options_.control; local_ctx_ adapts plain-control queries.
  QueryContext local_ctx_;
  QueryContext* ctx_;
  bool accounting_;
  HybridQueue queue_;
  /// Objective policy (family + rect); the join's keys are L2-only in
  /// every family, so the metric is pinned to kL2.
  QueryObjective objective_;
  BoundedKeyHeap<KBoundKey> k_bound_;
  cpq_internal::SweepScratch<Entry> sweep_scratch_;
  /// Speculative reads for the W nearest children of each expansion
  /// (disabled unless options.prefetch_window > 0; see cpq/prefetch.h).
  cpq_internal::PrefetchScheduler prefetch_;
  HsStats stats_;
  uint64_t next_seq_ = 0;
  uint64_t results_emitted_ = 0;
  bool started_ = false;
  /// Latched stop cause; once set, TryNext keeps returning kExhausted.
  StopCause stop_ = StopCause::kNone;
  /// Empty for an inline join (see the constructor).
  Waker waker_;
  /// TryStart progress: 0 = not begun, 1 = reading root P, 2 = reading
  /// root Q, 3 = seeded.
  int root_stage_ = 0;
  Rect root_mbr_p_;
  /// The popped-but-unexpanded item a park interrupted, plus whichever of
  /// its nodes is already resident (node_a_ doubles as the one-sided /
  /// root-read scratch).
  QueueItem pending_item_;
  bool have_pending_ = false;
  Node node_a_, node_b_;
  bool have_a_ = false, have_b_ = false;
  /// Per-query I/O tallies from read outcomes (thread-local buffer deltas
  /// are meaningless when many queries multiplex one worker).
  uint64_t misses_p_ = 0;
  uint64_t misses_q_ = 0;
  uint64_t prefetch_hits_local_ = 0;
  uint64_t prefetch_issued_local_ = 0;
  bool park_pending_ = false;
  PageId park_page_ = kInvalidPageId;
  std::chrono::steady_clock::time_point park_start_;
  uint64_t park_trace_ts_ = 0;
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

double JoinImpl::KeyOf(const ItemSide& a, const ItemSide& b) const {
  // MINMINDIST degenerates to point-rect MINDIST and point-point distance
  // for degenerate rects, so one formula covers all four item kinds; the
  // same holds for MAXMAXDIST, whose negation is the kFarthest key
  // (ascending pop order then emits pairs farthest-first).
  return objective_.minimizing() ? MinMinDistSquared(a.rect, b.rect)
                                 : -MaxMaxDistSquared(a.rect, b.rect);
}

int32_t JoinImpl::TieLevelOf(const ItemSide& a, const ItemSide& b) const {
  return a.level + b.level;  // objects contribute -1: deepest
}

void JoinImpl::PushItem(QueueItem item) {
  // Range-restricted joins drop ineligible items at the push choke point:
  // a node side whose subtree is strictly outside the rect, or an object
  // side not contained in it, can never yield a qualifying pair — and a
  // skipped subtree is never expanded, so the saving compounds.
  if (!SideEligible(item.a) || !SideEligible(item.b)) return;
  if (item.key > k_bound_.Bound()) return;  // cannot be in the first K
  if (!item.a.is_node && !item.b.is_node) k_bound_.Offer({item.key});
  item.seq = next_seq_++;
  queue_.Push(item);
  ++stats_.items_pushed;
  stats_.max_queue_size = std::max(stats_.max_queue_size, queue_.size());
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
  DrainSpeculation();
  CaptureIoStats();
}

void JoinImpl::CaptureIoStats() {
  stats_.disk_accesses_p = misses_p_;
  stats_.disk_accesses_q = misses_q_;
  stats_.prefetch_issued = prefetch_issued_local_;
  stats_.prefetch_hits = prefetch_hits_local_;
  stats_.queue_spill_reads = queue_.spill_reads();
  stats_.queue_spill_writes = queue_.spill_writes();
}

void JoinImpl::DrainSpeculation() {
  if (waker_ || !prefetch_.enabled()) return;
  tree_p_.buffer()->DrainPrefetches();
  if (tree_q_.buffer() != tree_p_.buffer()) {
    tree_q_.buffer()->DrainPrefetches();
  }
}

size_t JoinImpl::PushChildrenOneSide(const Node& node, const ItemSide& other,
                                     bool node_first) {
  // Speculate on the node pages of the W nearest children: the queue pops
  // in ascending key order, so the children pushed with the smallest keys
  // are the likeliest next expansions. Children the k_bound already rules
  // out are dropped by PushItem and never speculated on.
  const bool speculate = prefetch_.enabled() && !node.IsLeaf();
  if (speculate) prefetch_.Clear();
  for (const Entry& entry : node.entries) {
    const ItemSide child = node.IsLeaf() ? ObjectSide(entry)
                                         : NodeSide(entry, node.level - 1);
    QueueItem item;
    item.a = node_first ? child : other;
    item.b = node_first ? other : child;
    item.key = KeyOf(item.a, item.b);
    item.tie_level = TieLevelOf(item.a, item.b);
    PushItem(item);
    if (speculate && item.key <= k_bound_.Bound()) {
      prefetch_.Add(item.key, node_first ? entry.id : kInvalidPageId,
                    node_first ? kInvalidPageId : entry.id);
    }
  }
  return speculate ? prefetch_.Issue() : 0;
}

size_t JoinImpl::PushChildrenBoth(const Node& node_a, const Node& node_b) {
  // Leaf/leaf expansions produce only object pairs — nothing to read ahead.
  const bool speculate =
      prefetch_.enabled() && !(node_a.IsLeaf() && node_b.IsLeaf());
  if (speculate) prefetch_.Clear();
  const auto push_pair = [&](const Entry& ea, const Entry& eb) {
    const ItemSide ca = node_a.IsLeaf() ? ObjectSide(ea)
                                        : NodeSide(ea, node_a.level - 1);
    const ItemSide cb = node_b.IsLeaf() ? ObjectSide(eb)
                                        : NodeSide(eb, node_b.level - 1);
    QueueItem item;
    item.a = ca;
    item.b = cb;
    item.key = KeyOf(ca, cb);
    item.tie_level = TieLevelOf(ca, cb);
    PushItem(item);
    if (speculate && item.key <= k_bound_.Bound()) {
      prefetch_.Add(item.key, ca.is_node ? ca.id : kInvalidPageId,
                    cb.is_node ? cb.id : kInvalidPageId);
    }
    return true;
  };
  // The sweep's axis-gap skip lower-bounds a pair's *distance*, which only
  // implies a droppable key for minimizing objectives — kFarthest always
  // takes the nested loop.
  if (options_.leaf_kernel == LeafKernel::kPlaneSweep &&
      objective_.SweepUsable() && node_a.IsLeaf() && node_b.IsLeaf()) {
    // Object pairs the sweep skips have axis separation alone > the k_bound
    // prune threshold, so their key (>= that separation, squared space)
    // would fail PushItem's `key > Bound()` drop. The bound is re-read each
    // skip test: object pairs pushed earlier in this sweep tighten it. The
    // join's keys are L2-only (KeyOf), hence kL2 here.
    cpq_internal::PlaneSweepPairs(
        node_a.entries, node_b.entries, Metric::kL2, /*strict=*/true,
        &sweep_scratch_, [](const Entry& e) -> const Rect& { return e.rect; },
        [&] { return k_bound_.Bound(); }, push_pair);
    return 0;
  }
  for (const Entry& ea : node_a.entries) {
    for (const Entry& eb : node_b.entries) {
      push_pair(ea, eb);
    }
  }
  return speculate ? prefetch_.Issue() : 0;
}

void JoinImpl::CountRead(const BufferManager::TryReadOutcome& outcome,
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
  if (outcome.prefetch_claim) ++prefetch_hits_local_;
}

void JoinImpl::NotePark(PageId page) {
  ++stats_.io_parks;
  park_pending_ = true;
  park_page_ = page;
  park_start_ = std::chrono::steady_clock::now();
  obs::TraceBuffer* trace = ctx_->trace();
  park_trace_ts_ = trace != nullptr ? trace->NowNs() : 0;
}

void JoinImpl::NoteResumed() {
  park_pending_ = false;
  const auto elapsed = std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now() - park_start_)
                           .count();
  const uint64_t dur = elapsed > 0 ? static_cast<uint64_t>(elapsed) : 0;
  stats_.io_parked_ns += dur;
  obs::TraceBuffer* trace = ctx_->trace();
  if (trace != nullptr) {
    obs::TraceEvent ev;
    ev.kind = obs::TraceEventKind::kIoPark;
    ev.ts_ns = park_trace_ts_;
    ev.dur_ns = dur > 0 ? dur : 1;
    ev.a = park_page_;
    trace->Record(ev);
  }
}

JoinImpl::TryOutcome JoinImpl::TryStart(Status* error) {
  QueryContext* read_ctx = accounting_ ? ctx_ : nullptr;
  if (root_stage_ == 0) {
    prefetch_.Configure(tree_p_.buffer(), tree_q_.buffer(),
                        options_.prefetch_window,
                        accounting_ ? ctx_ : nullptr);
    if (tree_p_.size() == 0 || tree_q_.size() == 0) {
      started_ = true;
      root_stage_ = 3;
      return TryOutcome::kOk;
    }
    // Pre-trip: a pre-expired or pre-cancelled join reads no pages.
    // Nothing was examined, so nothing is certified (bound 0).
    if (accounting_) {
      const StopCause pre = ctx_->Check(0, 0);
      if (pre != StopCause::kNone) {
        LatchStop(pre, objective_.WeakestKey());
        started_ = true;
        root_stage_ = 3;
        return TryOutcome::kOk;
      }
    }
    root_stage_ = 1;
  }
  if (root_stage_ == 1) {
    BufferManager::TryReadOutcome outcome;
    const Status s = tree_p_.TryReadNode(tree_p_.root_page(), &node_a_,
                                         read_ctx, waker_, &outcome);
    if (outcome.parked) {
      NotePark(tree_p_.root_page());
      return TryOutcome::kParked;
    }
    if (s.code() == StatusCode::kDeadlineExceeded) {
      // Storage abandoned a retry: the deadline is unmeetable. Same
      // certificate as the pre-trip — no pair was emitted yet.
      LatchStop(StopCause::kDeadline, objective_.WeakestKey());
      started_ = true;
      root_stage_ = 3;
      return TryOutcome::kOk;
    }
    if (!s.ok()) {
      *error = s;
      return TryOutcome::kError;
    }
    CountRead(outcome, /*is_p=*/true);
    root_mbr_p_ = node_a_.ComputeMbr();
    root_stage_ = 2;
  }
  if (root_stage_ == 2) {
    BufferManager::TryReadOutcome outcome;
    const Status s = tree_q_.TryReadNode(tree_q_.root_page(), &node_a_,
                                         read_ctx, waker_, &outcome);
    if (outcome.parked) {
      NotePark(tree_q_.root_page());
      return TryOutcome::kParked;
    }
    if (s.code() == StatusCode::kDeadlineExceeded) {
      LatchStop(StopCause::kDeadline, objective_.WeakestKey());
      started_ = true;
      root_stage_ = 3;
      return TryOutcome::kOk;
    }
    if (!s.ok()) {
      *error = s;
      return TryOutcome::kError;
    }
    CountRead(outcome, /*is_p=*/false);
    QueueItem item;
    item.a =
        ItemSide{true, root_mbr_p_, tree_p_.root_page(), tree_p_.height() - 1};
    item.b = ItemSide{true, node_a_.ComputeMbr(), tree_q_.root_page(),
                      tree_q_.height() - 1};
    item.key = KeyOf(item.a, item.b);
    item.tie_level = TieLevelOf(item.a, item.b);
    PushItem(item);
    started_ = true;
    root_stage_ = 3;
  }
  return TryOutcome::kOk;
}

JoinImpl::TryOutcome JoinImpl::TryExpand(Status* error) {
  const QueueItem& item = pending_item_;
  QueryContext* read_ctx = accounting_ ? ctx_ : nullptr;
  const bool both = item.a.is_node && item.b.is_node &&
                    options_.traversal == HsTraversal::kSimultaneous;
  if (both) {
    if (!have_a_) {
      BufferManager::TryReadOutcome outcome;
      const Status s =
          tree_p_.TryReadNode(item.a.id, &node_a_, read_ctx, waker_, &outcome);
      if (outcome.parked) {
        NotePark(item.a.id);
        return TryOutcome::kParked;
      }
      if (s.code() == StatusCode::kDeadlineExceeded) {
        return TryOutcome::kDeadline;
      }
      if (!s.ok()) {
        *error = s;
        return TryOutcome::kError;
      }
      CountRead(outcome, /*is_p=*/true);
      have_a_ = true;
    }
    if (!have_b_) {
      BufferManager::TryReadOutcome outcome;
      const Status s =
          tree_q_.TryReadNode(item.b.id, &node_b_, read_ctx, waker_, &outcome);
      if (outcome.parked) {
        NotePark(item.b.id);
        return TryOutcome::kParked;
      }
      if (s.code() == StatusCode::kDeadlineExceeded) {
        return TryOutcome::kDeadline;
      }
      if (!s.ok()) {
        *error = s;
        return TryOutcome::kError;
      }
      CountRead(outcome, /*is_p=*/false);
      have_b_ = true;
    }
    // Both nodes in hand: the expansion's bookkeeping and pushes run
    // exactly once, however many parks interleaved.
    stats_.node_accesses += 2;
    prefetch_issued_local_ += PushChildrenBoth(node_a_, node_b_);
    return TryOutcome::kOk;
  }

  // One-sided expansion.
  const RStarTree* tree;
  const ItemSide* node_side;
  const ItemSide* other;
  bool node_first;
  if (item.a.is_node && item.b.is_node) {
    // kBasic gives priority to one of the trees, arbitrarily the first;
    // kEven expands the node at the shallower depth (higher level).
    if (options_.traversal == HsTraversal::kBasic ||
        item.a.level >= item.b.level) {
      tree = &tree_p_;
      node_side = &item.a;
      other = &item.b;
      node_first = true;
    } else {
      tree = &tree_q_;
      node_side = &item.b;
      other = &item.a;
      node_first = false;
    }
  } else if (item.a.is_node) {
    tree = &tree_p_;
    node_side = &item.a;
    other = &item.b;
    node_first = true;
  } else {
    tree = &tree_q_;
    node_side = &item.b;
    other = &item.a;
    node_first = false;
  }
  if (!have_a_) {
    BufferManager::TryReadOutcome outcome;
    const Status s = tree->TryReadNode(node_side->id, &node_a_, read_ctx,
                                       waker_, &outcome);
    if (outcome.parked) {
      NotePark(node_side->id);
      return TryOutcome::kParked;
    }
    if (s.code() == StatusCode::kDeadlineExceeded) {
      return TryOutcome::kDeadline;
    }
    if (!s.ok()) {
      *error = s;
      return TryOutcome::kError;
    }
    CountRead(outcome, node_first);
    have_a_ = true;
  }
  ++stats_.node_accesses;
  prefetch_issued_local_ += PushChildrenOneSide(node_a_, *other, node_first);
  return TryOutcome::kOk;
}

JoinImpl::NextOutcome JoinImpl::TryNext(std::optional<PairResult>* out,
                                        Status* error) {
  out->reset();
  if (park_pending_) NoteResumed();
  if (!started_) {
    const TryOutcome r = TryStart(error);
    if (r == TryOutcome::kParked) return NextOutcome::kParked;
    if (r == TryOutcome::kError) return NextOutcome::kError;
  }
  if (stop_ != StopCause::kNone) return NextOutcome::kExhausted;
  if (options_.k_bound > 0 && results_emitted_ >= options_.k_bound) {
    return NextOutcome::kExhausted;
  }
  for (;;) {
    if (!have_pending_) {
      if (queue_.Empty()) {
        DrainSpeculation();
        CaptureIoStats();
        stats_.quality.pairs_found = results_emitted_;
        return NextOutcome::kExhausted;
      }
      pending_item_ = queue_.PopMin();
      ++stats_.items_popped;
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
      if (accounting_) {
        const StopCause cause = ctx_->Check(
            stats_.node_accesses, queue_.size() * sizeof(QueueItem));
        if (cause != StopCause::kNone) {
          LatchStop(cause, pending_item_.key);
          return NextOutcome::kExhausted;
        }
      }
      have_pending_ = true;
      have_a_ = have_b_ = false;
    }
    const TryOutcome r = TryExpand(error);
    if (r == TryOutcome::kParked) return NextOutcome::kParked;
    if (r == TryOutcome::kError) return NextOutcome::kError;
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

const HsStats& IncrementalDistanceJoin::stats() const {
  return impl_->stats();
}

namespace {

/// Folds a finished join's stats into the metrics registry. `seconds < 0`
/// means timing was skipped (metrics disabled at entry).
void FoldHsMetrics(const HsStats& s, double seconds, QueryFamily family) {
#if KCPQ_METRICS
  if (!obs::Enabled()) return;
  const obs::KcpqMetrics& m = obs::KcpqMetrics::Get();
  m.hs_queries_total->Increment();
  m.hs_items_pushed_total->Add(s.items_pushed);
  m.hs_items_popped_total->Add(s.items_popped);
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
                                                HsStats* stats) {
  // No waker: the join reads inline and finishes in one Step().
  ResumableHsQuery query(tree_p, tree_q, k, std::move(options), stats,
                         Waker());
  query.Step();
  KCPQ_RETURN_IF_ERROR(query.status());
  return query.TakeResults();
}

ResumableHsQuery::ResumableHsQuery(const RStarTree& tree_p,
                                   const RStarTree& tree_q, size_t k,
                                   HsOptions options, HsStats* stats,
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
      final_status_ = std::move(error);
      done_ = true;
      return StepResult::kDone;
    }
    if (r == hs_internal::JoinImpl::NextOutcome::kEmitted) {
      results_.push_back(*next);
      continue;
    }
    break;  // exhausted (or stopped by the context)
  }
  if (stats_ != nullptr) *stats_ = impl_->stats();
  FoldHsMetrics(impl_->stats(),
                timed_ ? std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start_)
                             .count()
                       : -1.0,
                family_);
  final_status_ = Status::OK();
  done_ = true;
  return StepResult::kDone;
}

}  // namespace kcpq
