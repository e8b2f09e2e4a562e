#include "cpq/engine.h"

#include <algorithm>
#include <limits>
#include <string>

#include "geometry/metrics.h"
#include "obs/explain.h"
#include "obs/kcpq_metrics.h"
#include "obs/trace.h"

namespace kcpq {
namespace cpq_internal {

namespace {

// m^(level+1): minimum points in a non-root subtree rooted at `level`.
uint64_t MinPointsAtLevel(int level, uint64_t min_entries) {
  uint64_t n = 1;
  for (int i = 0; i <= level; ++i) n *= min_entries;
  return n;
}

// M^(level+1): maximum points in a subtree rooted at `level` (saturating:
// the product overflows quickly and only upper-bounds a capacity).
uint64_t MaxPointsAtLevel(int level, uint64_t max_entries) {
  uint64_t n = 1;
  for (int i = 0; i <= level; ++i) n = SaturatingMul(n, max_entries);
  return n;
}

// Lower bound on points under a node that has been read.
uint64_t MinPointsOfNode(const Node& node, uint64_t min_entries) {
  if (node.IsLeaf()) return node.entries.size();
  // Each child is a non-root subtree at node.level - 1.
  return node.entries.size() * MinPointsAtLevel(node.level - 1, min_entries);
}

// Upper bound on points under a node that has been read (saturating).
uint64_t MaxPointsOfNode(const Node& node, uint64_t max_entries) {
  if (node.IsLeaf()) return node.entries.size();
  return SaturatingMul(node.entries.size(),
                       MaxPointsAtLevel(node.level - 1, max_entries));
}

}  // namespace

DescendChoice ChooseDescend(int level_p, int level_q,
                            HeightStrategy strategy) {
  if (level_p == 0 && level_q == 0) return DescendChoice::kLeaves;
  if (strategy == HeightStrategy::kFixAtRoot && level_p != level_q) {
    // Fix-at-root: only the deeper (higher-level) tree descends until the
    // two sides meet at the same level.
    return level_p > level_q ? DescendChoice::kFirstOnly
                             : DescendChoice::kSecondOnly;
  }
  // Fix-at-leaves (and equal levels): descend both until a side bottoms
  // out, then keep the leaf fixed.
  if (level_p == 0) return DescendChoice::kSecondOnly;
  if (level_q == 0) return DescendChoice::kFirstOnly;
  return DescendChoice::kBoth;
}

CpqEngine::CpqEngine(const RStarTree& tree_p, const RStarTree& tree_q,
                     const CpqOptions& options,
                     const QueryObjective& objective, CpqStats* stats)
    : tree_p_(tree_p),
      tree_q_(tree_q),
      options_(options),
      stats_(stats != nullptr ? stats : &local_stats_),
      objective_(objective),
      // An ε-join keeps every qualifying pair (ProcessLeaves enforces its
      // cap) and certifies no ranks: it has no K.
      results_(objective.fixed_bound() ? std::numeric_limits<size_t>::max()
                                       : options.k,
               objective_),
      bound_(objective.InitialBound()),
      tie_tail_(options.tie_chain.size()),
      context_(options.context),
      profile_(context_ != nullptr ? context_->profile() : nullptr),
      trace_(context_ != nullptr ? context_->trace() : nullptr),
      observation_(context_ != nullptr ? context_->observation() : nullptr),
      certificate_(objective.fixed_bound() ? 0 : options.k) {}

void CpqEngine::FinalizeQualityAndTrace() {
  // Quality certificate. A completed query keeps the default (exact,
  // bound = +inf). A stopped one reports the frontier minimum: no pair the
  // traversal never saw can be closer than it (docs/robustness.md). The
  // stop can still be provably harmless — frontier empty, or every
  // frontier pair already worse than the full K-heap — in which case the
  // partial result *is* a true answer and is_exact stays set.
  stats_->quality.stop_cause = stop_;
  stats_->quality.pairs_found = results_.size();
  stats_->quality.bound_is_upper = objective_.BoundIsUpper();
  if (stop_ != StopCause::kNone && objective_.fixed_bound()) {
    // ε-join: the stop is harmless when nothing within ε was left
    // unexpanded; otherwise the deferred pairs within ε bound how many
    // qualifying pairs are missing. No per-rank bounds: there is no K.
    stats_->quality.guaranteed_lower_bound =
        objective_.KeyToDistance(frontier_min_pow_);
    stats_->quality.is_exact = frontier_min_pow_ > bound_;
    if (!stats_->quality.is_exact) {
      stats_->quality.missing_pair_bound = missing_pairs_;
    }
  } else if (stop_ != StopCause::kNone) {
    stats_->quality.guaranteed_lower_bound =
        objective_.KeyToDistance(frontier_min_pow_);
    stats_->quality.is_exact =
        frontier_min_pow_ == std::numeric_limits<double>::infinity() ||
        (results_.full() && results_.Bound() <= frontier_min_pow_);
    // Per-rank refinement: bound r certifies that at most r missing
    // true-answer pairs can beat it — closer for minimizing families,
    // farther for kFarthest (capacity-weighted frontier profile; proof in
    // docs/robustness.md). KeyToDistance flips negated farthest keys back
    // to distances, so the reported values descend under bound_is_upper.
    const std::vector<double> pow_bounds = certificate_.RankBoundsPow();
    stats_->quality.rank_lower_bounds.reserve(pow_bounds.size());
    for (const double b : pow_bounds) {
      stats_->quality.rank_lower_bounds.push_back(
          objective_.KeyToDistance(b));
    }
  }

  if (trace_ != nullptr) {
    obs::TraceEvent e;
    e.kind = obs::TraceEventKind::kQuery;
    e.ts_ns = 0;
    e.dur_ns = trace_->NowNs();
    e.value = static_cast<double>(options_.k);
    e.a = stats_->node_pairs_processed;
    e.b = node_accesses_;
    trace_->Record(e);
  }
}

void CpqEngine::NoteBoundImprovement() {
  if (bound_ >= reported_bound_) return;
  reported_bound_ = bound_;
  // The profile/trace report in power space; for kFarthest the key is the
  // negated power, so flip the sign back for display (a tightening bound
  // then *rises* toward the K-th farthest distance, as expected).
  const double display = objective_.minimizing() ? bound_ : -bound_;
  if (profile_ != nullptr) {
    profile_->BoundUpdate(stats_->node_pairs_processed, display);
  }
  if (trace_ != nullptr) {
    obs::TraceEvent e;
    e.kind = obs::TraceEventKind::kBoundUpdate;
    e.bound = display;
    e.a = stats_->node_pairs_processed;
    trace_->RecordNow(e);
  }
  if (observation_ != nullptr) {
    // The live registry reports real distance units (what the final
    // quality certificate will say), not the engine's power-space key.
    observation_->NoteBound(objective_.KeyToDistance(bound_));
  }
}

bool CpqEngine::ShouldStop(uint64_t extra_bytes) {
  if (stop_ != StopCause::kNone) return true;
  if (context_ == nullptr) return false;
  // The context checks the *unified* footprint: the engine bytes recorded
  // here plus every distinct buffer page the query has read. An ε-join's
  // results grow without bound, so they are metered too.
  const uint64_t result_bytes =
      objective_.fixed_bound() ? results_.size() * sizeof(PairResult) : 0;
  stop_ = context_->Check(
      node_accesses_,
      frame_bytes_ + tie_tail_.bytes() + result_bytes + extra_bytes);
  return stop_ != StopCause::kNone;
}

Status CpqEngine::ProcessLeaves(const Node& node_p, const Node& node_q,
                                bool same_node) {
  // Leaf entries are degenerate rects for point data and real boxes for
  // extended objects; the object distance is MINMINDIST of the rects
  // (which collapses to the point distance for points), reported via a
  // closest point pair.
  //
  // Self-join: symmetric node pairs were skipped at generation time, so a
  // cross-node unordered object pair reaches this loop exactly once (in
  // arbitrary order — normalize on output); within one node, the id filter
  // keeps each unordered pair once and drops reflexive pairs. The filter
  // lives inside `consider`, beside the key test.
  //
  // A K-best query keeps a pair only if it beats the K-th best so far; an
  // ε-join keeps every pair with key <= T = ε (distance == ε included)
  // and fails once it would hold more than options.k of them. `consider`
  // returns false only for that failure, which aborts the enumeration.
  const bool join = objective_.fixed_bound();
  Status status;
  const auto consider = [&](const Entry& ep, const Entry& eq) {
    if (options_.self_join) {
      if (same_node) {
        if (ep.id >= eq.id) return true;
      } else if (ep.id == eq.id) {
        return true;
      }
    }
    if (!objective_.LeafPairEligible(ep.rect, eq.rect)) return true;
    ++stats_->point_distance_computations;
    const double key = objective_.LeafKey(ep.rect, eq.rect);
    // Cheap reject before points.
    if (join ? key > bound_ : key >= results_.Bound()) return true;
    if (join && results_.size() >= options_.k) {
      status = Status::ResourceExhausted(
          "distance join exceeded max_results = " +
          std::to_string(options_.k));
      return false;
    }
    Point p, q;
    ClosestPoints(ep.rect, eq.rect, &p, &q);
    if (options_.self_join && ep.id > eq.id) {
      results_.Offer(key, q, p, eq.id, ep.id);
    } else {
      results_.Offer(key, p, q, ep.id, eq.id);
    }
    return true;
  };

  const uint64_t kernel_start_ns =
      trace_ != nullptr ? trace_->NowNs() : 0;

  // Pairs the sweep skips have sweep-axis separation alone >= the result
  // heap's bound, so their full distance would fail the `key >= Bound()`
  // reject above — identical results, fewer distance computations. The
  // bound is re-read per skip test, so pairs offered early in this very
  // sweep tighten it for the rest. The ε-join's sweep is strict: a pair
  // whose separation equals ε may still qualify. The skip lower-bounds a
  // pair's *distance*, which bounds its key only for minimizing
  // objectives, so farthest sweeps with nothing skipped (+∞, strict).
  const bool sweep = objective_.SweepUsable();
  const uint64_t total =
      static_cast<uint64_t>(node_p.entries.size()) * node_q.entries.size();
  const uint64_t visited = PlaneSweepPairs(
      node_p, node_q, options_.metric, /*strict=*/join || !sweep,
      &sweep_scratch_,
      [&] {
        return !sweep ? std::numeric_limits<double>::infinity()
               : join ? bound_
                      : results_.Bound();
      },
      consider);
  if (!status.ok()) return status;
  stats_->leaf_pairs_skipped += total - visited;
  bound_ = std::min(bound_, results_.Bound());
  NoteBoundImprovement();
  if (trace_ != nullptr) {
    obs::TraceEvent e;
    e.kind = obs::TraceEventKind::kLeafKernel;
    e.ts_ns = kernel_start_ns;
    const uint64_t end = trace_->NowNs();
    e.dur_ns = end > kernel_start_ns ? end - kernel_start_ns : 1;
    e.bound = bound_;
    e.a = node_p.entries.size();
    e.b = node_q.entries.size();
    trace_->Record(e);
  }
  return Status::OK();
}

CpqEngine::Side CpqEngine::MakeSide(PageId page, const Node& node,
                                    bool expand,
                                    const RStarTree& tree) const {
  Side side{&node, expand, page, Entry{}, 0, 0, 0};
  if (expand) {
    side.child_level = static_cast<int16_t>(node.level - 1);
    side.child_min_points =
        MinPointsAtLevel(node.level - 1, tree.min_entries());
    side.child_max_points =
        MaxPointsAtLevel(node.level - 1, tree.max_entries());
  } else {
    // The fixed side contributes itself as the single "child", with exact
    // facts from its page.
    side.fixed = Entry{node.ComputeMbr(), page};
    side.child_level = static_cast<int16_t>(node.level);
    side.child_min_points = MinPointsOfNode(node, tree.min_entries());
    side.child_max_points = MaxPointsOfNode(node, tree.max_entries());
  }
  return side;
}

void CpqEngine::Expand(PageId page_p, const Node& node_p, PageId page_q,
                       const Node& node_q, DescendChoice choice,
                       std::vector<FrontierEntry>* out) {
  const Side p = MakeSide(page_p, node_p,
                          choice == DescendChoice::kBoth ||
                              choice == DescendChoice::kFirstOnly,
                          tree_p_);
  const Side q = MakeSide(page_q, node_q,
                          choice == DescendChoice::kBoth ||
                              choice == DescendChoice::kSecondOnly,
                          tree_q_);
  const bool heap = options_.algorithm == CpqAlgorithm::kHeap;
  const bool sorted = options_.algorithm == CpqAlgorithm::kSortedDistances;
  // NAIVE never prunes, and farthest keys have no sweep-axis lower bound:
  // both sweep with nothing cut.
  SweepCandidates(p, q,
                  Prunes() && objective_.SweepUsable()
                      ? bound_
                      : std::numeric_limits<double>::infinity());
  // NAIVE, EXH and SIM descend in generation order, and for EXH and SIM
  // that order drives T. Each pair takes the slot i * |q| + j, which
  // restores that order in linear time.
  if (!heap && !sorted) {
    constexpr uint32_t kEmpty = UINT32_MAX;
    generation_slots_.assign(p.size() * q.size(), kEmpty);
    for (uint32_t n = 0; n < child_keys_.size(); ++n) {
      generation_slots_[child_keys_[n].i * q.size() + child_keys_[n].j] = n;
    }
    generation_keys_.clear();
    for (const uint32_t n : generation_slots_) {
      if (n != kEmpty) generation_keys_.push_back(child_keys_[n]);
    }
    child_keys_.swap(generation_keys_);
  }
  if (TightensBound()) {
    TightenBoundFromCandidates(p, q);
    NoteBoundImprovement();
  }

  // The second pass. Every child of one expansion shares its levels and
  // its pair capacity. The heap takes only children with key <= T after
  // tightening, and STD's frame sort orders every child in the list, so
  // each scores the tie chain of exactly the entries it builds.
  const bool score_ties = !options_.tie_chain.empty() && (heap || sorted);
  const uint64_t max_pairs =
      SaturatingMul(p.child_max_points, q.child_max_points);
  const FrontierLess less = Less();
  if (!heap) out->reserve(child_keys_.size());
  for (const ChildKey& c : child_keys_) {
    if (heap && c.key > bound_) {
      ++stats_->candidate_pairs_pruned;
      if (profile_ != nullptr) {
        profile_->PrunedIneq1(PairLevel(p.child_level, q.child_level), 1);
      }
      if (trace_ != nullptr) {
        TracePrune(p.child_level, q.child_level, c.key, bound_);
      }
      continue;
    }
    FrontierEntry entry;
    entry.key = c.key;
    entry.page_p = p.child_page(c.i);
    entry.page_q = q.child_page(c.j);
    entry.max_pairs = max_pairs;
    entry.level_p = p.child_level;
    entry.level_q = q.child_level;
    if (score_ties) {
      double scores[kMaxTieChain];
      ComputeTieScores(p.rect(c.i), q.rect(c.j), options_.tie_chain,
                       tie_context_, scores);
      entry.tie = scores[0];
      if (tie_tail_.width() != 0) entry.tie_row = tie_tail_.Add(scores + 1);
    }
    out->push_back(entry);
    if (!heap) continue;
    if (trace_ != nullptr) {
      obs::TraceEvent ev;
      ev.kind = obs::TraceEventKind::kHeapPush;
      ev.level_p = entry.level_p;
      ev.level_q = entry.level_q;
      ev.value = entry.key;
      ev.bound = bound_;
      trace_->RecordNow(ev);
    }
    std::push_heap(out->begin(), out->end(),
                   [&less](const FrontierEntry& a, const FrontierEntry& b) {
                     return less(b, a);
                   });
  }
}

SweepList CpqEngine::EligibleChildren(const Side& side, int axis,
                                      std::vector<uint32_t>* scratch) const {
  static constexpr uint32_t kOnly = 0;
  if (!side.expand) {
    return SweepList{&side.fixed, &kOnly,
                     objective_.SubtreeEligible(side.fixed.rect) ? 1u : 0u};
  }
  const std::vector<Entry>& entries = side.node->entries;
  const uint32_t* order = SweepOrder(*side.node, axis, scratch);
  if (!objective_.restricted()) {
    return SweepList{entries.data(), order, entries.size()};
  }
  if (order != scratch->data()) scratch->assign(order, order + entries.size());
  size_t kept = 0;
  for (const uint32_t i : *scratch) {
    if (objective_.SubtreeEligible(entries[i].rect)) (*scratch)[kept++] = i;
  }
  return SweepList{entries.data(), scratch->data(), kept};
}

void CpqEngine::SweepCandidates(const Side& p, const Side& q, double cut) {
  child_keys_.clear();
  // Self-join: when both sides expand the *same* node, the child pairs
  // (i, j) and (j, i) both arise here and cover the same unordered object
  // pairs — keep only the page-ordered one (nearly halves the traversal).
  // Distinct parents already appear in exactly one orientation, inherited
  // from the ancestor where they split apart.
  const bool same_node = options_.self_join && p.page == q.page;
  const SweepBox box(p.children(), p.size(), q.children(), q.size());
  const int axis = box.WidestAxis();
  const SweepList list_p = EligibleChildren(p, axis, &sweep_scratch_.a);
  const SweepList list_q = EligibleChildren(q, axis, &sweep_scratch_.b);

  // A finite cut is the T held before the expansion. A cut pair's key is
  // at least its sweep-axis gap power, which exceeds T, so HEAP's second
  // pass would prune it, and so would the recursive algorithms'
  // descend-time test (T never rises); its tighten key (MINMAXDIST or
  // MAXMAXDIST) is at least its key, so the gated tightening would skip it
  // too. All hold exactly in floating point (geometry/minkowski.h), for
  // every metric. An infinite cut keeps every pair (the strict test never
  // fires).
  const auto index_p = [&](const Entry& e) {
    return static_cast<uint32_t>(&e - list_p.entries);
  };
  const auto index_q = [&](const Entry& e) {
    return static_cast<uint32_t>(&e - list_q.entries);
  };
  SweepPairs(
      list_p, list_q, axis, options_.metric, /*strict=*/true,
      [cut] { return cut; },
      [&](const Entry& ep, const Entry& eq) {
        if (same_node && ep.id > eq.id) return true;
        child_keys_.push_back(ChildKey{objective_.NodeKey(ep.rect, eq.rect),
                                       index_p(ep), index_q(eq)});
        return true;
      },
      /*report_cut=*/trace_ != nullptr,
      [&](const Entry& ep, const Entry& eq) {
        if (same_node && ep.id > eq.id) return;
        TracePrune(p.child_level, q.child_level,
                   objective_.NodeKey(ep.rect, eq.rect), bound_);
      });
  const uint64_t generated =
      same_node ? list_p.size * (list_p.size + 1) / 2
                : static_cast<uint64_t>(list_p.size) * list_q.size;
  const uint64_t cut_pairs = generated - child_keys_.size();
  stats_->candidate_pairs_generated += generated;
  stats_->candidate_pairs_pruned += cut_pairs;
  if (profile_ != nullptr) {
    const int level = PairLevel(p.child_level, q.child_level);
    profile_->Considered(level, generated);
    if (cut_pairs != 0) profile_->PrunedIneq1(level, cut_pairs);
  }
}

void CpqEngine::TracePrune(int16_t level_p, int16_t level_q, double key,
                           double bound) const {
  obs::TraceEvent ev;
  ev.kind = obs::TraceEventKind::kPrune;
  ev.level_p = level_p;
  ev.level_q = level_q;
  ev.value = key;
  ev.bound = bound;
  trace_->RecordNow(ev);
}

void CpqEngine::TightenBoundFromCandidates(const Side& p, const Side& q) {
  if (child_keys_.empty()) return;
  // Range-restricted objectives cannot count pairs toward the bound: the
  // guaranteed pairs beneath a child pair may all lie outside the rect.
  if (!objective_.CanTightenFromCapacities()) return;
  // K = 1 closest (Section 3.3): at least one point pair beneath each
  // child pair lies within its MINMAXDIST, so the tighten key is MINMAXDIST
  // and one child pair guarantees the one pair needed. K > 1 (Section 3.8):
  // every point pair beneath a child pair is within its MAXMAXDIST;
  // accumulate child pairs in ascending MAXMAXDIST until the guaranteed
  // pair count reaches K — that MAXMAXDIST bounds the K-th closest
  // distance. kFarthest mirrors this in key space: every pair beneath a
  // child pair is at least its MINMINDIST away, so the tighten key is
  // -MINMINDIST and the same ascending accumulation (= descending
  // MINMINDIST) bounds the K-th farthest distance from below. (For
  // kFarthest this covers K = 1 too — the exact mirror of MINMAXDIST.)
  // Every child pair of one expansion guarantees the same pair count.
  // use_maxmaxdist_pruning switches off only the K > 1 accumulation.
  //
  // Gate: only tighten keys below T can lower it, so only those are
  // computed, kept and selected. The gate rests on tighten key >= key,
  // which holds exactly in floating point: MinMaxDistPow and MaxMaxDistPow
  // are never below MinMinDistPow (and -MINMINDIST >= -MAXMAXDIST for
  // kFarthest; geometry/minkowski.h). A child pair with key >= T therefore
  // cannot contribute. The kept keys are the prefix of the full ascending
  // list that lies below T; if that prefix never guarantees K pairs, the
  // full list reaches K at a key >= T, and the min below leaves T
  // unchanged either way.
  const bool minmax = objective_.minimizing() && options_.k == 1;
  if (!minmax && options_.k > 1 && !options_.use_maxmaxdist_pruning) return;
  const uint64_t min_pairs =
      minmax ? 1 : p.child_min_points * q.child_min_points;
  if (min_pairs == 0) return;
  tighten_scratch_.clear();
  for (const ChildKey& c : child_keys_) {
    if (c.key >= bound_) continue;
    const Rect& rp = p.rect(c.i);
    const Rect& rq = q.rect(c.j);
    const double tighten_key =
        minmax                    ? MinMaxDistPow(rp, rq, options_.metric)
        : objective_.minimizing() ? MaxMaxDistPow(rp, rq, options_.metric)
                                  : -MinMinDistPow(rp, rq, options_.metric);
    if (tighten_key < bound_) tighten_scratch_.push_back(tighten_key);
  }
  // The accumulation reaches K at the ceil(K / min_pairs)-th smallest key.
  const uint64_t needed =
      options_.k / min_pairs + (options_.k % min_pairs != 0 ? 1 : 0);
  if (needed > tighten_scratch_.size()) return;
  const auto nth = tighten_scratch_.begin() + static_cast<ptrdiff_t>(needed - 1);
  std::nth_element(tighten_scratch_.begin(), nth, tighten_scratch_.end());
  bound_ = std::min(bound_, *nth);
}

void FoldCpqMetrics(const CpqStats& s, double seconds, QueryFamily family) {
#if KCPQ_METRICS
  if (!obs::Enabled()) return;
  const obs::KcpqMetrics& m = obs::KcpqMetrics::Get();
  m.cpq_queries_total->Increment();
  m.cpq_node_pairs_total->Add(s.node_pairs_processed);
  m.cpq_candidates_generated_total->Add(s.candidate_pairs_generated);
  m.cpq_candidates_pruned_total->Add(s.candidate_pairs_pruned);
  m.cpq_distance_computations_total->Add(s.point_distance_computations);
  m.cpq_leaf_pairs_skipped_total->Add(s.leaf_pairs_skipped);
  m.cpq_query_node_accesses->Observe(static_cast<double>(s.node_accesses));
  if (seconds >= 0.0) {
    m.cpq_query_seconds->Observe(seconds);
    FamilyQuerySeconds(family)->Observe(seconds);
  }
#else
  (void)s;
  (void)seconds;
  (void)family;
#endif
}

}  // namespace cpq_internal
}  // namespace kcpq
