// The node-pair expansion as an axis sweep (cpq/engine.cc,
// CpqEngine::SweepCandidates) against the full generation it replaced:
// every child pair's key computed in (i, j) order, T tightened over all of
// them, then the pairs with key > T pruned — by HEAP's second pass, or by
// the recursive algorithms' descend-time test. The oracle below is that loop.
// Over 100,000 seeded node pairs — L1, L2 and Linf; K = 1 and K > 1;
// closest and range-restricted; a self-join on one node; fixed sides;
// touching, one-ulp-apart and elongated child MBRs; T at, one ulp around
// and between keys and gap powers — each node pair is expanded from the
// same T by HEAP, EXH, SIM, STD, NAIVE and, on closest trials, the ε-join
// (EXH with T fixed), and from the negated T by farthest HEAP, EXH, SIM and
// STD. Each expansion must leave the oracle's T after tightening and its
// generated count. HEAP must keep the same surviving child keys and pruned
// count. A recursive algorithm's frame must be the full list minus the cut
// pairs, in generation order (STD: in its sorted order), each cut pair with
// key > the T held before the expansion, and the cut pairs plus those its
// descent would prune must be the oracle's pruned pairs. NAIVE and the
// farthest family sweep with nothing cut: their frames are the full list.
// With a trace attached, each pruned pair yields one kPrune event.

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/random.h"
#include "cpq/engine.h"
#include "cpq/tie.h"
#include "geometry/minkowski.h"
#include "gtest/gtest.h"
#include "obs/explain.h"
#include "obs/trace.h"
#include "tests/test_util.h"

namespace kcpq {
namespace cpq_internal {

struct CpqEngineTestPeer {
  static double& Bound(CpqEngine& e) { return e.bound_; }
  static void Expand(CpqEngine& e, PageId page_p, const Node& node_p,
                     PageId page_q, const Node& node_q, DescendChoice choice,
                     std::vector<FrontierEntry>* out) {
    e.Expand(page_p, node_p, page_q, node_q, choice, out);
  }
  static FrontierLess Less(const CpqEngine& e) { return e.Less(); }
};

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// A child pair that survives: (page p, page q, key).
using Survivor = std::tuple<PageId, PageId, double>;

/// What the full-generation loop leaves behind.
struct Generation {
  std::vector<FrontierEntry> pairs;  // every eligible child pair, (i, j) order
  double bound = kInf;               // T after tightening
  uint64_t pruned = 0;               // pairs with key > bound
};

/// A side's children as the engine sees them: an expanded node's entries,
/// or a fixed node as its own single child (its MBR and page).
std::vector<Entry> Children(const Node& node, PageId page, bool expand) {
  if (expand) return node.entries;
  return {Entry{node.ComputeMbr(), page}};
}

/// The full-generation loop: every eligible child pair's key (and, with a
/// non-empty `tie_chain`, its first tie score) in (i, j) order; when
/// `tighten`, T tightened over all of them (closest K = 1: MINMAXDIST;
/// closest K > 1: the Section 3.8 count over MAXMAXDIST; farthest: the same
/// count over -MINMINDIST); then the pairs with key > T counted as pruned.
Generation Oracle(const std::vector<Entry>& cp, const std::vector<Entry>& cq,
                  uint64_t min_points_p, uint64_t min_points_q,
                  bool same_node, const QueryObjective& objective, size_t k,
                  double bound, bool tighten,
                  const std::vector<TieCriterion>& tie_chain) {
  Generation g;
  std::vector<std::pair<size_t, size_t>> children;
  for (size_t i = 0; i < cp.size(); ++i) {
    if (!objective.SubtreeEligible(cp[i].rect)) continue;
    for (size_t j = 0; j < cq.size(); ++j) {
      if (!objective.SubtreeEligible(cq[j].rect)) continue;
      if (same_node && cp[i].id > cq[j].id) continue;
      FrontierEntry e;
      e.key = objective.NodeKey(cp[i].rect, cq[j].rect);
      e.page_p = cp[i].id;
      e.page_q = cq[j].id;
      if (!tie_chain.empty()) {
        double scores[kMaxTieChain];
        ComputeTieScores(cp[i].rect, cq[j].rect, tie_chain, TieContext{},
                         scores);
        e.tie = scores[0];
      }
      g.pairs.push_back(e);
      children.emplace_back(i, j);
    }
  }
  const Metric metric = objective.metric();
  if (tighten && !children.empty() && objective.CanTightenFromCapacities()) {
    if (objective.minimizing() && k == 1) {
      for (const auto& [i, j] : children) {
        bound = std::min(bound, MinMaxDistPow(cp[i].rect, cq[j].rect, metric));
      }
    } else {
      std::vector<double> keys;
      for (const auto& [i, j] : children) {
        keys.push_back(
            objective.minimizing()
                ? MaxMaxDistPow(cp[i].rect, cq[j].rect, metric)
                : -MinMinDistPow(cp[i].rect, cq[j].rect, metric));
      }
      std::sort(keys.begin(), keys.end());
      const uint64_t min_pairs = min_points_p * min_points_q;
      const uint64_t needed = (k + min_pairs - 1) / min_pairs;
      if (needed <= keys.size()) bound = std::min(bound, keys[needed - 1]);
    }
  }
  g.bound = bound;
  for (const FrontierEntry& e : g.pairs) g.pruned += e.key > bound;
  return g;
}

/// The child pairs with key <= T, sorted.
std::vector<Survivor> Survivors(const std::vector<FrontierEntry>& pairs,
                                double bound) {
  std::vector<Survivor> out;
  for (const FrontierEntry& e : pairs) {
    if (e.key <= bound) out.emplace_back(e.page_p, e.page_q, e.key);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Frame entries agree on what a frame holds: pages, key and tie score.
bool SameEntry(const FrontierEntry& a, const FrontierEntry& b) {
  return a.page_p == b.page_p && a.page_q == b.page_q && a.key == b.key &&
         a.tie == b.tie;
}

/// Child rects in one of four shapes: a coarse grid (touching and equal
/// faces), one-ulp-apart neighbours, tall thin boxes strung along x (where
/// an L2 MINMAXDIST formed by subtraction cancels), or free boxes.
Rect RandomChild(Xoshiro256pp& rng, int shape, double base_x) {
  Rect r;
  switch (shape) {
    case 0: {  // grid: faces on multiples of 0.25
      for (int d = 0; d < kDims; ++d) {
        r.lo[d] = 0.25 * static_cast<double>(rng.NextBounded(8));
        r.hi[d] = r.lo[d] + 0.25 * static_cast<double>(rng.NextBounded(3));
      }
      break;
    }
    case 1: {  // a neighbour of base_x, one ulp past it or touching it
      r.lo[0] = rng.NextBounded(2) == 0
                    ? base_x
                    : std::nextafter(base_x, kInf);
      r.hi[0] = r.lo[0] + 0.125 * static_cast<double>(rng.NextBounded(3));
      r.lo[1] = 0.125 * static_cast<double>(rng.NextBounded(8));
      r.hi[1] = r.lo[1] + 0.125 * static_cast<double>(rng.NextBounded(3));
      break;
    }
    case 2: {  // tall and thin, small gaps along a wide x range
      r.lo[0] = rng.NextBounded(4) == 0
                    ? 1e9 * rng.NextDouble()
                    : 1e-3 * static_cast<double>(rng.NextBounded(16));
      r.hi[0] = r.lo[0] + 1e-3 * rng.NextDouble();
      r.lo[1] = 0.0;
      r.hi[1] = 1e8;
      break;
    }
    default: {
      for (int d = 0; d < kDims; ++d) {
        r.lo[d] = rng.NextDouble();
        r.hi[d] = r.lo[d] + 0.2 * rng.NextDouble();
      }
      break;
    }
  }
  return r;
}

Node RandomNode(Xoshiro256pp& rng, int shape, PageId first_page) {
  Node node;
  node.level = 1;
  const size_t n = 1 + rng.NextBounded(21);
  double base_x = 0.125 * static_cast<double>(rng.NextBounded(8));
  for (size_t i = 0; i < n; ++i) {
    Entry e;
    e.rect = RandomChild(rng, shape, base_x);
    e.id = first_page + i;
    base_x = e.rect.hi[0];
    node.entries.push_back(e);
  }
  if (rng.NextBounded(2) == 0) BuildAxisOrders(&node);
  return node;
}

/// A T worth testing: a pair's key or axis gap power, one ulp either side,
/// half of it, zero or +infinity.
double PickBound(Xoshiro256pp& rng, const std::vector<Entry>& cp,
                 const std::vector<Entry>& cq,
                 const QueryObjective& objective) {
  const Rect& a = cp[rng.NextBounded(cp.size())].rect;
  const Rect& b = cq[rng.NextBounded(cq.size())].rect;
  double t;
  switch (rng.NextBounded(5)) {
    case 0:
      return kInf;
    case 1:
      return 0.0;
    case 2:
      t = objective.NodeKey(a, b);
      break;
    default: {
      const int d = static_cast<int>(rng.NextBounded(kDims));
      const double gap = std::max(b.lo[d] - a.hi[d], a.lo[d] - b.hi[d]);
      t = gap > 0.0 ? AxisGapPow(gap, objective.metric()) : 0.0;
      break;
    }
  }
  switch (rng.NextBounded(4)) {
    case 0:
      return std::nextafter(t, kInf);
    case 1:
      return std::nextafter(t, 0.0);
    case 2:
      return 0.5 * t;
    default:
      return t;
  }
}

/// The traversals that expand through the sweep. kJoin is the ε-join: EXH
/// under a fixed T, with the strict cut. The kFar* traversals run the
/// farthest family, and they and kNaive sweep with nothing cut.
enum Traversal {
  kHeap,
  kExh,
  kSim,
  kStd,
  kJoin,
  kNaive,
  kFarHeap,
  kFarExh,
  kFarSim,
  kFarStd,
  kTraversals
};

constexpr CpqAlgorithm kAlgorithm[kTraversals] = {
    CpqAlgorithm::kHeap,       CpqAlgorithm::kExhaustive,
    CpqAlgorithm::kSimple,     CpqAlgorithm::kSortedDistances,
    CpqAlgorithm::kExhaustive, CpqAlgorithm::kNaive,
    CpqAlgorithm::kHeap,       CpqAlgorithm::kExhaustive,
    CpqAlgorithm::kSimple,     CpqAlgorithm::kSortedDistances};

/// What one engine expansion leaves behind, and what its trace and
/// profile saw.
struct Expansion {
  std::vector<FrontierEntry> out;  // STD: in its frame order
  double bound = kInf;             // T after the expansion
  CpqStats stats;
  std::vector<double> prune_bounds;  // each kPrune event's T
  uint64_t trace_dropped = 0;
  uint64_t considered = 0;
  uint64_t pruned_ineq1 = 0;
};

TEST(SweepExpandTest, MatchesFullGenerationOracle) {
  testing::TreeFixture fx;
  KCPQ_ASSERT_OK(fx.Build(testing::MakeUniformItems(50, 3)));
  const RStarTree& tree = fx.tree();
  const uint64_t m = tree.min_entries();

  Xoshiro256pp rng(20041);
  uint64_t gap_checks = 0;
  uint64_t cut[kTraversals] = {};
  uint64_t descend_pruned[kTraversals] = {};
  uint64_t heap_pruned[kTraversals] = {};
  uint64_t generated[kTraversals] = {};
  int self_joins = 0;
  int traced = 0;
  constexpr int kTrials = 100000;
  for (int trial = 0; trial < kTrials; ++trial) {
    const Metric metric = static_cast<Metric>(rng.NextBounded(3));
    const size_t k = rng.NextBounded(2) == 0 ? 1 : 2 + rng.NextBounded(40);
    const bool rcp = rng.NextBounded(4) == 0;
    Rect window;
    window.lo[0] = window.lo[1] = 0.25;
    window.hi[0] = window.hi[1] = 0.75;
    const QueryObjective objective(
        rcp ? QueryFamily::kRangeClosest : QueryFamily::kClosest, metric,
        rcp ? window : Rect{});
    const int shape = static_cast<int>(rng.NextBounded(4));
    const Node node_p = RandomNode(rng, shape, 100);
    const bool same_node = rng.NextBounded(8) == 0;
    const Node node_q = same_node ? node_p : RandomNode(rng, shape, 1000);
    const PageId page_p = 7;
    const PageId page_q = same_node ? page_p : 9;
    DescendChoice choice = DescendChoice::kBoth;
    if (!same_node) {
      const uint64_t c = rng.NextBounded(6);
      if (c == 0) choice = DescendChoice::kFirstOnly;
      if (c == 1) choice = DescendChoice::kSecondOnly;
    }
    const bool expand_p = choice != DescendChoice::kSecondOnly;
    const bool expand_q = choice != DescendChoice::kFirstOnly;
    const std::vector<Entry> cp = Children(node_p, page_p, expand_p);
    const std::vector<Entry> cq = Children(node_q, page_q, expand_q);
    // The T held before the expansion (for the ε-join, ε's power).
    const double bound = PickBound(rng, cp, cq, objective);
    const bool trace_this = trial % 16 == 0;
    traced += trace_this;
    // Each side's children guarantee m points (a level-0 subtree); a fixed
    // level-1 node guarantees m per entry.
    const uint64_t min_p = expand_p ? m : node_p.entries.size() * m;
    const uint64_t min_q = expand_q ? m : node_q.entries.size() * m;

    // Every traversal expands this node pair from the same T. The ε-join
    // has its own objective, unrestricted, so it runs on closest trials.
    // The farthest family's keys are negated powers, so it starts from the
    // negated T (+infinity stays +infinity).
    const QueryObjective join = QueryObjective::EpsilonJoin(metric, 0.0);
    const QueryObjective farthest(QueryFamily::kFarthest, metric);
    const double far_bound = bound == kInf ? kInf : -bound;
    for (int t = 0; t < kTraversals; ++t) {
      const Traversal traversal = static_cast<Traversal>(t);
      if (traversal == kJoin && rcp) continue;
      const bool far = traversal >= kFarHeap;
      const QueryObjective& goal = traversal == kJoin ? join
                                   : far              ? farthest
                                                      : objective;
      const double start = far ? far_bound : bound;
      CpqOptions options;
      options.algorithm = kAlgorithm[traversal];
      options.k = k;
      options.metric = metric;
      options.self_join = same_node;
      QueryContext context;
      obs::TraceBuffer trace(1 << 12);
      obs::PruningProfile profile;
      if (trace_this) {
        context.set_trace(&trace);
        context.set_profile(&profile);
        options.context = &context;
      }
      Expansion got;
      CpqEngine engine(tree, tree, options, goal, &got.stats);
      CpqEngineTestPeer::Bound(engine) = start;
      CpqEngineTestPeer::Expand(engine, page_p, node_p, page_q, node_q,
                                choice, &got.out);
      const FrontierLess less = CpqEngineTestPeer::Less(engine);
      const CpqAlgorithm algorithm = kAlgorithm[traversal];
      if (algorithm == CpqAlgorithm::kSortedDistances) {
        // STD's frame order (ResumableCpqQuery::ExpandIntoFrame).
        std::sort(got.out.begin(), got.out.end(), less);
      }
      got.bound = CpqEngineTestPeer::Bound(engine);
      if (trace_this) {
        for (const obs::TraceEvent& e : trace.Events()) {
          if (e.kind == obs::TraceEventKind::kPrune) {
            got.prune_bounds.push_back(e.bound);
          }
        }
        got.trace_dropped = trace.dropped();
        for (const obs::LevelPruningCounts& c : profile.levels()) {
          got.considered += c.considered;
          got.pruned_ineq1 += c.pruned_ineq1;
        }
      }

      const bool tighten = algorithm == CpqAlgorithm::kHeap ||
                           algorithm == CpqAlgorithm::kSimple ||
                           algorithm == CpqAlgorithm::kSortedDistances;
      const bool scored = algorithm == CpqAlgorithm::kHeap ||
                          algorithm == CpqAlgorithm::kSortedDistances;
      const Generation want =
          Oracle(cp, cq, min_p, min_q, same_node, goal, k, start, tighten,
                 scored ? options.tie_chain : std::vector<TieCriterion>{});
      const std::string where =
          "trial " + std::to_string(trial) + " traversal " +
          std::to_string(traversal);
      ASSERT_EQ(got.bound, want.bound) << where;
      ASSERT_EQ(got.stats.candidate_pairs_generated, want.pairs.size())
          << where;
      generated[traversal] += want.pairs.size();
      // The pairs counted as pruned during the expansion: HEAP's cut and
      // second-pass prunes, a recursive algorithm's cut.
      const uint64_t expansion_pruned = got.stats.candidate_pairs_pruned;
      if (algorithm == CpqAlgorithm::kHeap) {
        ASSERT_EQ(Survivors(got.out, kInf), Survivors(want.pairs, want.bound))
            << where;
        ASSERT_EQ(expansion_pruned, want.pruned) << where;
        heap_pruned[traversal] += want.pruned;
      } else {
        // The frame is the full list, in generation order (STD: sorted),
        // minus exactly the cut pairs; each cut pair lies beyond the T held
        // before the expansion, so the descent would have pruned it too.
        std::vector<FrontierEntry> full = want.pairs;
        if (algorithm == CpqAlgorithm::kSortedDistances) {
          std::sort(full.begin(), full.end(), less);
        }
        size_t next = 0;
        uint64_t dropped = 0;
        for (const FrontierEntry& w : full) {
          if (next < got.out.size() && SameEntry(got.out[next], w)) {
            ++next;
            continue;
          }
          ASSERT_GT(w.key, start) << where;
          ++dropped;
        }
        ASSERT_EQ(next, got.out.size()) << where;
        ASSERT_EQ(dropped, expansion_pruned) << where;
        // Nothing cut: the frame is the full list.
        if (traversal == kNaive || far) {
          ASSERT_EQ(dropped, 0u) << where;
        }
        uint64_t at_descend = 0;
        for (const FrontierEntry& e : got.out) at_descend += e.key > got.bound;
        ASSERT_EQ(dropped + at_descend, want.pruned) << where;
        cut[traversal] += dropped;
        descend_pruned[traversal] += at_descend;
      }

      if (trace_this) {
        ASSERT_EQ(got.trace_dropped, 0u) << where;
        EXPECT_EQ(got.prune_bounds.size(), expansion_pruned) << where;
        // A recursive algorithm's cut pairs carry the pre-expansion T.
        if (algorithm != CpqAlgorithm::kHeap) {
          for (const double b : got.prune_bounds) {
            ASSERT_EQ(b, start) << where;
          }
        }
        EXPECT_EQ(got.considered, want.pairs.size()) << where;
        EXPECT_EQ(got.pruned_ineq1, expansion_pruned) << where;
      }
    }
    self_joins += same_node;

    // What lets the cut skip the tightening: no child pair's MINMAXDIST
    // is below any of its axis gap powers, exactly.
    for (const Entry& a : cp) {
      for (const Entry& b : cq) {
        const double minmax = MinMaxDistPow(a.rect, b.rect, metric);
        for (int d = 0; d < kDims; ++d) {
          const double gap = std::max(b.rect.lo[d] - a.rect.hi[d],
                                      a.rect.lo[d] - b.rect.hi[d]);
          if (gap <= 0.0) continue;
          ASSERT_GE(minmax, AxisGapPow(gap, metric)) << "trial " << trial;
          ++gap_checks;
        }
      }
    }
  }
  // The trials reached what they exist for: every recursive algorithm both
  // cut pairs and left some for its descent to prune.
  EXPECT_GT(heap_pruned[kHeap], 100000u);
  EXPECT_GT(heap_pruned[kFarHeap], 100000u);
  EXPECT_GT(gap_checks, 1000000u);
  EXPECT_GT(self_joins, 5000);
  EXPECT_GT(traced, 5000);
  for (const Traversal t : {kExh, kSim, kStd, kJoin}) {
    EXPECT_GT(cut[t], 10000u) << "traversal " << t;
  }
  for (const Traversal t : {kSim, kStd, kNaive, kFarExh, kFarSim, kFarStd}) {
    EXPECT_GT(descend_pruned[t], 1000u) << "traversal " << t;
  }
  for (int t = 0; t < kTraversals; ++t) {
    EXPECT_GT(generated[t], 1000000u) << "traversal " << t;
  }
}

}  // namespace
}  // namespace cpq_internal
}  // namespace kcpq
