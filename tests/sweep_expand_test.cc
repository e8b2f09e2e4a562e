// HEAP's node-pair expansion as an axis sweep (cpq/engine.cc,
// CpqEngine::SweepCandidates) against the full generation it replaced:
// every child pair's key computed, T tightened over all of them, then the
// pairs with key > T pruned. The oracle below is that loop. Over 100,000
// seeded node pairs — L1, L2 and Linf; K = 1 and K > 1; closest and
// range-restricted; a self-join on one node; fixed sides; touching,
// one-ulp-apart and elongated child MBRs; T at, one ulp around and between
// keys and gap powers — the sweep must leave the same surviving child
// keys, the same T after tightening, and the same generated and pruned
// counts (and, with a trace attached, one kPrune event per pruned pair).

#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "cpq/engine.h"
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
};

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// A child pair that survives: (page p, page q, key).
using Survivor = std::tuple<PageId, PageId, double>;

/// What one expansion leaves behind.
struct Outcome {
  std::vector<Survivor> survivors;  // sorted
  double bound = kInf;
  uint64_t generated = 0;
  uint64_t pruned = 0;
};

/// A side's children as the engine sees them: an expanded node's entries,
/// or a fixed node as its own single child (its MBR and page).
std::vector<Entry> Children(const Node& node, PageId page, bool expand) {
  if (expand) return node.entries;
  return {Entry{node.ComputeMbr(), page}};
}

/// The full-generation loop: every eligible child pair's key, T tightened
/// over all of them (K = 1: MINMAXDIST; K > 1: the Section 3.8 count over
/// MAXMAXDIST), then every pair with key > T pruned.
Outcome Oracle(const std::vector<Entry>& cp, const std::vector<Entry>& cq,
               uint64_t min_points_p, uint64_t min_points_q, bool same_node,
               const QueryObjective& objective, size_t k, double bound) {
  struct Pair {
    double key;
    size_t i, j;
  };
  std::vector<Pair> pairs;
  for (size_t i = 0; i < cp.size(); ++i) {
    if (!objective.SubtreeEligible(cp[i].rect)) continue;
    for (size_t j = 0; j < cq.size(); ++j) {
      if (!objective.SubtreeEligible(cq[j].rect)) continue;
      if (same_node && cp[i].id > cq[j].id) continue;
      pairs.push_back({objective.NodeKey(cp[i].rect, cq[j].rect), i, j});
    }
  }
  const Metric metric = objective.metric();
  if (!pairs.empty() && objective.CanTightenFromCapacities()) {
    if (k == 1) {
      for (const Pair& c : pairs) {
        bound = std::min(bound,
                         MinMaxDistPow(cp[c.i].rect, cq[c.j].rect, metric));
      }
    } else {
      std::vector<double> tighten;
      for (const Pair& c : pairs) {
        tighten.push_back(MaxMaxDistPow(cp[c.i].rect, cq[c.j].rect, metric));
      }
      std::sort(tighten.begin(), tighten.end());
      const uint64_t min_pairs = min_points_p * min_points_q;
      const uint64_t needed = (k + min_pairs - 1) / min_pairs;
      if (needed <= tighten.size()) {
        bound = std::min(bound, tighten[needed - 1]);
      }
    }
  }
  Outcome out;
  out.bound = bound;
  out.generated = pairs.size();
  for (const Pair& c : pairs) {
    if (c.key > bound) {
      ++out.pruned;
    } else {
      out.survivors.emplace_back(cp[c.i].id, cq[c.j].id, c.key);
    }
  }
  std::sort(out.survivors.begin(), out.survivors.end());
  return out;
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

TEST(SweepExpandTest, MatchesFullGenerationOracle) {
  testing::TreeFixture fx;
  KCPQ_ASSERT_OK(fx.Build(testing::MakeUniformItems(50, 3)));
  const RStarTree& tree = fx.tree();
  const uint64_t m = tree.min_entries();

  Xoshiro256pp rng(20041);
  uint64_t total_pruned = 0;
  uint64_t gap_checks = 0;
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
    const double bound = PickBound(rng, cp, cq, objective);

    CpqOptions options;
    options.algorithm = CpqAlgorithm::kHeap;
    options.k = k;
    options.metric = metric;
    options.self_join = same_node;
    QueryContext context;
    obs::TraceBuffer trace(1 << 12);
    obs::PruningProfile profile;
    const bool trace_this = trial % 16 == 0;
    if (trace_this) {
      context.set_trace(&trace);
      context.set_profile(&profile);
      options.context = &context;
      ++traced;
    }
    CpqStats stats;
    CpqEngine engine(tree, tree, options, objective, &stats);
    CpqEngineTestPeer::Bound(engine) = bound;
    std::vector<FrontierEntry> heap;
    CpqEngineTestPeer::Expand(engine, page_p, node_p, page_q, node_q, choice,
                              &heap);
    Outcome got;
    got.bound = CpqEngineTestPeer::Bound(engine);
    got.generated = stats.candidate_pairs_generated;
    got.pruned = stats.candidate_pairs_pruned;
    for (const FrontierEntry& e : heap) {
      got.survivors.emplace_back(e.page_p, e.page_q, e.key);
    }
    std::sort(got.survivors.begin(), got.survivors.end());

    // Each side's children guarantee m points (a level-0 subtree); a fixed
    // level-1 node guarantees m per entry.
    const uint64_t min_p = expand_p ? m : node_p.entries.size() * m;
    const uint64_t min_q = expand_q ? m : node_q.entries.size() * m;
    const Outcome want =
        Oracle(cp, cq, min_p, min_q, same_node, objective, k, bound);
    ASSERT_EQ(got.survivors, want.survivors) << "trial " << trial;
    ASSERT_EQ(got.bound, want.bound) << "trial " << trial;
    ASSERT_EQ(got.generated, want.generated) << "trial " << trial;
    ASSERT_EQ(got.pruned, want.pruned) << "trial " << trial;
    total_pruned += want.pruned;
    self_joins += same_node;

    if (trace_this) {
      uint64_t prunes = 0;
      for (const obs::TraceEvent& e : trace.Events()) {
        prunes += e.kind == obs::TraceEventKind::kPrune;
      }
      ASSERT_EQ(trace.dropped(), 0u);
      EXPECT_EQ(prunes, want.pruned) << "trial " << trial;
      uint64_t considered = 0, pruned_ineq1 = 0;
      for (const obs::LevelPruningCounts& c : profile.levels()) {
        considered += c.considered;
        pruned_ineq1 += c.pruned_ineq1;
      }
      EXPECT_EQ(considered, want.generated) << "trial " << trial;
      EXPECT_EQ(pruned_ineq1, want.pruned) << "trial " << trial;
    }

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
  // The trials reached what they exist for.
  EXPECT_GT(total_pruned, 100000u);
  EXPECT_GT(gap_checks, 1000000u);
  EXPECT_GT(self_joins, 5000);
  EXPECT_GT(traced, 5000);
}

}  // namespace
}  // namespace cpq_internal
}  // namespace kcpq
