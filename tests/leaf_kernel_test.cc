// The plane-sweep leaf kernel walks index orders (a frame's prebuilt axis
// orders, or one sorted into scratch) instead of sorted copies. This suite
// pins that the walk visits exactly the pairs, in exactly the order, of
// the copy-and-std::sort sweep it replaced.

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "common/random.h"
#include "cpq/leaf_kernel.h"
#include "gtest/gtest.h"
#include "rtree/node.h"

namespace kcpq {
namespace {

using Visits = std::vector<std::pair<uint64_t, uint64_t>>;

/// Pruning bound of a K = 3 closest-pair search fed by the visits, so the
/// early-exit test fires mid-sweep exactly as in the engines.
class Top3Bound {
 public:
  double bound() const {
    return best_.size() < 3 ? std::numeric_limits<double>::infinity()
                            : best_.back();
  }
  void Offer(double d) {
    best_.push_back(d);
    std::sort(best_.begin(), best_.end());
    if (best_.size() > 3) best_.pop_back();
  }

 private:
  std::vector<double> best_;
};

/// The sweep as it was before leaves carried orders: copy both entry
/// sets, std::sort the copies by lo on the widest axis, merge.
Visits ReferenceSweep(const std::vector<Entry>& a, const std::vector<Entry>& b,
                      bool strict, int* axis_used) {
  double lo[kDims], hi[kDims];
  for (int d = 0; d < kDims; ++d) {
    lo[d] = std::numeric_limits<double>::infinity();
    hi[d] = -std::numeric_limits<double>::infinity();
  }
  for (const auto* items : {&a, &b}) {
    for (const Entry& e : *items) {
      for (int d = 0; d < kDims; ++d) {
        lo[d] = std::min(lo[d], e.rect.lo[d]);
        hi[d] = std::max(hi[d], e.rect.hi[d]);
      }
    }
  }
  int axis = 0;
  double best_spread = -1.0;
  for (int d = 0; d < kDims; ++d) {
    if (hi[d] - lo[d] > best_spread) {
      best_spread = hi[d] - lo[d];
      axis = d;
    }
  }
  *axis_used = axis;
  std::vector<Entry> sa = a, sb = b;
  const auto by_lo = [&](const Entry& x, const Entry& y) {
    return x.rect.lo[axis] < y.rect.lo[axis];
  };
  std::sort(sa.begin(), sa.end(), by_lo);
  std::sort(sb.begin(), sb.end(), by_lo);
  Top3Bound top;
  Visits visits;
  const auto beyond = [&](double ref_hi, const Entry& other) {
    const double gap = other.rect.lo[axis] - ref_hi;
    if (gap <= 0.0) return false;
    const double p = AxisGapPow(gap, Metric::kL2);
    return strict ? p > top.bound() : p >= top.bound();
  };
  const auto visit = [&](const Entry& x, const Entry& y) {
    visits.emplace_back(x.id, y.id);
    top.Offer(MinMinDistPow(x.rect, y.rect, Metric::kL2));
  };
  size_t i = 0, j = 0;
  while (i < sa.size() && j < sb.size()) {
    if (sa[i].rect.lo[axis] <= sb[j].rect.lo[axis]) {
      for (size_t jj = j; jj < sb.size(); ++jj) {
        if (beyond(sa[i].rect.hi[axis], sb[jj])) break;
        visit(sa[i], sb[jj]);
      }
      ++i;
    } else {
      for (size_t ii = i; ii < sa.size(); ++ii) {
        if (beyond(sb[j].rect.hi[axis], sa[ii])) break;
        visit(sa[ii], sb[j]);
      }
      ++j;
    }
  }
  return visits;
}

Visits KernelSweep(const Node& a, const Node& b, bool strict,
                   cpq_internal::SweepScratch* scratch) {
  Top3Bound top;
  Visits visits;
  cpq_internal::PlaneSweepPairs(
      a, b, Metric::kL2, strict, scratch, [&] { return top.bound(); },
      [&](const Entry& x, const Entry& y) {
        visits.emplace_back(x.id, y.id);
        top.Offer(MinMinDistPow(x.rect, y.rect, Metric::kL2));
        return true;
      });
  return visits;
}

/// A leaf of 1-21 entries on a coarse grid (many equal lo values), with
/// per-axis scales so either axis can be the widest. Some entries are
/// boxes rather than points.
Node RandomLeaf(Xoshiro256pp& rng, uint64_t first_id, const double scale[]) {
  Node leaf;
  const size_t n = 1 + rng.NextBounded(21);
  for (size_t i = 0; i < n; ++i) {
    Entry e;
    for (int d = 0; d < kDims; ++d) {
      e.rect.lo[d] = scale[d] * static_cast<double>(rng.NextBounded(6)) / 5;
      e.rect.hi[d] = e.rect.lo[d];
      if (rng.NextBounded(4) == 0) {
        e.rect.hi[d] += scale[d] * static_cast<double>(rng.NextBounded(3)) / 10;
      }
    }
    e.id = first_id + i;
    leaf.entries.push_back(e);
  }
  return leaf;
}

TEST(LeafKernelTest, OrderSweepVisitsLikeSortedCopySweep) {
  Xoshiro256pp rng(2024);
  cpq_internal::SweepScratch scratch;
  int axis_trials[kDims] = {};
  int large_trials = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    double scale[kDims];
    for (int d = 0; d < kDims; ++d) {
      scale[d] = 1.0 + static_cast<double>(rng.NextBounded(4));
    }
    Node a = RandomLeaf(rng, 0, scale);
    Node b = RandomLeaf(rng, 1000, scale);
    const bool strict = trial % 2 == 1;
    int axis = 0;
    const Visits want = ReferenceSweep(a.entries, b.entries, strict, &axis);
    ++axis_trials[axis];
    if (a.entries.size() > 16 && b.entries.size() > 16) ++large_trials;

    // Without orders: the sweep axis is sorted into the scratch.
    ASSERT_FALSE(a.HasAxisOrders() && !a.entries.empty());
    EXPECT_EQ(KernelSweep(a, b, strict, &scratch), want) << "trial " << trial;

    // With a frame's prebuilt orders (and mixed: one side only).
    BuildAxisOrders(&a);
    EXPECT_EQ(KernelSweep(a, b, strict, &scratch), want) << "trial " << trial;
    BuildAxisOrders(&b);
    EXPECT_EQ(KernelSweep(a, b, strict, &scratch), want) << "trial " << trial;
  }
  for (int d = 0; d < kDims; ++d) {
    EXPECT_GT(axis_trials[d], 100) << "axis " << d << " barely exercised";
  }
  EXPECT_GT(large_trials, 50);  // introsort's partition path ran
}

// Each axis order is the permutation std::sort gives the entries.
TEST(LeafKernelTest, AxisOrdersArePermutationsOfStdSort) {
  Xoshiro256pp rng(7);
  double scale[kDims];
  std::fill(scale, scale + kDims, 1.0);
  for (int trial = 0; trial < 500; ++trial) {
    Node leaf = RandomLeaf(rng, 0, scale);
    BuildAxisOrders(&leaf);
    ASSERT_TRUE(leaf.HasAxisOrders());
    for (int d = 0; d < kDims; ++d) {
      std::vector<Entry> sorted = leaf.entries;
      std::sort(sorted.begin(), sorted.end(),
                [&](const Entry& x, const Entry& y) {
                  return x.rect.lo[d] < y.rect.lo[d];
                });
      for (size_t i = 0; i < sorted.size(); ++i) {
        EXPECT_EQ(leaf.entries[leaf.AxisOrder(d)[i]].id, sorted[i].id)
            << "trial " << trial << " axis " << d << " rank " << i;
      }
    }
  }
}

}  // namespace
}  // namespace kcpq
