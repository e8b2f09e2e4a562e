#include "rtree/split.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "geometry/metrics.h"

namespace kcpq {

namespace {

// MBR of entries[begin, end).
Rect MbrOf(const std::vector<Entry>& entries, size_t begin, size_t end) {
  Rect mbr = Rect::Empty();
  for (size_t i = begin; i < end; ++i) mbr.Expand(entries[i].rect);
  return mbr;
}

// Sum over the other entries of how much the candidate's grown rect
// overlaps them, minus the current overlap (R* "overlap enlargement").
// Every term is >= 0 or NaN in floating point: `grown` contains `current`,
// so each clipped side, and their product, can only grow. The partial sum
// therefore never falls, and once `lost(sum)` holds the full sum cannot be
// chosen either: the loop stops and returns false, leaving *delta unset.
template <typename Lost>
bool OverlapEnlargement(const Node& node, size_t candidate, const Rect& grown,
                        const Lost& lost, double* delta) {
  const Rect& current = node.entries[candidate].rect;
  double sum = 0.0;
  if (lost(sum)) return false;
  for (size_t i = 0; i < node.entries.size(); ++i) {
    if (i == candidate) continue;
    const Rect& other = node.entries[i].rect;
    sum += IntersectionArea(grown, other) - IntersectionArea(current, other);
    if (lost(sum)) return false;
  }
  *delta = sum;
  return true;
}

// ChooseSubtree when the children are leaves: minimum overlap
// enlargement, ties by area enlargement, then area, then first index.
// Entries that cannot win are cut short, and the choice is the full
// loop's (docs/architecture.md, "Building a tree").
size_t ChooseLeafSubtree(const Node& node, const Rect& rect) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const size_t n = node.entries.size();
  // With every area finite no score is NaN. The full loop then returns
  // the minimum of (overlap, enlargement, area, index), and the scan may
  // start from any entry's full score. The first entry of least
  // (enlargement, area) bounds the others best: its overlap is 0 when it
  // contains `rect`. A NaN score would make the choice depend on the scan
  // order, so without finite areas the scan starts from nothing, as the
  // full loop does.
  Rect all = rect;
  size_t least = 0;
  double least_enlarge = kInf;
  double least_area = kInf;
  for (size_t i = 0; i < n; ++i) {
    const Rect& current = node.entries[i].rect;
    all.Expand(current);
    const double area = current.Area();
    const double enlarge = Union(current, rect).Area() - area;
    if (enlarge < least_enlarge ||
        (enlarge == least_enlarge && area < least_area)) {
      least = i;
      least_enlarge = enlarge;
      least_area = area;
    }
  }
  size_t best = 0;
  size_t scored = n;  // the entry whose full score seeds the best, if any
  double best_overlap = kInf;
  double best_enlarge = kInf;
  double best_area = kInf;
  if (std::isfinite(all.Area())) {
    const Rect& current = node.entries[least].rect;
    const Rect grown = Union(current, rect);
    best_overlap = 0.0;
    if (!(grown == current)) {
      const auto never = [](double) { return false; };
      OverlapEnlargement(node, least, grown, never, &best_overlap);
    }
    best = scored = least;
    best_enlarge = least_enlarge;
    best_area = least_area;
  }
  for (size_t i = 0; i < n; ++i) {
    if (i == scored) continue;
    const Rect& current = node.entries[i].rect;
    const Rect grown = Union(current, rect);
    const double area = current.Area();
    const double enlarge = grown.Area() - area;
    // No earlier entry ties the seed's (enlargement, area): the seed is
    // the first least enlarged entry. So, as in the full loop, a later
    // entry never wins a complete tie.
    const bool wins_tie = enlarge < best_enlarge ||
                          (enlarge == best_enlarge && area < best_area);
    double overlap = 0.0;
    // `rect` inside `current`: every term is x - x, which is 0 for finite
    // x, and no intersection exceeds a finite `area`.
    if (!(grown == current && std::isfinite(area))) {
      const auto lost = [&](double sum) {
        return sum > best_overlap || (sum == best_overlap && !wins_tie);
      };
      if (!OverlapEnlargement(node, i, grown, lost, &overlap)) continue;
    }
    if (overlap < best_overlap || (overlap == best_overlap && wins_tie)) {
      best = i;
      best_overlap = overlap;
      best_enlarge = enlarge;
      best_area = area;
    }
  }
  return best;
}

}  // namespace

size_t ChooseSubtree(const Node& node, const Rect& rect) {
  assert(!node.IsLeaf() && !node.entries.empty());
  if (node.level == 1) return ChooseLeafSubtree(node, rect);
  size_t best = 0;
  // Children are internal: minimize area enlargement, ties by area.
  double best_enlarge = std::numeric_limits<double>::infinity();
  double best_area = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < node.entries.size(); ++i) {
    const double enlarge = Enlargement(node.entries[i].rect, rect);
    const double area = node.entries[i].rect.Area();
    if (enlarge < best_enlarge ||
        (enlarge == best_enlarge && area < best_area)) {
      best = i;
      best_enlarge = enlarge;
      best_area = area;
    }
  }
  return best;
}

void SplitEntries(std::vector<Entry> entries, size_t min_entries,
                  std::vector<Entry>* left, std::vector<Entry>* right) {
  const size_t total = entries.size();
  assert(total >= 2 * min_entries);
  const size_t distributions = total - 2 * min_entries + 1;

  // Phase 1: choose the split axis by minimal margin sum. For each axis we
  // evaluate both sorts (by lo, by hi) over all legal distributions.
  int best_axis = 0;
  bool best_axis_by_hi = false;
  double best_margin_sum = std::numeric_limits<double>::infinity();
  for (int axis = 0; axis < kDims; ++axis) {
    for (const bool by_hi : {false, true}) {
      std::sort(entries.begin(), entries.end(),
                [axis, by_hi](const Entry& a, const Entry& b) {
                  const double ka = by_hi ? a.rect.hi[axis] : a.rect.lo[axis];
                  const double kb = by_hi ? b.rect.hi[axis] : b.rect.lo[axis];
                  if (ka != kb) return ka < kb;
                  // Secondary key keeps the sort deterministic.
                  return (by_hi ? a.rect.lo[axis] : a.rect.hi[axis]) <
                         (by_hi ? b.rect.lo[axis] : b.rect.hi[axis]);
                });
      double margin_sum = 0.0;
      for (size_t k = 0; k < distributions; ++k) {
        const size_t split_at = min_entries + k;
        margin_sum += MbrOf(entries, 0, split_at).Margin() +
                      MbrOf(entries, split_at, total).Margin();
      }
      if (margin_sum < best_margin_sum) {
        best_margin_sum = margin_sum;
        best_axis = axis;
        best_axis_by_hi = by_hi;
      }
    }
  }

  // Phase 2: on the chosen axis+sort, pick the distribution with minimal
  // overlap area, ties by minimal total area.
  {
    const int axis = best_axis;
    const bool by_hi = best_axis_by_hi;
    std::sort(entries.begin(), entries.end(),
              [axis, by_hi](const Entry& a, const Entry& b) {
                const double ka = by_hi ? a.rect.hi[axis] : a.rect.lo[axis];
                const double kb = by_hi ? b.rect.hi[axis] : b.rect.lo[axis];
                if (ka != kb) return ka < kb;
                return (by_hi ? a.rect.lo[axis] : a.rect.hi[axis]) <
                       (by_hi ? b.rect.lo[axis] : b.rect.hi[axis]);
              });
  }
  size_t best_split = min_entries;
  double best_overlap = std::numeric_limits<double>::infinity();
  double best_area = std::numeric_limits<double>::infinity();
  for (size_t k = 0; k < distributions; ++k) {
    const size_t split_at = min_entries + k;
    const Rect g1 = MbrOf(entries, 0, split_at);
    const Rect g2 = MbrOf(entries, split_at, total);
    const double overlap = IntersectionArea(g1, g2);
    const double area = g1.Area() + g2.Area();
    if (overlap < best_overlap ||
        (overlap == best_overlap && area < best_area)) {
      best_overlap = overlap;
      best_area = area;
      best_split = split_at;
    }
  }

  left->assign(entries.begin(), entries.begin() + best_split);
  right->assign(entries.begin() + best_split, entries.end());
}

void TakeFarthestEntries(Node* node, size_t count,
                         std::vector<Entry>* removed) {
  assert(count < node->entries.size());
  const Point center = node->ComputeMbr().Center();
  // Sort ascending by center distance; tail = farthest `count` entries.
  std::sort(node->entries.begin(), node->entries.end(),
            [&center](const Entry& a, const Entry& b) {
              return SquaredDistance(a.rect.Center(), center) <
                     SquaredDistance(b.rect.Center(), center);
            });
  const size_t keep = node->entries.size() - count;
  // "Close reinsert": reinsertion starts with the entry nearest the center,
  // i.e. the tail in ascending order as-is.
  removed->assign(node->entries.begin() + keep, node->entries.end());
  node->entries.resize(keep);
}

}  // namespace kcpq
