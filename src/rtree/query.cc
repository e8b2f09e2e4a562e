// Range query, best-first K-nearest-neighbor query, and level statistics.
//
// Every traversal here carries each page's expected level — the level its
// parent entry implies, height - 1 for the root — and rejects a page at
// any other level as kCorruption (CheckNodeLevel). Levels strictly
// decrease along every path, so a page that lists itself or an ancestor
// as a child ends the traversal instead of looping it.

#include <cmath>
#include <queue>

#include "rtree/rtree.h"

namespace kcpq {

namespace {

// A page to read and the level its parent implies.
struct PageAt {
  PageId page;
  int level;
};

Status ReadAt(const RStarTree& tree, PageAt at, Node* node,
              QueryContext* ctx = nullptr) {
  KCPQ_RETURN_IF_ERROR(tree.ReadNode(at.page, node, ctx));
  return CheckNodeLevel(*node, at.level, at.page);
}

}  // namespace

Status RStarTree::RangeQuery(const Rect& range, std::vector<Entry>* out) const {
  // Iterative DFS; a leaf entry's degenerate rect intersects `range` iff the
  // point lies inside it.
  std::vector<PageAt> stack = {{root_page_, height_ - 1}};
  while (!stack.empty()) {
    const PageAt at = stack.back();
    stack.pop_back();
    Node node;
    KCPQ_RETURN_IF_ERROR(ReadAt(*this, at, &node));
    for (const Entry& e : node.entries) {
      if (!range.Intersects(e.rect)) continue;
      if (node.IsLeaf()) {
        out->push_back(e);
      } else {
        stack.push_back({e.id, at.level - 1});
      }
    }
  }
  return Status::OK();
}

Status RStarTree::NearestNeighbors(const Point& query, size_t k,
                                   std::vector<Neighbor>* out,
                                   Metric metric) const {
  if (k == 0) return Status::OK();
  // Best-first search: a single priority queue over subtrees (keyed by
  // MINDIST to their MBR) and leaf entries (keyed by exact distance). When
  // an entry reaches the front, no unexplored item can beat it. Keys live
  // in the metric's power space (see geometry/minkowski.h).
  struct Item {
    double dist2;
    bool is_node;
    PageAt node;  // when is_node
    Entry entry;  // when !is_node
  };
  const Rect query_rect = Rect::FromPoint(query);
  auto cmp = [](const Item& a, const Item& b) { return a.dist2 > b.dist2; };
  std::priority_queue<Item, std::vector<Item>, decltype(cmp)> queue(cmp);
  queue.push(Item{0.0, true, {root_page_, height_ - 1}, Entry{}});
  while (!queue.empty()) {
    const Item item = queue.top();
    queue.pop();
    if (!item.is_node) {
      out->push_back(Neighbor{item.entry, PowToDistance(item.dist2, metric)});
      if (out->size() == k) return Status::OK();
      continue;
    }
    Node node;
    KCPQ_RETURN_IF_ERROR(ReadAt(*this, item.node, &node));
    for (const Entry& e : node.entries) {
      // MINDIST to the entry rect: exact point distance for point data,
      // nearest-face distance for extended objects and subtree MBRs.
      const double key = MinMinDistPow(query_rect, e.rect, metric);
      if (node.IsLeaf()) {
        queue.push(Item{key, false, {kInvalidPageId, -1}, e});
      } else {
        queue.push(Item{key, true, {e.id, item.node.level - 1}, Entry{}});
      }
    }
  }
  return Status::OK();  // fewer than k points in the tree
}

Status RStarTree::CollectLevelGeometry(
    std::vector<LevelGeometry>* out) const {
  out->assign(height_, LevelGeometry{});
  for (int i = 0; i < height_; ++i) (*out)[i].level = i;
  // Gather every node's MBR per level, then the O(n^2) overlap sums.
  // The level checks keep every index below in [0, height_).
  std::vector<std::vector<Rect>> mbrs(height_);
  std::vector<PageAt> stack = {{root_page_, height_ - 1}};
  while (!stack.empty()) {
    const PageAt at = stack.back();
    stack.pop_back();
    Node node;
    KCPQ_RETURN_IF_ERROR(ReadAt(*this, at, &node));
    if (at.page == root_page_) mbrs[at.level].push_back(node.ComputeMbr());
    if (node.IsLeaf()) continue;
    for (const Entry& e : node.entries) {
      mbrs[at.level - 1].push_back(e.rect);
      stack.push_back({e.id, at.level - 1});
    }
  }
  for (int level = 0; level < height_; ++level) {
    LevelGeometry& geometry = (*out)[level];
    const std::vector<Rect>& rects = mbrs[level];
    for (size_t i = 0; i < rects.size(); ++i) {
      geometry.total_area += rects[i].Area();
      for (size_t j = i + 1; j < rects.size(); ++j) {
        geometry.pairwise_overlap_area +=
            IntersectionArea(rects[i], rects[j]);
      }
    }
  }
  return Status::OK();
}

Status RStarTree::ScanLeaves(
    const std::function<bool(const Node& leaf)>& visit,
    QueryContext* ctx) const {
  std::vector<PageAt> stack = {{root_page_, height_ - 1}};
  while (!stack.empty()) {
    const PageAt at = stack.back();
    stack.pop_back();
    Node node;
    KCPQ_RETURN_IF_ERROR(ReadAt(*this, at, &node, ctx));
    if (node.IsLeaf()) {
      if (!visit(node)) return Status::OK();
      continue;
    }
    for (const Entry& e : node.entries) stack.push_back({e.id, at.level - 1});
  }
  return Status::OK();
}

Status RStarTree::CollectLevelStats(std::vector<LevelStats>* out) const {
  out->assign(height_, LevelStats{});
  for (int i = 0; i < height_; ++i) (*out)[i].level = i;
  std::vector<PageAt> stack = {{root_page_, height_ - 1}};
  while (!stack.empty()) {
    const PageAt at = stack.back();
    stack.pop_back();
    Node node;
    KCPQ_RETURN_IF_ERROR(ReadAt(*this, at, &node));
    LevelStats& stats = (*out)[at.level];
    ++stats.nodes;
    stats.entries += node.entries.size();
    if (!node.IsLeaf()) {
      for (const Entry& e : node.entries) stack.push_back({e.id, at.level - 1});
    }
  }
  return Status::OK();
}

}  // namespace kcpq
