// Sort-Tile-Recursive bulk loading (Leutenegger, Lopez, Edgington 1997).
//
// Packs leaves from an x-sorted, y-tiled ordering, then builds each upper
// level by tiling the level below's MBR centers the same way. Produces a
// valid R*-tree (the insertion path and queries don't care how nodes came
// to be); node shapes differ from insertion-built trees — bench_ablation
// quantifies the effect on closest-pair query cost.

#include <algorithm>
#include <cmath>

#include "rtree/rtree.h"

namespace kcpq {

namespace {

// Tiles `entries` into groups of ~`per_node` (each at least `min_entries`
// unless there is only one group), sorted by x-center slabs then y-center
// within each slab. Writes one node per group at `level` and returns the
// parent entries for the next level up.
Status PackLevel(BufferManager* buffer, std::vector<Entry> entries,
                 size_t per_node, size_t min_entries, int level,
                 std::vector<Entry>* parents) {
  const size_t n = entries.size();
  const size_t node_count = (n + per_node - 1) / per_node;
  const size_t slab_count = static_cast<size_t>(
      std::ceil(std::sqrt(static_cast<double>(node_count))));
  const size_t slab_size = slab_count * per_node;

  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    return a.rect.Center().x() < b.rect.Center().x();
  });
  for (size_t begin = 0; begin < n; begin += slab_size) {
    const size_t end = std::min(n, begin + slab_size);
    std::sort(entries.begin() + begin, entries.begin() + end,
              [](const Entry& a, const Entry& b) {
                return a.rect.Center().y() < b.rect.Center().y();
              });
  }

  // Group boundaries: full nodes of `per_node`, but if the final fragment
  // would be underfull, shift entries from its predecessor to keep every
  // non-root node at (or above) the minimum occupancy.
  std::vector<size_t> bounds;  // exclusive end of each group
  for (size_t end = per_node; end < n; end += per_node) bounds.push_back(end);
  bounds.push_back(n);
  if (bounds.size() >= 2) {
    const size_t last = bounds.size() - 1;
    const size_t tail = bounds[last] - bounds[last - 1];
    if (tail < min_entries) {
      bounds[last - 1] -= min_entries - tail;  // predecessor stays >= m
    }
  }

  parents->clear();
  size_t begin = 0;
  for (const size_t end : bounds) {
    Node node;
    node.level = level;
    node.entries.assign(entries.begin() + begin, entries.begin() + end);
    KCPQ_ASSIGN_OR_RETURN(const PageId page, buffer->Allocate());
    Page raw(buffer->storage()->page_size());
    KCPQ_RETURN_IF_ERROR(SerializeNode(node, &raw));
    KCPQ_RETURN_IF_ERROR(buffer->Write(page, raw));
    parents->push_back(Entry{node.ComputeMbr(), page});
    begin = end;
  }
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<RStarTree>> RStarTree::BulkLoad(
    BufferManager* buffer, std::vector<std::pair<Point, uint64_t>> items,
    const RTreeOptions& options, double fill_factor) {
  if (fill_factor <= 0.0 || fill_factor > 1.0) {
    return Status::InvalidArgument("fill_factor must be in (0, 1]");
  }
  for (const auto& item : items) {
    KCPQ_RETURN_IF_ERROR(CheckStorable(Rect::FromPoint(item.first)));
  }
  KCPQ_ASSIGN_OR_RETURN(auto tree, Create(buffer, options));
  if (items.empty()) return tree;

  // Packed fill must leave room for two groups of m on a split-free level
  // and never drop below m itself.
  const size_t per_node = std::max(
      2 * tree->min_entries_,
      static_cast<size_t>(static_cast<double>(tree->max_entries_) *
                          fill_factor));

  std::vector<Entry> level_entries;
  level_entries.reserve(items.size());
  for (const auto& [point, record_id] : items) {
    level_entries.push_back(Entry::ForPoint(point, record_id));
  }
  tree->size_ = items.size();

  int level = 0;
  // The empty root page Create() made is replaced below; drop it.
  KCPQ_RETURN_IF_ERROR(buffer->Free(tree->root_page_));
  while (true) {
    std::vector<Entry> parents;
    KCPQ_RETURN_IF_ERROR(PackLevel(buffer, std::move(level_entries), per_node,
                                   tree->min_entries_, level, &parents));
    if (parents.size() == 1) {
      tree->root_page_ = parents[0].id;
      tree->height_ = level + 1;
      break;
    }
    level_entries = std::move(parents);
    ++level;
  }
  KCPQ_RETURN_IF_ERROR(tree->WriteMeta());
  return tree;
}

}  // namespace kcpq
