// R-tree node: in-memory form and on-page serialization.
//
// On-page layout (little-endian, as on every platform we target):
//
//   offset 0   int32   level      (0 = leaf)
//   offset 4   int32   count      (number of entries)
//   offset 8   int64   reserved
//   offset 16  entries, kEntrySize (48 for 2-D) bytes each:
//     2*kDims x f64  MBR (lo[0..kDims), hi[0..kDims))
//     int64          child page id (internal) / record id (leaf)
//     int64          reserved (payload hook; also sizes the 2-D entry so
//                    that the paper's 1 KiB page yields exactly M = 21)
//
// Leaf entries store the indexed point as a degenerate rectangle
// (lo == hi), which lets every distance metric treat node MBRs and data
// points uniformly.

#ifndef KCPQ_RTREE_NODE_H_
#define KCPQ_RTREE_NODE_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "geometry/rect.h"
#include "storage/page.h"

namespace kcpq {

/// One slot of a node: a rectangle plus a child page id (internal nodes) or
/// a user record id (leaves).
struct Entry {
  Rect rect;
  uint64_t id = 0;

  /// Leaf-entry point accessor (valid when the rect is degenerate).
  Point AsPoint() const {
    Point p;
    for (int d = 0; d < kDims; ++d) p.coord[d] = rect.lo[d];
    return p;
  }

  static Entry ForPoint(const Point& p, uint64_t record_id) {
    return Entry{Rect::FromPoint(p), record_id};
  }
};

/// In-memory image of one node page.
struct Node {
  int32_t level = 0;  // 0 = leaf; root level = tree height - 1
  std::vector<Entry> entries;
  /// The node's per-axis sweep orders (BuildAxisOrders), or empty when not
  /// built. DeserializeNode never builds them; a buffer frame does, once
  /// per residency, for the nodes the query engines read.
  std::vector<uint32_t> axis_order;

  bool IsLeaf() const { return level == 0; }

  /// True when axis_order holds every axis's order of the current entries.
  bool HasAxisOrders() const {
    return axis_order.size() == kDims * entries.size();
  }

  /// Axis `d`'s order: entries.size() indices, ascending by rect.lo[d].
  /// Valid only when HasAxisOrders().
  const uint32_t* AxisOrder(int d) const {
    return axis_order.data() + static_cast<size_t>(d) * entries.size();
  }

  /// Tight MBR over the entries; Rect::Empty() for an empty node.
  Rect ComputeMbr() const {
    Rect mbr = Rect::Empty();
    for (const Entry& e : entries) mbr.Expand(e.rect);
    return mbr;
  }
};

/// Size of the fixed node header on a page, in bytes.
inline constexpr size_t kNodeHeaderSize = 16;
/// Size of one serialized entry, in bytes: the MBR (2 * kDims doubles),
/// the child/record id, and one reserved word. Derived from kDims so the
/// whole on-disk layout follows geometry/point.h's dimension constant;
/// with kDims = 2 this is 48 bytes — the paper's M = 21 on 1 KiB pages.
inline constexpr size_t kEntrySize =
    2 * kDims * sizeof(double) + 2 * sizeof(int64_t);

/// Maximum entries per node for a page size (the R-tree's M).
/// 1 KiB pages give 21, the paper's configuration.
inline constexpr size_t NodeCapacity(size_t page_size) {
  return (page_size - kNodeHeaderSize) / kEntrySize;
}

/// Serializes `node` into `*page` (must already have the target page size).
/// Fails if the node has more entries than the page can hold.
Status SerializeNode(const Node& node, Page* page);

/// Parses `page` into `*node`. Fails on an impossible count or level.
/// Leaves `node->axis_order` empty.
Status DeserializeNode(const Page& page, Node* node);

/// The highest level a node may carry. R-tree heights are single digits
/// even for billions of entries, so anything above this is corruption.
inline constexpr int32_t kMaxNodeLevel = 64;

/// kCorruption unless `node`, read from `page`, sits at `expected_level`:
/// the level its parent entry implies (the root's is height - 1). A
/// traversal that adopted a wrong level would, for example, sweep an
/// internal node as a leaf and report its child page ids as point ids.
Status CheckNodeLevel(const Node& node, int expected_level, PageId page);

/// Writes to `order` the indices of `entries` ascending by rect.lo[axis]:
/// exactly the permutation std::sort produces on the entries themselves
/// (the sort sees the same comparisons in the same positions), so a sweep
/// over the order visits equal-lo entries as a sweep over sorted copies.
void SortAxisOrder(const std::vector<Entry>& entries, int axis,
                   uint32_t* order);

/// Fills `node->axis_order` with every axis's SortAxisOrder, axis-major.
void BuildAxisOrders(Node* node);

}  // namespace kcpq

#endif  // KCPQ_RTREE_NODE_H_
