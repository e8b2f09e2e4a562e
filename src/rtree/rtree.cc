#include "rtree/rtree.h"

#include <algorithm>
#include <cstring>
#include <string>

#include "rtree/split.h"

namespace kcpq {

namespace {

constexpr uint64_t kMetaMagic = 0x6b637071'72747265ULL;  // "kcpqrtre"

// Serialized metadata, stored at the front of the meta page.
struct MetaBlock {
  uint64_t magic;
  uint64_t root_page;
  int64_t height;
  uint64_t size;
  uint64_t max_entries;
  uint64_t min_entries;
  uint64_t flags;  // bit 0: tree holds extended (non-point) objects
};

constexpr uint64_t kFlagExtendedObjects = 1;

}  // namespace

RStarTree::RStarTree(BufferManager* buffer, const RTreeOptions& options)
    : buffer_(buffer),
      max_entries_(NodeCapacity(buffer->storage()->page_size())),
      min_entries_(std::max<size_t>(
          1, static_cast<size_t>(static_cast<double>(max_entries_) *
                                 options.min_fill_fraction))),
      reinsert_count_(std::max<size_t>(
          1, static_cast<size_t>(static_cast<double>(max_entries_) *
                                 options.reinsert_fraction))),
      forced_reinsert_(options.forced_reinsert) {}

Result<std::unique_ptr<RStarTree>> RStarTree::Create(
    BufferManager* buffer, const RTreeOptions& options) {
  if (options.min_fill_fraction <= 0.0 || options.min_fill_fraction > 0.5) {
    return Status::InvalidArgument("min_fill_fraction must be in (0, 0.5]");
  }
  auto tree = std::unique_ptr<RStarTree>(new RStarTree(buffer, options));
  if (tree->max_entries_ < 4) {
    return Status::InvalidArgument("page too small for an R-tree node");
  }
  KCPQ_ASSIGN_OR_RETURN(tree->meta_page_, buffer->Allocate());
  KCPQ_ASSIGN_OR_RETURN(tree->root_page_, buffer->Allocate());
  tree->height_ = 1;
  tree->size_ = 0;
  Node root;
  root.level = 0;
  KCPQ_RETURN_IF_ERROR(tree->WriteNode(tree->root_page_, root));
  KCPQ_RETURN_IF_ERROR(tree->WriteMeta());
  return tree;
}

Result<std::unique_ptr<RStarTree>> RStarTree::Open(
    BufferManager* buffer, PageId meta_page, const RTreeOptions& options) {
  auto tree = std::unique_ptr<RStarTree>(new RStarTree(buffer, options));
  tree->meta_page_ = meta_page;
  KCPQ_RETURN_IF_ERROR(tree->ReadMeta());
  return tree;
}

Status RStarTree::WriteMeta() {
  Page page(buffer_->storage()->page_size());
  MetaBlock meta{kMetaMagic,   root_page_,   height_,
                 size_,        max_entries_, min_entries_,
                 has_extended_ ? kFlagExtendedObjects : 0};
  std::memcpy(page.data(), &meta, sizeof(meta));
  return buffer_->Write(meta_page_, page);
}

Status RStarTree::ReadMeta() {
  Page page;
  KCPQ_RETURN_IF_ERROR(buffer_->Read(meta_page_, &page));
  MetaBlock meta;
  if (page.size() < sizeof(meta)) return Status::Corruption("short meta page");
  std::memcpy(&meta, page.data(), sizeof(meta));
  if (meta.magic != kMetaMagic) {
    return Status::Corruption("bad R-tree meta magic");
  }
  if (meta.max_entries != max_entries_) {
    return Status::Corruption("page size mismatch with stored tree");
  }
  if (meta.height < 1 || meta.height > kMaxNodeLevel + 1) {
    return Status::Corruption("R-tree height out of range");
  }
  root_page_ = meta.root_page;
  height_ = static_cast<int>(meta.height);
  size_ = meta.size;
  min_entries_ = meta.min_entries;
  has_extended_ = (meta.flags & kFlagExtendedObjects) != 0;
  return Status::OK();
}

Status RStarTree::ReadNode(PageId page, Node* node, QueryContext* ctx) const {
  return buffer_->ReadNode(page, node, ctx, Waker(), nullptr,
                           /*axis_orders=*/false);
}

Status RStarTree::TryReadNode(PageId page, Node* node, QueryContext* ctx,
                              const Waker& waker,
                              BufferManager::TryReadOutcome* outcome) const {
  return buffer_->ReadNode(page, node, ctx, waker, outcome);
}

Status RStarTree::WriteNode(PageId page, const Node& node) {
  Page raw(buffer_->storage()->page_size());
  KCPQ_RETURN_IF_ERROR(SerializeNode(node, &raw));
  return buffer_->Write(page, raw);
}

Status RStarTree::RootMbr(Rect* mbr) const {
  Node root;
  KCPQ_RETURN_IF_ERROR(ReadNode(root_page_, &root));
  *mbr = root.ComputeMbr();
  return Status::OK();
}

Status RStarTree::Flush() {
  KCPQ_RETURN_IF_ERROR(WriteMeta());
  KCPQ_RETURN_IF_ERROR(buffer_->Flush());
  return buffer_->storage()->Sync();
}

Status RStarTree::Insert(const Point& p, uint64_t record_id) {
  return InsertRect(Rect::FromPoint(p), record_id);
}

Status RStarTree::CheckStorable(const Rect& rect) {
  // Every stored rect is an input rect or a union (componentwise min/max)
  // of input rects, so each of its bounds lies in [-kMaxCoordinate,
  // kMaxCoordinate]. Its extent hi - lo is then at most 2 * kMaxCoordinate
  // = DBL_MAX exactly (halving DBL_MAX is exact), and rounding the
  // subtraction cannot exceed that representable bound. So every node a
  // valid insert writes passes DeserializeNode's Rect::IsValid check; a
  // larger magnitude could store a union whose extent overflows to
  // infinity and leave the tree unreadable.
  for (int d = 0; d < kDims; ++d) {
    // Written so a NaN fails every comparison and is rejected.
    if (!(rect.lo[d] <= rect.hi[d] && rect.lo[d] >= -kMaxCoordinate &&
          rect.hi[d] <= kMaxCoordinate)) {
      return Status::InvalidArgument(
          "rect is inverted, NaN, or has a coordinate of magnitude above "
          "DBL_MAX/2");
    }
  }
  return Status::OK();
}

Status RStarTree::InsertRect(const Rect& rect, uint64_t record_id) {
  KCPQ_RETURN_IF_ERROR(CheckStorable(rect));
  KCPQ_RETURN_IF_ERROR(InsertAtLevel(Entry{rect, record_id}, 0));
  ++size_;
  for (int d = 0; d < kDims; ++d) {
    if (rect.lo[d] != rect.hi[d]) {
      has_extended_ = true;
      break;
    }
  }
  return Status::OK();
}

Status RStarTree::InsertAtLevel(const Entry& entry, int level) {
  // One insertion may trigger forced reinsertions (at most one per level,
  // tracked by the bitmask), each of which re-enters the tree from the top.
  std::vector<std::pair<Entry, int>> pending;
  pending.emplace_back(entry, level);
  uint32_t reinserted_levels = 0;
  while (!pending.empty()) {
    auto [e, lvl] = pending.back();
    pending.pop_back();
    Rect mbr;
    std::vector<Entry> split;
    KCPQ_RETURN_IF_ERROR(InsertRecursive(root_page_, height_ - 1, e, lvl,
                                         &reinserted_levels, &pending, &mbr,
                                         &split));
    if (!split.empty()) {
      // Root split: grow the tree by one level.
      Node old_root;
      KCPQ_RETURN_IF_ERROR(ReadNode(root_page_, &old_root));
      Node new_root;
      new_root.level = old_root.level + 1;
      new_root.entries.push_back(Entry{mbr, root_page_});
      for (const Entry& s : split) new_root.entries.push_back(s);
      KCPQ_ASSIGN_OR_RETURN(const PageId new_root_page, buffer_->Allocate());
      KCPQ_RETURN_IF_ERROR(WriteNode(new_root_page, new_root));
      root_page_ = new_root_page;
      ++height_;
    }
  }
  return Status::OK();
}

Status RStarTree::InsertRecursive(
    PageId page, int level, const Entry& entry, int target_level,
    uint32_t* reinserted_levels, std::vector<std::pair<Entry, int>>* pending,
    Rect* mbr, std::vector<Entry>* split) {
  Node node;
  KCPQ_RETURN_IF_ERROR(ReadNode(page, &node));
  KCPQ_RETURN_IF_ERROR(CheckNodeLevel(node, level, page));
  if (level < target_level) {
    return Status::Internal("insertion descended past its target level");
  }
  // The node keeps its page's bytes unless an entry lands here, the child
  // splits, or the child's MBR moves. Bytes, not operator==: a -0.0 that
  // replaces a 0.0 is a change on the page.
  bool changed = true;
  if (level == target_level) {
    node.entries.push_back(entry);
  } else {
    const size_t child_idx = ChooseSubtree(node, entry.rect);
    Rect child_mbr;
    std::vector<Entry> child_split;
    KCPQ_RETURN_IF_ERROR(InsertRecursive(node.entries[child_idx].id,
                                         level - 1, entry, target_level,
                                         reinserted_levels, pending,
                                         &child_mbr, &child_split));
    Rect& stored = node.entries[child_idx].rect;
    changed = !child_split.empty() ||
              std::memcmp(&stored, &child_mbr, sizeof(Rect)) != 0;
    stored = child_mbr;
    for (const Entry& s : child_split) node.entries.push_back(s);
  }

  if (node.entries.size() > max_entries_) {
    KCPQ_RETURN_IF_ERROR(
        OverflowTreatment(page, &node, reinserted_levels, pending, split));
  } else if (changed || buffer_->capacity() > 0) {
    // An unchanged node is rewritten only through a caching buffer, where
    // Write also refreshes the page's place in the replacement order.
    KCPQ_RETURN_IF_ERROR(WriteNode(page, node));
  }
  *mbr = node.ComputeMbr();
  return Status::OK();
}

Status RStarTree::OverflowTreatment(
    PageId page, Node* node, uint32_t* reinserted_levels,
    std::vector<std::pair<Entry, int>>* pending, std::vector<Entry>* split) {
  // Levels beyond the mask width (impossible below ~2^32 nodes) simply
  // forgo forced reinsertion rather than shifting out of range.
  const uint32_t level_bit = node->level < 32 ? 1u << node->level : 0;
  const bool is_root = node->level == height_ - 1;
  if (!is_root && forced_reinsert_ && level_bit != 0 &&
      !(*reinserted_levels & level_bit)) {
    *reinserted_levels |= level_bit;
    std::vector<Entry> removed;
    TakeFarthestEntries(node, reinsert_count_, &removed);
    KCPQ_RETURN_IF_ERROR(WriteNode(page, *node));
    // Close-reinsert order: nearest-to-center first. Entries re-enter from
    // the top at this node's level once the current descent unwinds.
    // `pending` is drained LIFO, so push in reverse.
    for (auto it = removed.rbegin(); it != removed.rend(); ++it) {
      pending->emplace_back(*it, node->level);
    }
    return Status::OK();
  }
  // R* split; current page keeps the left group.
  std::vector<Entry> left, right;
  SplitEntries(std::move(node->entries), min_entries_, &left, &right);
  node->entries = std::move(left);
  KCPQ_RETURN_IF_ERROR(WriteNode(page, *node));
  Node sibling;
  sibling.level = node->level;
  sibling.entries = std::move(right);
  KCPQ_ASSIGN_OR_RETURN(const PageId sibling_page, buffer_->Allocate());
  KCPQ_RETURN_IF_ERROR(WriteNode(sibling_page, sibling));
  split->push_back(Entry{sibling.ComputeMbr(), sibling_page});
  return Status::OK();
}

Result<bool> RStarTree::Erase(const Point& p, uint64_t record_id) {
  return EraseRect(Rect::FromPoint(p), record_id);
}

Result<bool> RStarTree::EraseRect(const Rect& rect, uint64_t record_id) {
  std::vector<std::pair<Entry, int>> orphans;
  EraseOutcome outcome;
  KCPQ_RETURN_IF_ERROR(EraseRecursive(root_page_, height_ - 1, rect,
                                      record_id, &orphans, &outcome));
  if (!outcome.found) return false;
  --size_;
  // Reinsert entries of dissolved nodes, deepest-level entries first so
  // subtree heights stay consistent with their target levels.
  std::sort(orphans.begin(), orphans.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
  for (const auto& [entry, level] : orphans) {
    KCPQ_RETURN_IF_ERROR(InsertAtLevel(entry, level));
  }
  // Shrink the root while it is internal with a single child.
  while (height_ > 1) {
    Node root;
    KCPQ_RETURN_IF_ERROR(ReadNode(root_page_, &root));
    if (root.IsLeaf() || root.entries.size() != 1) break;
    const PageId child = root.entries[0].id;
    KCPQ_RETURN_IF_ERROR(buffer_->Free(root_page_));
    root_page_ = child;
    --height_;
  }
  return true;
}

Status RStarTree::EraseRecursive(PageId page, int level,
                                 const Rect& target, uint64_t record_id,
                                 std::vector<std::pair<Entry, int>>* orphans,
                                 EraseOutcome* outcome) {
  Node node;
  KCPQ_RETURN_IF_ERROR(ReadNode(page, &node));
  KCPQ_RETURN_IF_ERROR(CheckNodeLevel(node, level, page));
  outcome->found = false;
  outcome->eliminate = false;

  if (node.IsLeaf()) {
    for (size_t i = 0; i < node.entries.size(); ++i) {
      if (node.entries[i].id == record_id && node.entries[i].rect == target) {
        node.entries.erase(node.entries.begin() + i);
        outcome->found = true;
        break;
      }
    }
    if (!outcome->found) return Status::OK();
  } else {
    for (size_t i = 0; i < node.entries.size() && !outcome->found; ++i) {
      if (!node.entries[i].rect.Contains(target)) continue;
      EraseOutcome child;
      KCPQ_RETURN_IF_ERROR(EraseRecursive(node.entries[i].id, level - 1,
                                          target, record_id, orphans,
                                          &child));
      if (!child.found) continue;
      outcome->found = true;
      if (child.eliminate) {
        node.entries.erase(node.entries.begin() + i);
      } else {
        node.entries[i].rect = child.mbr;
      }
    }
    if (!outcome->found) return Status::OK();
  }

  if (level != height_ - 1 && node.entries.size() < min_entries_) {
    // CondenseTree: dissolve this node; the parent drops its entry and the
    // survivors are reinserted at this node's level.
    for (const Entry& e : node.entries) {
      orphans->emplace_back(e, node.level);
    }
    KCPQ_RETURN_IF_ERROR(buffer_->Free(page));
    outcome->eliminate = true;
    return Status::OK();
  }
  KCPQ_RETURN_IF_ERROR(WriteNode(page, node));
  outcome->mbr = node.ComputeMbr();
  return Status::OK();
}

}  // namespace kcpq
