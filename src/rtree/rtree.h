// Disk-resident R*-tree (Beckmann, Kriegel, Schneider, Seeger — SIGMOD'90).
//
// The paper stores each point set in an R*-tree ("the most efficient variant
// of the R-tree family", Section 2.2) and all its algorithms read tree nodes
// through a page buffer, counting disk accesses. This implementation:
//
//   * stores one node per page (layout in node.h; 1 KiB pages -> M = 21,
//     m = M/3 = 7, the paper's configuration),
//   * inserts with the full R* machinery: overlap-minimizing ChooseSubtree
//     at the leaf level, margin-driven split-axis selection, and forced
//     reinsertion of the 30% farthest entries on first overflow per level,
//   * supports deletion (Guttman's CondenseTree with orphan reinsertion),
//     range queries, best-first K-nearest-neighbor queries, and STR bulk
//     loading (Leutenegger et al.) as a faster alternative construction
//     path (used by the ablation bench, not the paper reproductions),
//   * exposes ReadNode so that the closest-pair algorithms (src/cpq,
//     src/hs) can traverse two trees in lockstep, with every node access
//     going through — and being counted by — the tree's BufferManager.
//
// Thread-compatibility: construction and mutation (Insert / bulk load)
// are single-threaded, like the paper's system. Read-only traversal of a
// finished tree (ReadNode et al.) is safe from multiple threads provided
// the underlying BufferManager is — the sharded configuration documented
// in buffer/buffer_manager.h; the batch executor (src/exec) relies on
// exactly this to run concurrent queries against shared trees.

#ifndef KCPQ_RTREE_RTREE_H_
#define KCPQ_RTREE_RTREE_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "buffer/buffer_manager.h"
#include "common/status.h"
#include "geometry/metrics.h"
#include "geometry/minkowski.h"
#include "geometry/point.h"
#include "geometry/rect.h"
#include "rtree/node.h"

namespace kcpq {

/// Construction-time knobs. Defaults reproduce the paper / R* paper.
struct RTreeOptions {
  /// m = max(1, floor(M * min_fill_fraction)). Paper: M/3.
  double min_fill_fraction = 1.0 / 3.0;
  /// Fraction of entries force-reinserted on first overflow per level (R*
  /// paper's p = 30%).
  double reinsert_fraction = 0.30;
  /// Disables forced reinsertion (turns insertion into a plain R-tree with
  /// the R* split); ablation knob.
  bool forced_reinsert = true;
};

/// A leaf hit with its (true, non-squared) distance from a query point.
struct Neighbor {
  Entry entry;
  double distance = 0.0;
};

class RStarTree {
 public:
  /// Creates an empty tree. `buffer` (and its storage) must outlive the
  /// tree. The tree allocates a metadata page; persist the returned
  /// `meta_page()` to reopen later.
  static Result<std::unique_ptr<RStarTree>> Create(
      BufferManager* buffer, const RTreeOptions& options = RTreeOptions());

  /// Reopens a tree previously created on `buffer`'s storage.
  static Result<std::unique_ptr<RStarTree>> Open(
      BufferManager* buffer, PageId meta_page,
      const RTreeOptions& options = RTreeOptions());

  /// Bulk loads `items` with the Sort-Tile-Recursive algorithm. Nodes are
  /// packed to `fill_factor * M` entries. O(n log n), orders of magnitude
  /// faster than repeated insertion, but produces differently-shaped (more
  /// tightly packed) trees — see bench_ablation. A point Insert would
  /// reject is InvalidArgument, before anything is written.
  static Result<std::unique_ptr<RStarTree>> BulkLoad(
      BufferManager* buffer, std::vector<std::pair<Point, uint64_t>> items,
      const RTreeOptions& options = RTreeOptions(), double fill_factor = 1.0);

  RStarTree(const RStarTree&) = delete;
  RStarTree& operator=(const RStarTree&) = delete;

  /// The largest coordinate magnitude a tree stores: DBL_MAX / 2.
  static constexpr double kMaxCoordinate =
      std::numeric_limits<double>::max() / 2;

  /// The one input check of Insert, InsertRect and BulkLoad:
  /// InvalidArgument for an inverted rect, a NaN, or a coordinate of
  /// magnitude above kMaxCoordinate.
  static Status CheckStorable(const Rect& rect);

  /// Inserts one point with a caller-chosen record id (duplicates allowed).
  /// A NaN coordinate, or one of magnitude above kMaxCoordinate, is
  /// InvalidArgument and writes nothing.
  Status Insert(const Point& p, uint64_t record_id);

  /// Inserts an extended object by its bounding rectangle (the classic
  /// R-tree use case; the paper focuses on points but the structure and
  /// the metrics handle boxes uniformly). Marks the tree as holding
  /// extended objects, which relaxes the leaf-degeneracy validation. An
  /// inverted rect, or one with a coordinate Insert rejects, is
  /// InvalidArgument and writes nothing.
  Status InsertRect(const Rect& rect, uint64_t record_id);

  /// Removes one entry matching (p, record_id) exactly. Returns true if an
  /// entry was removed, false if none matched.
  Result<bool> Erase(const Point& p, uint64_t record_id);

  /// Removes one entry matching (rect, record_id) exactly.
  Result<bool> EraseRect(const Rect& rect, uint64_t record_id);

  /// Appends to `*out` every leaf entry whose point lies in `range`.
  Status RangeQuery(const Rect& range, std::vector<Entry>* out) const;

  /// Best-first K-nearest-neighbor search (Roussopoulos-style bounds over a
  /// priority queue). Returns up to `k` entries in ascending distance under
  /// `metric` (Euclidean by default).
  Status NearestNeighbors(const Point& query, size_t k,
                          std::vector<Neighbor>* out,
                          Metric metric = Metric::kL2) const;

  /// Depth-first scan over all leaf nodes: calls `visit(node)` once per
  /// leaf. Node accesses go through the buffer like any query. The
  /// callback returns false to stop the scan early. `ctx` attributes the
  /// page reads to a query (see ReadNode).
  Status ScanLeaves(const std::function<bool(const Node& leaf)>& visit,
                    QueryContext* ctx = nullptr) const;

  /// Reads the node stored at `page` through the buffer (one counted access
  /// on a miss). When
  /// `ctx` is given the page is charged to that query's ResourceAccountant
  /// and the storage stack may abandon deadline-doomed retries (surfaced as
  /// kDeadlineExceeded — callers treat it as a deadline stop, not an
  /// error). The node carries no axis orders: insertion and the range/kNN
  /// searches never sweep.
  Status ReadNode(PageId page, Node* node, QueryContext* ctx = nullptr) const;

  /// The node read of the CPQ, HS and Semi-CPQ state machines: forwards to
  /// BufferManager::ReadNode. When `outcome->parked` is set the node was
  /// not available — the waker is registered and the caller must retry
  /// after it fires; otherwise `*node` holds the decoded node and outcome
  /// carries the hit/miss accounting of the access. An empty `waker`
  /// never parks: the read is exactly ReadNode's, plus the outcome and,
  /// for a node served from a buffer frame, its axis orders.
  Status TryReadNode(PageId page, Node* node, QueryContext* ctx,
                     const Waker& waker,
                     BufferManager::TryReadOutcome* outcome) const;

  /// Tight MBR of the whole tree (reads the root). Empty rect if empty.
  Status RootMbr(Rect* mbr) const;

  /// Writes metadata and flushes the buffer to storage.
  Status Flush();

  /// Deep structural check: balance, occupancy in [m, M], *tight* parent
  /// MBRs, degenerate leaf rects, size bookkeeping, no page aliasing.
  /// OK or a Corruption status describing the first violation.
  Status Validate() const;

  PageId meta_page() const { return meta_page_; }
  PageId root_page() const { return root_page_; }
  /// Number of levels; 1 for a single leaf root, 0 never (root always
  /// exists).
  int height() const { return height_; }
  uint64_t size() const { return size_; }
  size_t max_entries() const { return max_entries_; }
  size_t min_entries() const { return min_entries_; }
  /// True once any non-degenerate rectangle was inserted.
  bool has_extended_objects() const { return has_extended_; }
  BufferManager* buffer() const { return buffer_; }

  /// Per-level node counts and average fill; for diagnostics and benches.
  struct LevelStats {
    int level = 0;
    uint64_t nodes = 0;
    uint64_t entries = 0;
  };
  Status CollectLevelStats(std::vector<LevelStats>* out) const;

  /// Per-level MBR geometry: total area and the sum of pairwise
  /// intersection areas between sibling-or-not nodes of the level. The
  /// overlap sum quantifies how "disjoint" a level's rectangles are — the
  /// property that makes clustered data cheap for CPQ (paper §4.3.2) and
  /// that the R* split minimizes. O(nodes_per_level²) pair scan; intended
  /// for diagnostics, not hot paths.
  struct LevelGeometry {
    int level = 0;
    double total_area = 0.0;
    double pairwise_overlap_area = 0.0;
  };
  Status CollectLevelGeometry(std::vector<LevelGeometry>* out) const;

 private:
  RStarTree(BufferManager* buffer, const RTreeOptions& options);

  struct EraseOutcome {
    bool found = false;
    bool eliminate = false;  // child dropped below m and was dissolved
    Rect mbr;                // new tight MBR when !eliminate
  };

  Status WriteNode(PageId page, const Node& node);
  Status WriteMeta();
  Status ReadMeta();

  /// Inserts `entry` whose subtree belongs at `level`, draining any forced
  /// reinsertions triggered along the way.
  Status InsertAtLevel(const Entry& entry, int level);

  /// Recursive worker over `page`, whose parent implies `level` (the
  /// root's is height - 1; any other level is kCorruption). `pending`
  /// receives force-reinserted entries; `*split` receives the new
  /// sibling's entry if this subtree split. `*mbr` always receives the
  /// subtree's new tight MBR. Writes happen only while unwinding, so a
  /// descent that fails has written nothing.
  Status InsertRecursive(PageId page, int level, const Entry& entry,
                         int target_level, uint32_t* reinserted_levels,
                         std::vector<std::pair<Entry, int>>* pending,
                         Rect* mbr, std::vector<Entry>* split);

  /// Handles an overfull `node`: forced reinsert (filling `pending`) or R*
  /// split (filling `*split` with the new sibling entry).
  Status OverflowTreatment(PageId page, Node* node,
                           uint32_t* reinserted_levels,
                           std::vector<std::pair<Entry, int>>* pending,
                           std::vector<Entry>* split);

  /// Erase's worker; `level` is checked as in InsertRecursive.
  Status EraseRecursive(PageId page, int level, const Rect& target,
                        uint64_t record_id,
                        std::vector<std::pair<Entry, int>>* orphans,
                        EraseOutcome* outcome);

  Status ValidateRecursive(PageId page, bool is_root, int expected_level,
                           const Rect* expected_mbr, uint64_t* leaf_entries,
                           std::vector<PageId>* seen) const;

  BufferManager* buffer_;
  size_t max_entries_;
  size_t min_entries_;
  size_t reinsert_count_;
  bool forced_reinsert_;

  PageId meta_page_ = kInvalidPageId;
  PageId root_page_ = kInvalidPageId;
  int height_ = 1;
  uint64_t size_ = 0;
  bool has_extended_ = false;
};

}  // namespace kcpq

#endif  // KCPQ_RTREE_RTREE_H_
