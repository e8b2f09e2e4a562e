#include "cpq/multiway.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <string>

#include "cpq/node_reader.h"
#include "geometry/minkowski.h"

namespace kcpq {

namespace {

// True (non-power) distance between two points under `metric`.
double TrueDistance(const Point& a, const Point& b, Metric metric) {
  return PowToDistance(PointDistancePow(a, b, metric), metric);
}

// True lower-bound distance between two rectangles.
double TrueMinMin(const Rect& a, const Rect& b, Metric metric) {
  return PowToDistance(MinMinDistPow(a, b, metric), metric);
}

// One slot of a search tuple: a node of tree `slot` with known MBR.
struct SlotRef {
  PageId page = kInvalidPageId;
  int level = 0;
  Rect mbr;
};

struct SearchTuple {
  double bound = 0.0;  // sum of edge MINMINDISTs (true distances)
  std::vector<SlotRef> slots;
  uint64_t seq = 0;  // deterministic ordering of equal bounds

  friend bool operator>(const SearchTuple& x, const SearchTuple& y) {
    if (x.bound != y.bound) return x.bound > y.bound;
    return x.seq > y.seq;
  }
};

// Bounded max-heap of the best K tuples found so far.
class TupleHeap {
 public:
  explicit TupleHeap(size_t k) : k_(k) {}

  double Bound() const {
    return items_.size() == k_ ? items_.front().aggregate_distance
                               : std::numeric_limits<double>::infinity();
  }

  void Offer(TupleResult tuple) {
    if (items_.size() == k_) {
      if (tuple.aggregate_distance >= items_.front().aggregate_distance) {
        return;
      }
      std::pop_heap(items_.begin(), items_.end(), Less());
      items_.pop_back();
    }
    items_.push_back(std::move(tuple));
    std::push_heap(items_.begin(), items_.end(), Less());
  }

  std::vector<TupleResult> Extract() && {
    std::sort_heap(items_.begin(), items_.end(), Less());
    return std::move(items_);
  }

 private:
  struct Less {
    bool operator()(const TupleResult& a, const TupleResult& b) const {
      return a.aggregate_distance < b.aggregate_distance;
    }
  };

  size_t k_;
  std::vector<TupleResult> items_;
};

class MultiwayEngine {
 public:
  MultiwayEngine(const std::vector<const RStarTree*>& trees,
                 const std::vector<MultiwayEdge>& graph,
                 const MultiwayOptions& options, CpqStats* stats)
      : trees_(trees),
        graph_(graph),
        options_(options),
        ctx_(options.context),
        stats_(stats),
        results_(options.k) {}

  Status Run(std::vector<TupleResult>* out) {
    const size_t m = trees_.size();
    // Live heap bytes: each queued tuple owns an m-slot vector.
    const uint64_t tuple_bytes = sizeof(SearchTuple) + m * sizeof(SlotRef);
    std::priority_queue<SearchTuple, std::vector<SearchTuple>,
                        std::greater<SearchTuple>>
        heap;

    // Pre-trip check *before* the root reads: a pre-cancelled or
    // pre-expired query must not touch any tree. Nothing was examined,
    // so certify nothing: bound 0.
    if (ShouldStop(0)) {
      stop_bound_ = 0.0;
    } else {
      SearchTuple root;
      root.slots.resize(m);
      Status root_status;
      for (size_t i = 0; i < m && root_status.ok(); ++i) {
        Node node;
        root_status = Read(i, trees_[i]->root_page(),
                           trees_[i]->height() - 1, &node);
        if (!root_status.ok()) break;
        root.slots[i] = SlotRef{trees_[i]->root_page(),
                                trees_[i]->height() - 1, node.ComputeMbr()};
      }
      if (root_status.code() == StatusCode::kDeadlineExceeded) {
        // Storage abandoned a retry before anything was examined: partial
        // with a vacuous certificate, same as a pre-expired deadline.
        stop_ = StopCause::kDeadline;
        stop_bound_ = 0.0;
      } else {
        KCPQ_RETURN_IF_ERROR(root_status);
        root.bound = BoundOf(root.slots);
        heap.push(std::move(root));
      }
    }

    uint64_t next_seq = 1;
    while (!heap.empty()) {
      stats_->max_heap_size =
          std::max<uint64_t>(stats_->max_heap_size, heap.size());
      const SearchTuple tuple = heap.top();
      heap.pop();
      if (tuple.bound > results_.Bound()) break;
      // The heap pops in ascending bound order, so on a stop the popped
      // bound alone certifies every unreported tuple — the multiway
      // analogue of the two-tree engines' frontier minimum.
      if (ShouldStop(heap.size() * tuple_bytes)) {
        stop_bound_ = tuple.bound;
        break;
      }

      // Pick the slot to expand: deepest node, ties by larger area.
      int expand = -1;
      for (size_t i = 0; i < tuple.slots.size(); ++i) {
        if (tuple.slots[i].level == 0) continue;
        if (expand < 0 ||
            tuple.slots[i].level > tuple.slots[expand].level ||
            (tuple.slots[i].level == tuple.slots[expand].level &&
             tuple.slots[i].mbr.Area() > tuple.slots[expand].mbr.Area())) {
          expand = static_cast<int>(i);
        }
      }
      if (expand < 0) {
        const Status s = EnumerateLeafTuple(tuple);
        if (s.code() == StatusCode::kDeadlineExceeded) {
          stop_ = StopCause::kDeadline;
          stop_bound_ = tuple.bound;
          break;
        }
        KCPQ_RETURN_IF_ERROR(s);
        continue;
      }
      Node node;
      const Status read_status =
          Read(static_cast<size_t>(expand), tuple.slots[expand].page,
               tuple.slots[expand].level, &node);
      if (read_status.code() == StatusCode::kDeadlineExceeded) {
        stop_ = StopCause::kDeadline;
        stop_bound_ = tuple.bound;
        break;
      }
      KCPQ_RETURN_IF_ERROR(read_status);
      ++stats_->node_pairs_processed;
      ++node_accesses_;
      for (const Entry& entry : node.entries) {
        SearchTuple child = tuple;
        child.slots[expand] =
            SlotRef{entry.id, node.level - 1, entry.rect};
        child.bound = BoundOf(child.slots);
        ++stats_->candidate_pairs_generated;
        if (child.bound > results_.Bound()) {
          ++stats_->candidate_pairs_pruned;
          continue;
        }
        child.seq = next_seq++;
        if (options_.max_heap_items > 0 &&
            heap.size() >= options_.max_heap_items) {
          return Status::ResourceExhausted(
              "multiway tuple heap exceeded max_heap_items = " +
              std::to_string(options_.max_heap_items));
        }
        heap.push(std::move(child));
      }
    }
    *out = std::move(results_).Extract();

    stats_->node_accesses = node_accesses_;
    stats_->quality.stop_cause = stop_;
    stats_->quality.pairs_found = out->size();
    if (stop_ != StopCause::kNone) {
      stats_->quality.guaranteed_lower_bound = stop_bound_;
      // The stop is harmless when the result set is full and the frontier
      // bound already meets the K-th best aggregate.
      stats_->quality.is_exact =
          out->size() == options_.k &&
          !out->empty() && stop_bound_ >= out->back().aggregate_distance;
    }
    return Status::OK();
  }

 private:
  // Reads one node of tree `tree`, expected at `level` (kCorruption
  // otherwise, so a cyclic page cannot loop the search), tallying a served
  // miss as one of the query's disk accesses (all trees' accesses land in
  // disk_accesses_p). The empty waker never parks: the read waits like
  // BufferManager::Read.
  Status Read(size_t tree, PageId page, int level, Node* node) {
    BufferManager::TryReadOutcome outcome;
    KCPQ_RETURN_IF_ERROR(cpq_internal::TryReadCheckedNode(
        *trees_[tree], page, level, ctx_, Waker(), node, &outcome));
    if (!outcome.hit) ++stats_->disk_accesses_p;
    return Status::OK();
  }

  bool ShouldStop(uint64_t heap_bytes) {
    if (stop_ != StopCause::kNone) return true;
    if (ctx_ == nullptr) return false;
    stop_ = ctx_->Check(node_accesses_, heap_bytes);
    return stop_ != StopCause::kNone;
  }

  double BoundOf(const std::vector<SlotRef>& slots) const {
    double bound = 0.0;
    for (const MultiwayEdge& e : graph_) {
      bound += TrueMinMin(slots[e.a].mbr, slots[e.b].mbr, options_.metric);
    }
    return bound;
  }

  // All slots are leaves: enumerate entry combinations slot by slot with
  // partial-sum pruning. `chosen` holds the points fixed so far.
  Status EnumerateLeafTuple(const SearchTuple& tuple) {
    const size_t m = tuple.slots.size();
    nodes_.resize(m);
    for (size_t i = 0; i < m; ++i) {
      KCPQ_RETURN_IF_ERROR(
          Read(i, tuple.slots[i].page, tuple.slots[i].level, &nodes_[i]));
      ++node_accesses_;
    }
    ++stats_->node_pairs_processed;
    chosen_points_.assign(m, Point{});
    chosen_ids_.assign(m, 0);
    EnumerateSlot(tuple, 0, 0.0);
    return Status::OK();
  }

  void EnumerateSlot(const SearchTuple& tuple, size_t slot,
                     double exact_so_far) {
    const size_t m = tuple.slots.size();
    if (slot == m) {
      TupleResult result;
      result.points = chosen_points_;
      result.ids = chosen_ids_;
      result.aggregate_distance = exact_so_far;
      results_.Offer(std::move(result));
      return;
    }
    for (const Entry& entry : nodes_[slot].entries) {
      const Point p = entry.AsPoint();
      // Aggregate contribution of edges between this slot and already
      // fixed slots; edges to later slots are bounded below by the
      // point-to-leaf-MBR distance.
      double exact = exact_so_far;
      double lower = 0.0;
      for (const MultiwayEdge& e : graph_) {
        const size_t lo = static_cast<size_t>(std::min(e.a, e.b));
        const size_t hi = static_cast<size_t>(std::max(e.a, e.b));
        if (hi != slot && lo != slot) continue;
        const size_t other = lo == slot ? hi : lo;
        if (other < slot) {
          ++stats_->point_distance_computations;
          exact += TrueDistance(p, chosen_points_[other], options_.metric);
        } else if (other > slot) {
          lower += TrueMinMin(Rect::FromPoint(p), tuple.slots[other].mbr,
                              options_.metric);
        }
      }
      if (exact + lower > results_.Bound()) continue;
      chosen_points_[slot] = p;
      chosen_ids_[slot] = entry.id;
      EnumerateSlot(tuple, slot + 1, exact);
    }
  }

  const std::vector<const RStarTree*>& trees_;
  const std::vector<MultiwayEdge>& graph_;
  const MultiwayOptions& options_;
  QueryContext* ctx_;
  CpqStats* stats_;
  TupleHeap results_;
  std::vector<Node> nodes_;
  std::vector<Point> chosen_points_;
  std::vector<uint64_t> chosen_ids_;
  uint64_t node_accesses_ = 0;
  StopCause stop_ = StopCause::kNone;
  /// Aggregate-distance lower bound on every unreported tuple at stop
  /// time (true distance; the popped heap key).
  double stop_bound_ = std::numeric_limits<double>::infinity();
};

}  // namespace

Result<std::vector<TupleResult>> MultiwayKClosestTuples(
    const std::vector<const RStarTree*>& trees,
    const std::vector<MultiwayEdge>& graph, const MultiwayOptions& options,
    CpqStats* stats) {
  if (trees.size() < 2) {
    return Status::InvalidArgument("multiway query needs at least 2 trees");
  }
  if (graph.empty()) {
    return Status::InvalidArgument("multiway query graph has no edges");
  }
  for (const MultiwayEdge& e : graph) {
    if (e.a < 0 || e.b < 0 || e.a >= static_cast<int>(trees.size()) ||
        e.b >= static_cast<int>(trees.size()) || e.a == e.b) {
      return Status::InvalidArgument("bad edge (" + std::to_string(e.a) +
                                     ", " + std::to_string(e.b) + ")");
    }
  }
  CpqStats local;
  CpqStats* s = stats != nullptr ? stats : &local;
  *s = CpqStats{};
  std::vector<TupleResult> out;
  if (options.k == 0) return out;
  for (const RStarTree* tree : trees) {
    if (tree->size() == 0) return out;
  }
  MultiwayEngine engine(trees, graph, options, s);
  KCPQ_RETURN_IF_ERROR(engine.Run(&out));
  return out;
}

std::vector<TupleResult> BruteForceMultiwayKClosestTuples(
    const std::vector<std::vector<std::pair<Point, uint64_t>>>& sets,
    const std::vector<MultiwayEdge>& graph, size_t k, Metric metric) {
  TupleHeap heap(k);
  const size_t m = sets.size();
  std::vector<size_t> index(m, 0);
  std::vector<TupleResult> out;
  for (const auto& set : sets) {
    if (set.empty()) return out;
  }
  while (true) {
    TupleResult tuple;
    tuple.points.resize(m);
    tuple.ids.resize(m);
    for (size_t i = 0; i < m; ++i) {
      tuple.points[i] = sets[i][index[i]].first;
      tuple.ids[i] = sets[i][index[i]].second;
    }
    tuple.aggregate_distance = 0.0;
    for (const MultiwayEdge& e : graph) {
      tuple.aggregate_distance += PowToDistance(
          PointDistancePow(tuple.points[e.a], tuple.points[e.b], metric),
          metric);
    }
    heap.Offer(std::move(tuple));
    // Odometer increment.
    size_t d = 0;
    while (d < m && ++index[d] == sets[d].size()) {
      index[d] = 0;
      ++d;
    }
    if (d == m) break;
  }
  return std::move(heap).Extract();
}

}  // namespace kcpq
