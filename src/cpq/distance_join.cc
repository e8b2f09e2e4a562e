#include "cpq/distance_join.h"

#include <algorithm>
#include <string>

#include "cpq/engine.h"

namespace kcpq {

namespace {

using cpq_internal::ChooseDescend;
using cpq_internal::DescendChoice;
using cpq_internal::MaxPointsOfNode;

uint64_t SaturatingAdd(uint64_t a, uint64_t b) {
  return a + b < a ? std::numeric_limits<uint64_t>::max() : a + b;
}

// M^(level+1): saturating upper bound on points in a subtree rooted at
// `level`; level -1 (a leaf's entry) is a single point.
uint64_t MaxPointsAtLevel(int level, uint64_t max_entries) {
  uint64_t n = 1;
  for (int i = 0; i <= level; ++i) n = SaturatingMul(n, max_entries);
  return n;
}

// Recursive ε-join worker over two subtrees identified by page ids.
class JoinWalker {
 public:
  JoinWalker(const RStarTree& tree_p, const RStarTree& tree_q,
             double epsilon_pow, const DistanceJoinOptions& options,
             CpqStats* stats, std::vector<PairResult>* out)
      : tree_p_(tree_p),
        tree_q_(tree_q),
        epsilon_pow_(epsilon_pow),
        options_(options),
        ctx_(options.context),
        stats_(stats),
        out_(out) {}

  /// `minmin_pow` is the pair's own MINMINDIST (power space) and
  /// `max_pairs` its pair capacity (upper bound on point pairs beneath),
  /// both precomputed by the caller — on a stop they become frontier
  /// certificate instead of work.
  Status Walk(PageId page_p, PageId page_q, double minmin_pow,
              uint64_t max_pairs) {
    if (ShouldStop()) {
      FoldFrontier(minmin_pow, max_pairs);
      return Status::OK();
    }

    Node node_p, node_q;
    Status read_status = tree_p_.ReadNode(page_p, &node_p, ctx_);
    if (read_status.ok()) {
      read_status = tree_q_.ReadNode(page_q, &node_q, ctx_);
    }
    if (read_status.code() == StatusCode::kDeadlineExceeded) {
      stop_ = StopCause::kDeadline;
      FoldFrontier(minmin_pow, max_pairs);
      return Status::OK();
    }
    KCPQ_RETURN_IF_ERROR(read_status);
    ++stats_->node_pairs_processed;
    node_accesses_ += 2;

    const DescendChoice choice = ChooseDescend(node_p.level, node_q.level,
                                               options_.height_strategy);
    if (choice == DescendChoice::kLeaves) {
      return EmitLeafPairs(node_p, node_q, page_p == page_q);
    }
    const bool expand_p = choice != DescendChoice::kSecondOnly;
    const bool expand_q = choice != DescendChoice::kFirstOnly;
    const Rect whole_p = node_p.ComputeMbr();
    const Rect whole_q = node_q.ComputeMbr();
    // Per-side pair-capacity factors for the missing-pair certificate: an
    // expanded side contributes one child subtree's capacity, a fixed side
    // the whole node's.
    const uint64_t cap_p =
        expand_p ? MaxPointsAtLevel(node_p.level - 1, tree_p_.max_entries())
                 : MaxPointsOfNode(node_p, tree_p_.max_entries());
    const uint64_t cap_q =
        expand_q ? MaxPointsAtLevel(node_q.level - 1, tree_q_.max_entries())
                 : MaxPointsOfNode(node_q, tree_q_.max_entries());
    const uint64_t child_max_pairs = SaturatingMul(cap_p, cap_q);
    const size_t np = expand_p ? node_p.entries.size() : 1;
    const size_t nq = expand_q ? node_q.entries.size() : 1;
    for (size_t i = 0; i < np; ++i) {
      const Rect& rp = expand_p ? node_p.entries[i].rect : whole_p;
      for (size_t j = 0; j < nq; ++j) {
        const Rect& rq = expand_q ? node_q.entries[j].rect : whole_q;
        // Self-join: same-node expansions cover each unordered child pair
        // twice; keep the page-ordered orientation (see cpq/engine.cc).
        if (options_.self_join && page_p == page_q && expand_p && expand_q &&
            node_p.entries[i].id > node_q.entries[j].id) {
          continue;
        }
        ++stats_->candidate_pairs_generated;
        const double child_minmin = MinMinDistPow(rp, rq, options_.metric);
        if (child_minmin > epsilon_pow_) {
          ++stats_->candidate_pairs_pruned;
          continue;
        }
        // Drain once stopped (possibly by a deeper recursion).
        if (stop_ != StopCause::kNone) {
          FoldFrontier(child_minmin, child_max_pairs);
          continue;
        }
        KCPQ_RETURN_IF_ERROR(
            Walk(expand_p ? node_p.entries[i].id : page_p,
                 expand_q ? node_q.entries[j].id : page_q, child_minmin,
                 child_max_pairs));
      }
    }
    return Status::OK();
  }

  uint64_t node_accesses() const { return node_accesses_; }
  StopCause stop_cause() const { return stop_; }
  double frontier_min_pow() const { return frontier_min_pow_; }
  uint64_t missing_pair_bound() const { return missing_pair_bound_; }

 private:
  bool ShouldStop() {
    if (stop_ != StopCause::kNone) return true;
    if (ctx_ == nullptr) return false;
    stop_ = ctx_->Check(node_accesses_, out_->size() * sizeof(PairResult));
    return stop_ != StopCause::kNone;
  }

  // Records a deferred (unexpanded) node pair: its MINMINDIST joins the
  // scalar frontier bound, and — when it could still hold qualifying
  // pairs — its pair capacity joins the capacity-weighted count of pairs
  // the partial result may be missing.
  void FoldFrontier(double minmin_pow, uint64_t max_pairs) {
    frontier_min_pow_ = std::min(frontier_min_pow_, minmin_pow);
    if (minmin_pow <= epsilon_pow_) {
      missing_pair_bound_ =
          SaturatingAdd(missing_pair_bound_, std::max<uint64_t>(max_pairs, 1));
    }
  }
  Status EmitLeafPairs(const Node& node_p, const Node& node_q,
                       bool same_node) {
    // Shared by both kernels; returns false (aborting the enumeration) only
    // when the max_results valve trips, leaving the error in `status`.
    Status status;
    const auto consider = [&](const Entry& ep, const Entry& eq) {
      if (options_.self_join) {
        if (same_node) {
          if (ep.id >= eq.id) return true;
        } else if (ep.id == eq.id) {
          return true;
        }
      }
      ++stats_->point_distance_computations;
      const double d = MinMinDistPow(ep.rect, eq.rect, options_.metric);
      if (d > epsilon_pow_) return true;
      if (options_.max_results > 0 && out_->size() >= options_.max_results) {
        status = Status::ResourceExhausted(
            "distance join exceeded max_results = " +
            std::to_string(options_.max_results));
        return false;
      }
      Point p, q;
      ClosestPoints(ep.rect, eq.rect, &p, &q);
      if (options_.self_join && ep.id > eq.id) {
        out_->push_back(PairResult{q, p, eq.id, ep.id,
                                   PowToDistance(d, options_.metric)});
      } else {
        out_->push_back(PairResult{
            p, q, ep.id, eq.id, PowToDistance(d, options_.metric)});
      }
      return true;
    };

    if (options_.leaf_kernel == LeafKernel::kPlaneSweep) {
      // strict = true: the join keeps distance == ε exactly, so only pairs
      // whose axis separation strictly exceeds ε are provably rejectable.
      const uint64_t total = static_cast<uint64_t>(node_p.entries.size()) *
                             node_q.entries.size();
      const uint64_t visited = cpq_internal::PlaneSweepPairs(
          node_p.entries, node_q.entries, options_.metric, /*strict=*/true,
          &sweep_scratch_,
          [](const Entry& e) -> const Rect& { return e.rect; },
          [&] { return epsilon_pow_; }, consider);
      if (status.ok()) stats_->leaf_pairs_skipped += total - visited;
    } else {
      for (const Entry& ep : node_p.entries) {
        for (const Entry& eq : node_q.entries) {
          if (!consider(ep, eq)) return status;
        }
      }
    }
    return status;
  }

  const RStarTree& tree_p_;
  const RStarTree& tree_q_;
  const double epsilon_pow_;
  const DistanceJoinOptions& options_;
  QueryContext* ctx_;
  CpqStats* stats_;
  std::vector<PairResult>* out_;
  cpq_internal::SweepScratch<Entry> sweep_scratch_;
  uint64_t node_accesses_ = 0;
  StopCause stop_ = StopCause::kNone;
  double frontier_min_pow_ = std::numeric_limits<double>::infinity();
  uint64_t missing_pair_bound_ = 0;
};

void SortResults(std::vector<PairResult>* out) {
  std::sort(out->begin(), out->end(),
            [](const PairResult& a, const PairResult& b) {
              if (a.distance != b.distance) return a.distance < b.distance;
              if (a.p_id != b.p_id) return a.p_id < b.p_id;
              return a.q_id < b.q_id;
            });
}

}  // namespace

Result<std::vector<PairResult>> DistanceRangeJoin(
    const RStarTree& tree_p, const RStarTree& tree_q, double epsilon,
    const DistanceJoinOptions& options, CpqStats* stats) {
  if (!(epsilon >= 0.0)) {
    return Status::InvalidArgument("epsilon must be non-negative");
  }
  CpqStats local;
  CpqStats* s = stats != nullptr ? stats : &local;
  *s = CpqStats{};
  std::vector<PairResult> out;
  if (tree_p.size() == 0 || tree_q.size() == 0) return out;

  // Pre-trip check: a pre-cancelled or pre-expired join touches no pages.
  // Nothing was examined, so certify nothing: bound 0, not exact.
  QueryContext* ctx = options.context;
  const StopCause pre = ctx != nullptr ? ctx->Check(0, 0) : StopCause::kNone;
  if (pre != StopCause::kNone) {
    s->quality.stop_cause = pre;
    s->quality.guaranteed_lower_bound = 0.0;
    s->quality.is_exact = false;
    // Nothing was examined: every cross-product pair may be missing.
    s->quality.missing_pair_bound = SaturatingMul(tree_p.size(),
                                                  tree_q.size());
    return out;
  }

  const BufferStats before_p = tree_p.buffer()->ThreadStats();
  const BufferStats before_q = tree_q.buffer()->ThreadStats();
  const double epsilon_pow = DistanceToPow(epsilon, options.metric);
  JoinWalker walker(tree_p, tree_q, epsilon_pow, options, s, &out);
  Rect mbr_p, mbr_q;
  Status root_status = tree_p.RootMbr(&mbr_p, ctx);
  if (root_status.ok()) root_status = tree_q.RootMbr(&mbr_q, ctx);
  StopCause stop;
  double frontier_pow;
  uint64_t missing_pair_bound;
  if (root_status.code() == StatusCode::kDeadlineExceeded) {
    // Storage abandoned a retry before anything was examined: partial
    // with a vacuous certificate, same as a pre-expired deadline.
    stop = StopCause::kDeadline;
    frontier_pow = 0.0;
    missing_pair_bound = SaturatingMul(tree_p.size(), tree_q.size());
  } else {
    KCPQ_RETURN_IF_ERROR(root_status);
    KCPQ_RETURN_IF_ERROR(walker.Walk(tree_p.root_page(), tree_q.root_page(),
                                     MinMinDistPow(mbr_p, mbr_q,
                                                   options.metric),
                                     SaturatingMul(tree_p.size(),
                                                   tree_q.size())));
    stop = walker.stop_cause();
    frontier_pow = walker.frontier_min_pow();
    missing_pair_bound = walker.missing_pair_bound();
  }
  s->disk_accesses_p = tree_p.buffer()->ThreadStats().misses - before_p.misses;
  s->disk_accesses_q = tree_q.buffer()->ThreadStats().misses - before_q.misses;
  s->node_accesses = walker.node_accesses();
  s->quality.stop_cause = stop;
  s->quality.pairs_found = out.size();
  if (stop != StopCause::kNone) {
    s->quality.guaranteed_lower_bound =
        PowToDistance(frontier_pow, options.metric);
    // The stop is harmless when nothing qualifying was left unexpanded:
    // an empty frontier, or one entirely beyond ε.
    s->quality.is_exact = frontier_pow > epsilon_pow;
    if (!s->quality.is_exact) {
      s->quality.missing_pair_bound = missing_pair_bound;
    }
  }
  SortResults(&out);
  return out;
}

std::vector<PairResult> BruteForceDistanceRangeJoin(
    const std::vector<std::pair<Point, uint64_t>>& p,
    const std::vector<std::pair<Point, uint64_t>>& q, double epsilon,
    bool self_join, Metric metric) {
  std::vector<PairResult> out;
  const double epsilon_pow = DistanceToPow(epsilon, metric);
  for (const auto& [pp, pid] : p) {
    for (const auto& [qq, qid] : q) {
      if (self_join && pid >= qid) continue;
      const double d = PointDistancePow(pp, qq, metric);
      if (d > epsilon_pow) continue;
      out.push_back(PairResult{pp, qq, pid, qid, PowToDistance(d, metric)});
    }
  }
  SortResults(&out);
  return out;
}

}  // namespace kcpq
