// EXPLAIN ANALYZE support: per-level pruning bookkeeping collected during
// a query (PruningProfile, hung off QueryContext next to the trace
// buffer) and the renderer that turns it plus headline stats into the
// `--explain` report.
//
// Accounting identity, maintained by the engines and checked in tests:
// for every tree level,
//
//   considered == visited + pruned_ineq1 + pruned_order + deferred
//
// where `considered` counts node pairs generated as candidates at that
// level (the root pair counts as considered at the root level),
// `pruned_ineq1` counts pairs discarded because MINMINDIST > T (the
// paper's Inequality 1), `pruned_order` counts pairs cut off by the
// best-first order (heap popped/abandoned after T proved no better pair
// exists — the paper's CP5 optimization), `visited` counts pairs actually
// expanded (both pages read), and `deferred` counts pairs left unresolved
// by an early stop (budget/deadline/cancel).

#ifndef KCPQ_OBS_EXPLAIN_H_
#define KCPQ_OBS_EXPLAIN_H_

#include <cstdint>
#include <string>
#include <vector>

namespace kcpq {
namespace obs {

struct LevelPruningCounts {
  uint64_t considered = 0;
  uint64_t pruned_ineq1 = 0;
  uint64_t pruned_order = 0;
  uint64_t visited = 0;
  uint64_t deferred = 0;
};

/// One sample of the anytime bound T tightening over the query's life.
struct BoundSample {
  uint64_t node_pairs = 0;  // node pairs expanded when the bound moved
  double bound = 0.0;       // new (smaller) T
};

/// Collected by an engine while it runs; level index is the node-pair
/// level max(level_p, level_q), so leaves are level 0.
class PruningProfile {
 public:
  void Considered(int level, uint64_t n) { At(level).considered += n; }
  void PrunedIneq1(int level, uint64_t n) { At(level).pruned_ineq1 += n; }
  void PrunedOrder(int level, uint64_t n) { At(level).pruned_order += n; }
  void Visited(int level, uint64_t n) { At(level).visited += n; }
  void Deferred(int level, uint64_t n) { At(level).deferred += n; }

  /// Records a bound improvement; keeps at most kMaxBoundSamples by
  /// decimating every other sample once full (endpoints survive).
  void BoundUpdate(uint64_t node_pairs, double bound);

  const std::vector<LevelPruningCounts>& levels() const { return levels_; }
  const std::vector<BoundSample>& bound_samples() const {
    return bound_samples_;
  }
  LevelPruningCounts Totals() const;

  static constexpr size_t kMaxBoundSamples = 64;

 private:
  LevelPruningCounts& At(int level);

  std::vector<LevelPruningCounts> levels_;  // index = level, 0 = leaves
  std::vector<BoundSample> bound_samples_;
};

/// Everything the report renderer needs, as plain fields so obs does not
/// depend on the engine/exec headers. Callers (the CLI) flatten their
/// stats structs into this.
struct ExplainInputs {
  std::string algorithm;  // e.g. "heap"

  // Objective policy (cpq/objective.h). The defaults reproduce the
  // historical closest-pairs report byte-for-byte, so pre-policy goldens
  // stay valid; other families override all three.
  std::string family = "k-closest-pairs";  // header label
  /// Pruning-rule caption of the per-level table. The accounting identity
  /// (considered == visited + pruned + deferred) holds per objective: a
  /// range-restricted query's ineligible subtrees are skipped *before*
  /// candidate generation, so they are never "considered".
  std::string prune_rule =
      "Inequality 1 = MINMINDIST > T; order = best-first cutoff";
  /// kFarthest: the partial-result bound is an *upper* bound (missing
  /// pairs all <=), flipping the PARTIAL line's inequality.
  bool bound_is_upper = false;
  /// The objective's prefetch pop-order label (e.g. "MAXMAXDIST
  /// descending"). Rendered in the Prefetch section so wasted-speculation
  /// counts are read against the right order; empty omits it.
  std::string prefetch_pop_order;

  uint64_t k = 0;
  uint64_t results_returned = 0;
  double result_max_distance = -1.0;  // kth distance; <0 -> n/a

  // Headline engine totals (CpqStats).
  uint64_t node_pairs_processed = 0;
  uint64_t candidate_pairs_generated = 0;
  uint64_t candidate_pairs_pruned = 0;
  uint64_t point_distance_computations = 0;
  uint64_t leaf_pairs_skipped = 0;
  uint64_t max_heap_size = 0;
  uint64_t node_accesses = 0;
  uint64_t disk_accesses = 0;

  // Buffer behaviour during this query.
  uint64_t buffer_hits = 0;
  uint64_t buffer_misses = 0;

  // Speculative prefetch (all zero — and the section omitted — when
  // --prefetch=off). issued == hits + wasted + pending after a drain;
  // pending should be 0 then and is rendered only as a leak indicator.
  uint64_t prefetch_issued = 0;
  uint64_t prefetch_hits = 0;
  uint64_t prefetch_wasted = 0;
  uint64_t prefetch_pending = 0;

  // Completion-driven scheduling (docs/io.md): set only when the query ran
  // as a resumable state machine (the section — and golden reports — are
  // untouched when `scheduler` is empty). io_parked_seconds is scheduler
  // wait, not work: a multiplexed worker runs other queries during it.
  std::string scheduler;       // e.g. "resumable"; empty -> blocking
  uint64_t io_parks = 0;
  double io_parked_seconds = 0.0;

  // Async I/O backend (docs/io.md, "Native completion event loop"): the
  // section renders only when `io_backend` == "uring", so pool reports
  // — and all pre-uring goldens — stay byte-stable. The counters
  // come from FileStorageManager::UringStats().
  std::string io_backend;            // "uring" -> section rendered
  std::string io_fallback_reason;    // non-empty -> degraded to pool
  bool uring_fixed_buffers = false;  // READ_FIXED into registered frames
  uint64_t uring_batches = 0;        // SubmitReads calls reaching the ring
  uint64_t uring_reads = 0;          // SQEs submitted
  uint64_t uring_cqe_wakes = 0;      // reaper wake-ups
  uint64_t uring_sq_full_stalls = 0; // submissions that waited for a slot
  uint64_t inline_reads = 0;         // misses copied from the page cache
                                     // without a ring round trip

  // Replication (storage/mirrored_storage.h): rendered only when
  // replicas > 1, so single-replica reports — and their goldens — are
  // byte-identical to the pre-replication renderer.
  uint64_t replicas = 0;        // 0 or 1 -> section omitted
  std::string hedge_mode;       // "off" / "static"
  uint64_t failover_reads = 0;  // reads served past a replica failure
  uint64_t read_repairs = 0;    // corrupt copies healed inline
  uint64_t hedged_reads = 0;    // speculative second reads issued
  uint64_t hedge_wins = 0;      // hedges that finished first

  // Memory: admission estimate vs. measured peak.
  uint64_t admission_estimate_bytes = 0;  // 0 -> not estimated
  uint64_t measured_peak_bytes = 0;
  double admission_correction = 0.0;      // 0 -> feedback off

  // Quality (partial results).
  bool complete = true;
  std::string stop_cause;     // empty when complete
  double quality_bound = -1.0;  // scalar anytime bound; <0 -> n/a

  // Wall time; <0 renders "n/a" (golden tests pass -1 for determinism).
  double seconds = -1.0;
};

/// The human-readable `--explain` report (fixed-width tables, stable
/// formatting — golden-file tested).
std::string RenderExplainReport(const ExplainInputs& inputs,
                                const PruningProfile& profile);

}  // namespace obs
}  // namespace kcpq

#endif  // KCPQ_OBS_EXPLAIN_H_
