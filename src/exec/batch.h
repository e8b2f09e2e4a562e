// Parallel batch query executor.
//
// Runs many *independent* closest-pair queries concurrently against shared
// R*-trees: a server answering CPQ requests from multiple clients, or an
// experiment sweeping a parameter grid. Parallelism is per query — each
// query runs single-threaded exactly as it would alone, so per-query
// results and CpqStats are identical at any thread count; only wall-clock
// time changes. The shared state below the queries (the trees' buffer
// managers and storage) is thread-safe since the sharded BufferManager
// (see buffer/buffer_manager.h for the locking protocol), which is what
// makes this correct without per-query tree copies.
//
// On a workload whose cost is disk accesses — the paper's cost model —
// batching wins by overlapping I/O waits, independent of core count; see
// bench/bench_parallel.cc.

#ifndef KCPQ_EXEC_BATCH_H_
#define KCPQ_EXEC_BATCH_H_

#include <cstdint>
#include <vector>

#include "cpq/cpq.h"
#include "exec/admission.h"
#include "rtree/rtree.h"

namespace kcpq {

namespace obs {
class QueryRegistry;
class SlowQueryLog;
struct QuerySummary;
}  // namespace obs

enum class BatchQueryKind {
  /// KClosestPairs(tree_p, tree_q, options).
  kClosestPairs,
  /// SelfKClosestPairs(tree_p, options); tree_q ignored.
  kSelfClosestPairs,
  /// SemiClosestPairs(tree_p, tree_q); options.k / algorithm ignored.
  kSemiClosestPairs,
  /// HsKClosestPairs(tree_p, tree_q, options.k): the incremental distance
  /// join with default traversal. Reuses the CpqOptions fields that make
  /// sense for HS (k, family, query_rect, prefetch_window); algorithm /
  /// tie-breaking fields are ignored. HS fills CpqStats directly, exactly
  /// as a direct HsKClosestPairs call does.
  kHsClosestPairs,
};

/// How BatchKClosestPairs executes a batch.
/// Every query kind is one state machine (cpq/resumable.h, hs/resumable.h,
/// cpq/resumable_semi.h), and every batch runs on one ResumableScheduler
/// (exec/scheduler.h); the mode only chooses whether a miss parks or waits.
enum class SchedulerMode {
  /// Each worker drives one query's machine inline: every page read waits
  /// on its worker, so at most `threads` queries are live.
  kBlocking,
  /// Completion-driven: the machines are multiplexed over the workers,
  /// parking on buffer misses instead of waiting (docs/io.md). Per-query
  /// results, certificates, and disk-access counts are bit-identical to
  /// kBlocking; only wall-clock and the achievable in-flight query count
  /// change.
  kResumable,
};

/// One query of a batch.
struct BatchQuery {
  BatchQueryKind kind = BatchQueryKind::kClosestPairs;
  /// The batch builds one QueryContext per query and overwrites
  /// `options.context` with it; a context set here is ignored.
  CpqOptions options;
  /// The query's own limits, merged (QueryControl::Merged) with
  /// BatchOptions::control and the batch cancellation token into its
  /// context. Default: unlimited.
  QueryControl control;
};

/// How one query of a batch ended.
enum class QueryOutcome {
  /// Ran to completion; the result is exact.
  kOk,
  /// A deadline or budget tripped; partial result with a quality
  /// certificate in CpqStats::quality.
  kPartial,
  /// Stopped by cancellation (its own token or batch fail-fast); whatever
  /// pairs were drained are still returned.
  kCancelled,
  /// An error Status (I/O and the like); no pairs.
  kFailed,
  /// Shed by the admission controller before performing any I/O; status
  /// is ResourceExhausted, no pairs, zero node/storage accesses.
  kRejected,
};

const char* QueryOutcomeName(QueryOutcome outcome);

/// One query's outcome, at the same index as its BatchQuery.
struct BatchQueryResult {
  Status status;
  std::vector<PairResult> pairs;
  CpqStats stats;
  QueryOutcome outcome = QueryOutcome::kOk;
  /// The admission verdict (default-admitted when admission is off).
  AdmissionDecision admission;
  /// Peak bytes the query's ResourceAccountant metered: engine state plus
  /// distinct buffer pages read on the query's behalf.
  uint64_t peak_memory_bytes = 0;
  /// Wall-clock seconds from admission to completion, -1 when timing was
  /// off (timing runs when metrics are compiled in and enabled). Under the
  /// resumable scheduler this includes parked time — see
  /// CpqStats::io_parked_ns for how much of it was I/O wait.
  double seconds = -1.0;
};

/// How a query that ran ended, from its status and certificate (never
/// kRejected, which only admission decides).
QueryOutcome OutcomeOf(const BatchQueryResult& result);

/// The flight-recorder record of one finished (or shed) query: everything
/// `/queries?state=done` and the slow-query log render, copied from
/// `query` and `result` (kind, family, outcome, seconds, counters,
/// certificate, admission, memory). The live-side fields (id, pages_read)
/// and the single-query CLI's extras (trace, EXPLAIN, pruning) stay unset.
obs::QuerySummary MakeSummary(const BatchQuery& query,
                              const BatchQueryResult& result,
                              const char* scheduler);

struct BatchOptions {
  /// Worker threads, the calling thread included (it is one of the
  /// scheduler's workers). 0 = ResumableScheduler::DefaultWorkers(); 1 =
  /// run on the calling thread alone (no thread started; under kBlocking
  /// the queries run one by one in input order).
  size_t threads = 0;

  /// Batch-wide lifecycle limits, merged (QueryControl::Merged) into every
  /// query's own BatchQuery::control: the deadline is shared by the whole
  /// batch, and the batch cancellation token is observed by every query.
  QueryControl control;

  /// When true, the first query that *fails* (error Status, not a partial)
  /// cancels every sibling still running; their outcomes come back
  /// kCancelled. Off by default: one bad query does not spoil a batch.
  bool cancel_batch_on_first_failure = false;

  /// Cost-model admission control (see exec/admission.h). kOff runs every
  /// query; kEnforce sheds over-budget queries with ResourceExhausted
  /// *before* they touch storage. A rejection never trips fail-fast.
  AdmissionOptions admission;

  /// Batch-wide speculative prefetch window, applied to every query whose
  /// own CpqOptions::prefetch_window is 0 (a query's explicit nonzero
  /// window wins). Per-query results and stats stay bit-identical for any
  /// value; only wall-clock changes. 0 = speculation off (default).
  size_t prefetch_window = 0;

  /// Whether a miss parks or waits; see SchedulerMode. Both modes run on
  /// the same scheduler, and results are identical either way.
  SchedulerMode scheduler = SchedulerMode::kBlocking;

  /// kResumable only: cap on queries live (admitted, unfinished) at once.
  /// This is the multiplexing knob — `threads` workers drive up to this
  /// many in-flight queries. 0 = 256. Ignored under kBlocking, where
  /// `threads` itself is the cap.
  size_t max_inflight = 0;

  /// Live telemetry (obs/query_registry.h). When set, every query of the
  /// batch registers a live QueryObservation on start — visible in the
  /// exporter's `/queries` endpoint with its current certified bound —
  /// and retires into the registry's flight recorder on completion.
  /// Rejected queries are recorded without ever going live. Null (the
  /// default) costs nothing. Results and the paper's disk-access metric
  /// are identical either way.
  obs::QueryRegistry* query_registry = nullptr;

  /// Structured slow-query log (obs/log.h). When set, every finished
  /// timed query is offered to the log, which appends one self-contained
  /// JSONL record per offender over its threshold. Null = off.
  obs::SlowQueryLog* slow_log = nullptr;
};

/// Whole-batch aggregates (sums over the per-query stats).
struct BatchStats {
  uint64_t queries = 0;
  /// Outcome counts; ok + partial + cancelled + failed + rejected ==
  /// queries.
  uint64_t ok = 0;
  uint64_t partial = 0;
  uint64_t cancelled = 0;
  uint64_t failed = 0;
  uint64_t rejected = 0;
  /// Queries the admission controller flagged as over-budget; advances in
  /// advisory mode too (where they still run).
  uint64_t admission_would_reject = 0;
  uint64_t node_pairs_processed = 0;
  uint64_t point_distance_computations = 0;
  uint64_t leaf_pairs_skipped = 0;
  uint64_t disk_accesses = 0;
  /// Replication totals (sums of CpqStats::replication over every query,
  /// failed ones included; zero when the storage stack is not mirrored).
  ReplicationStats replication;
};

/// Runs every query of `queries` against (`tree_p`, `tree_q`) on
/// `options.threads` workers; returns per-query results in input order.
/// Individual query failures land in their BatchQueryResult::status (and
/// BatchStats::failed) without affecting other queries. Both trees must
/// stay unmodified for the duration of the call.
std::vector<BatchQueryResult> BatchKClosestPairs(
    const RStarTree& tree_p, const RStarTree& tree_q,
    const std::vector<BatchQuery>& queries, const BatchOptions& options = {},
    BatchStats* stats = nullptr);

}  // namespace kcpq

#endif  // KCPQ_EXEC_BATCH_H_
