#include "exec/batch.h"

#include <chrono>
#include <functional>
#include <memory>
#include <utility>

#include "buffer/buffer_manager.h"
#include "common/resumable.h"
#include "cpq/resumable.h"
#include "cpq/resumable_semi.h"
#include "exec/scheduler.h"
#include "hs/hs.h"
#include "hs/resumable.h"
#include "obs/kcpq_metrics.h"
#include "obs/log.h"
#include "obs/query_registry.h"

namespace kcpq {

const char* QueryOutcomeName(QueryOutcome outcome) {
  switch (outcome) {
    case QueryOutcome::kOk:
      return "ok";
    case QueryOutcome::kPartial:
      return "partial";
    case QueryOutcome::kCancelled:
      return "cancelled";
    case QueryOutcome::kFailed:
      return "failed";
    case QueryOutcome::kRejected:
      return "rejected";
  }
  return "?";
}

namespace {

/// Registry-facing kind names (static storage, as Register requires).
const char* BatchQueryKindName(BatchQueryKind kind) {
  switch (kind) {
    case BatchQueryKind::kClosestPairs:
      return "kcp";
    case BatchQueryKind::kSelfClosestPairs:
      return "self";
    case BatchQueryKind::kSemiClosestPairs:
      return "semi";
    case BatchQueryKind::kHsClosestPairs:
      return "hs";
  }
  return "?";
}

}  // namespace

obs::QuerySummary MakeSummary(const BatchQuery& query,
                              const BatchQueryResult& result,
                              const char* scheduler) {
  obs::QuerySummary s;
  s.kind = BatchQueryKindName(query.kind);
  s.family = QueryFamilyName(query.options.family);
  s.scheduler = scheduler;
  s.outcome = QueryOutcomeName(result.outcome);
  s.seconds = result.seconds;
  s.k = query.options.k;
  s.pairs = result.pairs.size();
  s.node_accesses = result.stats.node_accesses;
  s.disk_accesses = result.stats.disk_accesses();
  s.io_parks = result.stats.io_parks;
  const QueryQuality& q = result.stats.quality;
  s.bound_is_upper = q.bound_is_upper;
  if (q.is_partial()) {
    // Anytime certificate: the bound the partial result is certified
    // against (lower for minimizing families, upper for farthest).
    s.stop_cause = StopCauseName(q.stop_cause);
    s.certified_bound = q.guaranteed_lower_bound;
    s.exact = q.is_exact;
  } else if (!result.pairs.empty()) {
    // Complete run: the K-th (worst kept) result distance is the bound.
    s.certified_bound = result.pairs.back().distance;
    s.exact = true;
  } else {
    s.exact = result.status.ok();
  }
  s.admission_estimate_bytes = result.admission.estimated_bytes;
  s.peak_memory_bytes = result.peak_memory_bytes;
  return s;
}

QueryOutcome OutcomeOf(const BatchQueryResult& result) {
  if (!result.status.ok()) return QueryOutcome::kFailed;
  if (result.stats.quality.stop_cause == StopCause::kCancelled) {
    return QueryOutcome::kCancelled;
  }
  if (result.stats.quality.is_partial()) return QueryOutcome::kPartial;
  return QueryOutcome::kOk;
}

namespace {

/// Retires a finished query into the registry / slow-query log (both
/// optional). `live` is null for queries that never started (rejected).
void RetireQuery(const BatchOptions& options, const BatchQuery& query,
                 const BatchQueryResult& result, const char* scheduler,
                 const std::shared_ptr<obs::QueryObservation>& live) {
  if (options.query_registry == nullptr && options.slow_log == nullptr) {
    return;
  }
  obs::QuerySummary s = MakeSummary(query, result, scheduler);
  if (live != nullptr) {
    // The live-side fields: Complete() would fill them too, but the slow
    // log reads the summary first.
    s.id = live->id;
    s.pages_read = live->pages_read.load(std::memory_order_relaxed);
  }
  if (options.slow_log != nullptr) options.slow_log->MaybeRecord(s);
  if (options.query_registry != nullptr) {
    if (live != nullptr) {
      options.query_registry->Complete(live, std::move(s));
    } else {
      options.query_registry->Record(std::move(s));
    }
  }
}

/// The HsOptions a kHsClosestPairs batch query maps to (k_bound is set by
/// HsKClosestPairs / the ResumableHsQuery constructor from options.k).
HsOptions HsOptionsFrom(const CpqOptions& cpq, QueryContext* ctx,
                        size_t batch_prefetch_window) {
  HsOptions hs;
  hs.family = cpq.family;
  hs.query_rect = cpq.query_rect;
  hs.prefetch_window =
      cpq.prefetch_window != 0 ? cpq.prefetch_window : batch_prefetch_window;
  hs.context = ctx;
  return hs;
}

/// Takes a finished machine's status and, when it succeeded, its pairs.
template <typename Task>
void Harvest(ResumableTask* task, BatchQueryResult* result) {
  auto* q = static_cast<Task*>(task);
  result->status = q->status();
  if (result->status.ok()) result->pairs = q->TakeResults();
}

/// Per-query batch metrics: outcome counters plus latency / peak-memory
/// distributions (overall and per scheduler mode, so p50/p99 for each
/// executor are derivable from `/metrics` alone). One call per finished
/// (or shed) query.
void FoldBatchQueryMetrics(const BatchQueryResult& result, double seconds,
                           SchedulerMode mode) {
#if KCPQ_METRICS
  if (!obs::Enabled()) return;
  const obs::KcpqMetrics& m = obs::KcpqMetrics::Get();
  m.batch_queries_total->Increment();
  switch (result.outcome) {
    case QueryOutcome::kOk:
      m.batch_completed_total->Increment();
      break;
    case QueryOutcome::kPartial:
    case QueryOutcome::kCancelled:
      m.batch_partial_total->Increment();
      break;
    case QueryOutcome::kFailed:
      m.batch_failed_total->Increment();
      break;
    case QueryOutcome::kRejected:
      m.batch_rejected_total->Increment();
      return;  // shed before running: no latency/memory sample
  }
  if (seconds >= 0.0) {
    m.batch_query_seconds->Observe(seconds);
    (mode == SchedulerMode::kResumable ? m.batch_query_seconds_resumable
                                       : m.batch_query_seconds_blocking)
        ->Observe(seconds);
  }
  m.batch_query_peak_memory_bytes->Observe(
      static_cast<double>(result.peak_memory_bytes));
#else
  (void)result;
  (void)seconds;
  (void)mode;
#endif
}

/// True when per-query wall-clock timing should run at all; compiled-out
/// metrics (and the runtime master switch) skip the clock reads entirely.
bool MetricsTimingOn() {
#if KCPQ_METRICS
  return obs::Enabled();
#else
  return false;
#endif
}

}  // namespace

std::vector<BatchQueryResult> BatchKClosestPairs(
    const RStarTree& tree_p, const RStarTree& tree_q,
    const std::vector<BatchQuery>& queries, const BatchOptions& options,
    BatchStats* stats) {
  std::vector<BatchQueryResult> results(queries.size());

  // One controller per batch: the trees (hence the cost-model constants)
  // are shared by every query.
  std::unique_ptr<AdmissionController> admission;
  if (options.admission.mode != AdmissionMode::kOff) {
    admission = std::make_unique<AdmissionController>(
        options.admission, tree_p.size(), tree_q.size(), tree_p.max_entries(),
        tree_p.buffer()->storage()->page_size());
  }

  // One source per batch; every query polls its token. Fail-fast trips it
  // from whichever worker fails first.
  CancellationSource batch_source;
  const CancellationToken batch_token = batch_source.token();
  // One executor for both modes (exec/scheduler.h). The mode chooses only
  // whether a miss parks or waits, how many queries are live, and how long
  // a query's context lives:
  //  - kBlocking: the machine ignores the scheduler's waker and runs
  //    inline (a miss waits in BufferManager::Read); `threads` queries are
  //    live at most, and each context is freed with its machine.
  //  - kResumable: the machine parks on misses; up to `max_inflight`
  //    queries are live, and every context lives until the post-run drain.
  const SchedulerMode mode = options.scheduler;
  const bool resumable = mode == SchedulerMode::kResumable;
  const char* const scheduler_name = resumable ? "resumable" : "blocking";

  // Per-query state. A multiplexed query's context is registered as the
  // issuer of staged prefetch entries, so it may only be destroyed after
  // the post-run buffer drains below.
  struct Slot {
    std::unique_ptr<QueryContext> ctx;
    bool timed = false;
    std::chrono::steady_clock::time_point start;
    std::shared_ptr<obs::QueryObservation> live;  // registry attached only
  };
  std::vector<Slot> slots(queries.size());

  // Builds query i's state machine. The scheduler's waker lets it park
  // (kResumable); without it the machine runs inline and one Step()
  // finishes it (kBlocking). Returns null for a query shed by admission.
  const auto factory = [&](size_t i,
                           Waker waker) -> std::unique_ptr<ResumableTask> {
    if (!resumable) waker = Waker();
    BatchQueryResult& result = results[i];
    const BatchQuery& query = queries[i];
    if (admission != nullptr) {
      result.admission = admission->Admit(query);
      if (!result.admission.admitted) {
        // Shed before any I/O: no page read, no node access.
        result.status = Status::ResourceExhausted(result.admission.reason);
        result.outcome = QueryOutcome::kRejected;
        FoldBatchQueryMetrics(result, -1.0, mode);
        RetireQuery(options, query, result, scheduler_name, nullptr);
        return nullptr;
      }
    }
    Slot& slot = slots[i];
    if (options.query_registry != nullptr) {
      slot.live = options.query_registry->Register(
          BatchQueryKindName(query.kind),
          QueryFamilyName(query.options.family), scheduler_name,
          query.options.k);
    }
    slot.timed = MetricsTimingOn();
    if (slot.timed) slot.start = std::chrono::steady_clock::now();

    // Effective control: the query's own limits tightened by the
    // batch-wide ones, plus the batch cancellation token (fail-fast and
    // external batch cancels both flow through it). One context per query:
    // its ResourceAccountant unifies the engine's candidate/heap bytes with
    // the buffer pages read on the query's behalf.
    QueryControl batch_control = options.control;
    batch_control.cancel =
        CancellationToken::Combine(batch_control.cancel, batch_token);
    slot.ctx = std::make_unique<QueryContext>(
        QueryControl::Merged(query.control, batch_control));
    slot.ctx->set_observation(slot.live.get());

    switch (query.kind) {
      case BatchQueryKind::kClosestPairs:
      case BatchQueryKind::kSelfClosestPairs: {
        CpqOptions o = query.options;
        o.context = slot.ctx.get();
        if (o.prefetch_window == 0) o.prefetch_window = options.prefetch_window;
        const bool self = query.kind == BatchQueryKind::kSelfClosestPairs;
        if (self) o.self_join = true;
        return std::make_unique<ResumableCpqQuery>(
            tree_p, self ? tree_p : tree_q, std::move(o), &result.stats,
            std::move(waker));
      }
      case BatchQueryKind::kHsClosestPairs:
        return std::make_unique<ResumableHsQuery>(
            tree_p, tree_q, query.options.k,
            HsOptionsFrom(query.options, slot.ctx.get(),
                          options.prefetch_window),
            &result.stats, std::move(waker));
      case BatchQueryKind::kSemiClosestPairs:
        return std::make_unique<ResumableSemiQuery>(
            tree_p, tree_q, &result.stats, slot.ctx.get(), std::move(waker));
    }
    return nullptr;
  };

  const auto on_done = [&](size_t i, std::unique_ptr<ResumableTask> task) {
    BatchQueryResult& result = results[i];
    Slot& slot = slots[i];
    switch (queries[i].kind) {
      case BatchQueryKind::kClosestPairs:
      case BatchQueryKind::kSelfClosestPairs:
        Harvest<ResumableCpqQuery>(task.get(), &result);
        break;
      case BatchQueryKind::kHsClosestPairs:
        Harvest<ResumableHsQuery>(task.get(), &result);
        break;
      case BatchQueryKind::kSemiClosestPairs:
        Harvest<ResumableSemiQuery>(task.get(), &result);
        break;
    }
    result.peak_memory_bytes = slot.ctx->accountant().peak_total_bytes();
    result.outcome = OutcomeOf(result);
    if (slot.timed) {
      result.seconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - slot.start)
                           .count();
    }
    FoldBatchQueryMetrics(result, result.seconds, mode);
    RetireQuery(options, queries[i], result, scheduler_name, slot.live);
    if (admission != nullptr) {
      admission->Release(result.admission);
      // Close the loop: the measured peak and buffer behaviour of every
      // query that ran refine later estimates (no-op unless feedback_alpha
      // > 0).
      admission->RecordOutcome(result.admission, result.peak_memory_bytes,
                               result.stats.node_accesses,
                               result.stats.disk_accesses());
    }
    if (options.cancel_batch_on_first_failure && !result.status.ok()) {
      batch_source.Cancel();
    }
    if (!resumable) {
      // An inline machine settled its own speculation, so no staged entry
      // names this query's context any more: free it, and its
      // distinct-page set, now rather than at the end of the batch —
      // machine first, since it refers to its context.
      task.reset();
      slot.ctx.reset();
    }
  };

  ResumableScheduler::Options sched;
  sched.workers = options.threads != 0 ? options.threads
                                       : ResumableScheduler::DefaultWorkers();
  sched.max_inflight = resumable ? options.max_inflight  // 0 -> 256
                                 : sched.workers;
  ResumableScheduler::Run(queries.size(), factory, on_done, sched);

  // Settle leftover speculation (and any staged demand entries) while the
  // contexts registered as their issuers are still alive; `slots` may only
  // be destroyed after this.
  tree_p.buffer()->DrainPrefetches();
  if (tree_q.buffer() != tree_p.buffer()) tree_q.buffer()->DrainPrefetches();

  if (stats != nullptr) {
    *stats = BatchStats{};
    stats->queries = results.size();
    for (const BatchQueryResult& r : results) {
      switch (r.outcome) {
        case QueryOutcome::kOk:
          ++stats->ok;
          break;
        case QueryOutcome::kPartial:
          ++stats->partial;
          break;
        case QueryOutcome::kCancelled:
          ++stats->cancelled;
          break;
        case QueryOutcome::kFailed:
          ++stats->failed;
          break;
        case QueryOutcome::kRejected:
          ++stats->rejected;
          break;
      }
      // Replication effort is real even when the query ultimately failed
      // (every replica may have been tried), so fold it unconditionally.
      const ReplicationStats& rep = r.stats.replication;
      stats->replication.failover_reads += rep.failover_reads;
      stats->replication.read_repairs += rep.read_repairs;
      stats->replication.hedged_reads += rep.hedged_reads;
      stats->replication.hedge_wins += rep.hedge_wins;
      if (!r.status.ok()) continue;
      stats->node_pairs_processed += r.stats.node_pairs_processed;
      stats->point_distance_computations +=
          r.stats.point_distance_computations;
      stats->leaf_pairs_skipped += r.stats.leaf_pairs_skipped;
      stats->disk_accesses += r.stats.disk_accesses();
    }
    if (admission != nullptr) {
      stats->admission_would_reject = admission->would_reject();
    }
  }
  return results;
}

}  // namespace kcpq
