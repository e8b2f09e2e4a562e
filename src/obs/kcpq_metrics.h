// The catalogue of process-wide kcpq metrics: every instrument the
// library emits, registered once and exposed as stable handles so hot
// paths pay only the relaxed-atomic increment (no name lookup, no lock).
//
// Naming follows Prometheus conventions: `kcpq_<module>_<what>_total` for
// counters, `_seconds` / `_bytes` suffixes carrying units on histograms
// and gauges. docs/observability.md is the human-readable version of this
// table; keep the two in sync.
//
// Modules fold their own stats structs into these counters (e.g. cpq.cc
// folds a finished query's CpqStats) rather than obs depending on the
// module headers — the obs library sits below storage/buffer/engines in
// the dependency graph and must only depend on kcpq_common.

#ifndef KCPQ_OBS_KCPQ_METRICS_H_
#define KCPQ_OBS_KCPQ_METRICS_H_

#include "obs/metrics.h"
#include "obs/metrics_registry.h"

namespace kcpq {
namespace obs {

struct KcpqMetrics {
  // -- storage ----------------------------------------------------------
  Counter* storage_reads_total;
  Counter* storage_inline_reads_total;     // of those: page-cache, no wait
  Counter* storage_writes_total;
  Counter* storage_retries_total;          // transient-fault retry attempts
  Counter* storage_retries_recovered_total;
  Counter* storage_retries_exhausted_total;
  Counter* storage_retry_deadline_abandoned_total;
  Histogram* io_read_wait_seconds;         // per-page physical read latency

  // -- replication / hedging / scrub (docs/robustness.md) ---------------
  Counter* storage_replica_read_attempts_total;  // per-replica read tries
  Counter* storage_replica_failovers_total;      // reads served past a failure
  Counter* storage_replica_repairs_total;        // read-repair writebacks
  Counter* storage_replica_breaker_opens_total;
  Counter* storage_replica_breaker_closes_total;
  Counter* storage_replica_breaker_skips_total;  // reads routed around open
  Counter* storage_corruptions_detected_total;   // checksum mismatches
  Counter* storage_corruptions_injected_total;   // fault layer (tests/chaos)
  Counter* storage_faults_injected_total;        // fault layer (tests/chaos)
  Counter* hedge_issued_total;                   // speculative second reads
  Counter* hedge_wins_total;                     // hedge finished first
  Counter* hedge_wasted_total;                   // hedge lost or failed
  Counter* scrub_pages_total;                    // pages verified by scrub
  Counter* scrub_divergent_total;                // pages with bad replicas
  Counter* scrub_repairs_total;                  // replica copies rewritten

  // -- buffer -----------------------------------------------------------
  Counter* buffer_hits_total;
  Counter* buffer_misses_total;
  Counter* buffer_evictions_total;
  Counter* buffer_writebacks_total;

  // -- speculative prefetch (docs/io.md) --------------------------------
  Counter* prefetch_issued_total;
  Counter* prefetch_hits_total;            // demand misses served staged
  Counter* prefetch_wasted_total;          // prefetched but never claimed
  Gauge* prefetch_inflight_peak;           // high-water mark of in-flight

  // -- cpq engines ------------------------------------------------------
  Counter* cpq_queries_total;
  Counter* cpq_node_pairs_total;           // node pairs expanded
  Counter* cpq_candidates_generated_total;
  Counter* cpq_candidates_pruned_total;    // Inequality 1 prunes
  Counter* cpq_distance_computations_total;
  Counter* cpq_leaf_pairs_skipped_total;   // plane-sweep early exits
  Histogram* cpq_query_seconds;
  Histogram* cpq_query_node_accesses;

  // -- per-family latency (CPQ engines and HS fold into the same three,
  //    so /metrics alone yields family p50/p99 regardless of engine) ----
  Histogram* query_seconds_closest;
  Histogram* query_seconds_farthest;
  Histogram* query_seconds_rcp;

  // -- hs (incremental distance semi-join / heap engines) ---------------
  Counter* hs_queries_total;
  Counter* hs_items_pushed_total;
  Counter* hs_items_popped_total;
  Counter* hs_queue_spill_reads_total;
  Counter* hs_queue_spill_writes_total;
  Histogram* hs_query_seconds;

  // -- batch executor ---------------------------------------------------
  Counter* batch_queries_total;
  Counter* batch_completed_total;
  Counter* batch_partial_total;
  Counter* batch_failed_total;
  Counter* batch_rejected_total;
  Histogram* batch_query_seconds;
  Histogram* batch_query_peak_memory_bytes;
  // per-scheduler latency split of batch_query_seconds
  Histogram* batch_query_seconds_blocking;
  Histogram* batch_query_seconds_resumable;

  // -- admission --------------------------------------------------------
  Counter* admission_admitted_total;
  Counter* admission_rejected_total;
  Counter* admission_feedback_updates_total;

  // -- io backend / native uring event loop (docs/io.md) ----------------
  Gauge* io_backend_active;                // IoBackend: 1=pool, 2=uring
  Histogram* uring_sqe_batch_size;         // SQEs per SubmitReads flush
  Histogram* uring_cqes_per_wake;          // CQEs drained per reaper wake
  Counter* uring_sq_full_stalls_total;     // submit blocked on SQ/slots
  Counter* uring_fixed_buffer_reads_total; // READ_FIXED into registered frame
  Counter* uring_unfixed_reads_total;      // plain READ (registration refused)

  // -- completion-driven scheduler (docs/io.md) -------------------------
  Counter* scheduler_parks_total;          // task yielded on a page miss
  Counter* scheduler_wakes_total;          // parked task re-queued
  Counter* scheduler_steps_total;          // task step invocations
  Gauge* scheduler_parked;                 // tasks currently parked
  Gauge* scheduler_runnable;               // tasks queued runnable
  Gauge* scheduler_inflight_peak;          // high-water mark of in-flight

  // -- telemetry exporter (src/obs/http_exporter.h) ---------------------
  Counter* obs_http_requests_total;        // every request served
  Counter* obs_scrapes_total;              // /metrics requests
  Histogram* obs_scrape_seconds;           // /metrics render+snapshot time

  /// The singleton handle bundle; instruments are registered on first use.
  static const KcpqMetrics& Get();
};

}  // namespace obs
}  // namespace kcpq

#endif  // KCPQ_OBS_KCPQ_METRICS_H_
