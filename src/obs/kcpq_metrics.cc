#include "obs/kcpq_metrics.h"

namespace kcpq {
namespace obs {

namespace {

KcpqMetrics Register() {
  MetricsRegistry& r = MetricsRegistry::Global();
  // Latency buckets: 1µs .. ~8.6s in powers of 4 (12 bounds + inf).
  const std::vector<double> kLatency = ExponentialBounds(1e-6, 4.0, 12);
  // Byte buckets: 4KiB .. 4GiB in powers of 4 (10 bounds + inf).
  const std::vector<double> kBytes = ExponentialBounds(4096.0, 4.0, 10);
  // Node-access buckets: 1 .. ~262k in powers of 4 (10 bounds + inf).
  const std::vector<double> kAccesses = ExponentialBounds(1.0, 4.0, 10);

  KcpqMetrics m;
  m.storage_reads_total = r.GetCounter("kcpq_storage_reads_total");
  m.storage_inline_reads_total =
      r.GetCounter("kcpq_storage_inline_reads_total",
                   "Reads served from the page cache without waiting "
                   "(resumable misses that did not park)");
  m.storage_writes_total = r.GetCounter("kcpq_storage_writes_total");
  m.storage_retries_total = r.GetCounter("kcpq_storage_retries_total");
  m.storage_retries_recovered_total =
      r.GetCounter("kcpq_storage_retries_recovered_total");
  m.storage_retries_exhausted_total =
      r.GetCounter("kcpq_storage_retries_exhausted_total");
  m.storage_retry_deadline_abandoned_total =
      r.GetCounter("kcpq_storage_retry_deadline_abandoned_total");
  m.io_read_wait_seconds =
      r.GetHistogram("kcpq_io_read_wait_seconds", kLatency);

  m.storage_replica_read_attempts_total =
      r.GetCounter("kcpq_storage_replica_read_attempts_total");
  m.storage_replica_failovers_total =
      r.GetCounter("kcpq_storage_replica_failovers_total");
  m.storage_replica_repairs_total =
      r.GetCounter("kcpq_storage_replica_repairs_total");
  m.storage_replica_breaker_opens_total =
      r.GetCounter("kcpq_storage_replica_breaker_opens_total");
  m.storage_replica_breaker_closes_total =
      r.GetCounter("kcpq_storage_replica_breaker_closes_total");
  m.storage_replica_breaker_skips_total =
      r.GetCounter("kcpq_storage_replica_breaker_skips_total");
  m.storage_corruptions_detected_total =
      r.GetCounter("kcpq_storage_corruptions_detected_total");
  m.storage_corruptions_injected_total =
      r.GetCounter("kcpq_storage_corruptions_injected_total");
  m.storage_faults_injected_total =
      r.GetCounter("kcpq_storage_faults_injected_total");
  m.hedge_issued_total = r.GetCounter("kcpq_hedge_issued_total");
  m.hedge_wins_total = r.GetCounter("kcpq_hedge_wins_total");
  m.hedge_wasted_total = r.GetCounter("kcpq_hedge_wasted_total");
  m.scrub_pages_total = r.GetCounter("kcpq_scrub_pages_total");
  m.scrub_divergent_total = r.GetCounter("kcpq_scrub_divergent_total");
  m.scrub_repairs_total = r.GetCounter("kcpq_scrub_repairs_total");

  m.buffer_hits_total = r.GetCounter("kcpq_buffer_hits_total");
  m.buffer_misses_total = r.GetCounter("kcpq_buffer_misses_total");
  m.buffer_evictions_total = r.GetCounter("kcpq_buffer_evictions_total");
  m.buffer_writebacks_total = r.GetCounter("kcpq_buffer_writebacks_total");

  m.prefetch_issued_total = r.GetCounter("kcpq_prefetch_issued_total");
  m.prefetch_hits_total = r.GetCounter("kcpq_prefetch_hits_total");
  m.prefetch_wasted_total = r.GetCounter("kcpq_prefetch_wasted_total");
  m.prefetch_inflight_peak = r.GetGauge("kcpq_prefetch_inflight_peak");

  m.cpq_queries_total = r.GetCounter("kcpq_cpq_queries_total");
  m.cpq_node_pairs_total = r.GetCounter("kcpq_cpq_node_pairs_total");
  m.cpq_candidates_generated_total =
      r.GetCounter("kcpq_cpq_candidates_generated_total");
  m.cpq_candidates_pruned_total =
      r.GetCounter("kcpq_cpq_candidates_pruned_total");
  m.cpq_distance_computations_total =
      r.GetCounter("kcpq_cpq_distance_computations_total");
  m.cpq_leaf_pairs_skipped_total =
      r.GetCounter("kcpq_cpq_leaf_pairs_skipped_total");
  m.cpq_query_seconds = r.GetHistogram("kcpq_cpq_query_seconds", kLatency);
  m.cpq_query_node_accesses =
      r.GetHistogram("kcpq_cpq_query_node_accesses", kAccesses);

  m.query_seconds_closest =
      r.GetHistogram("kcpq_query_seconds_closest", kLatency,
                     "Per-query wall clock, k-closest-pairs family "
                     "(all engines)");
  m.query_seconds_farthest =
      r.GetHistogram("kcpq_query_seconds_farthest", kLatency,
                     "Per-query wall clock, k-farthest-pairs family "
                     "(all engines)");
  m.query_seconds_rcp =
      r.GetHistogram("kcpq_query_seconds_rcp", kLatency,
                     "Per-query wall clock, k-range-closest-pairs family "
                     "(all engines)");

  m.hs_queries_total = r.GetCounter("kcpq_hs_queries_total");
  m.hs_items_pushed_total = r.GetCounter("kcpq_hs_items_pushed_total");
  m.hs_items_popped_total = r.GetCounter("kcpq_hs_items_popped_total");
  m.hs_queue_spill_reads_total =
      r.GetCounter("kcpq_hs_queue_spill_reads_total");
  m.hs_queue_spill_writes_total =
      r.GetCounter("kcpq_hs_queue_spill_writes_total");
  m.hs_query_seconds = r.GetHistogram("kcpq_hs_query_seconds", kLatency);

  m.batch_queries_total = r.GetCounter("kcpq_batch_queries_total");
  m.batch_completed_total = r.GetCounter("kcpq_batch_completed_total");
  m.batch_partial_total = r.GetCounter("kcpq_batch_partial_total");
  m.batch_failed_total = r.GetCounter("kcpq_batch_failed_total");
  m.batch_rejected_total = r.GetCounter("kcpq_batch_rejected_total");
  m.batch_query_seconds =
      r.GetHistogram("kcpq_batch_query_seconds", kLatency);
  m.batch_query_peak_memory_bytes =
      r.GetHistogram("kcpq_batch_query_peak_memory_bytes", kBytes);
  m.batch_query_seconds_blocking =
      r.GetHistogram("kcpq_batch_query_seconds_blocking", kLatency,
                     "Per-query wall clock of blocking batches");
  m.batch_query_seconds_resumable =
      r.GetHistogram("kcpq_batch_query_seconds_resumable", kLatency,
                     "Per-query wall clock under the resumable scheduler");

  m.admission_admitted_total =
      r.GetCounter("kcpq_admission_admitted_total");
  m.admission_rejected_total =
      r.GetCounter("kcpq_admission_rejected_total");
  m.admission_feedback_updates_total =
      r.GetCounter("kcpq_admission_feedback_updates_total");

  m.io_backend_active =
      r.GetGauge("kcpq_io_backend_active",
                 "Active async I/O backend: 1=pool, 2=uring "
                 "(after any fallback)");
  m.uring_sqe_batch_size =
      r.GetHistogram("kcpq_uring_sqe_batch_size", kAccesses,
                     "SQEs submitted per event-loop batch");
  m.uring_cqes_per_wake =
      r.GetHistogram("kcpq_uring_cqes_per_wake", kAccesses,
                     "CQEs drained per reaper wakeup");
  m.uring_sq_full_stalls_total =
      r.GetCounter("kcpq_uring_sq_full_stalls_total",
                   "Submissions that blocked on a full SQ or slot pool");
  m.uring_fixed_buffer_reads_total =
      r.GetCounter("kcpq_uring_fixed_buffer_reads_total",
                   "Reads served through registered fixed buffers");
  m.uring_unfixed_reads_total =
      r.GetCounter("kcpq_uring_unfixed_reads_total",
                   "Reads served as plain IORING_OP_READ");

  m.scheduler_parks_total = r.GetCounter("kcpq_scheduler_parks_total");
  m.scheduler_wakes_total = r.GetCounter("kcpq_scheduler_wakes_total");
  m.scheduler_steps_total = r.GetCounter("kcpq_scheduler_steps_total");
  m.scheduler_parked = r.GetGauge("kcpq_scheduler_parked");
  m.scheduler_runnable = r.GetGauge("kcpq_scheduler_runnable");
  m.scheduler_inflight_peak = r.GetGauge("kcpq_scheduler_inflight_peak");

  m.obs_http_requests_total =
      r.GetCounter("kcpq_obs_http_requests_total",
                   "Requests served by the embedded telemetry exporter");
  m.obs_scrapes_total =
      r.GetCounter("kcpq_obs_scrapes_total", "/metrics scrapes served");
  m.obs_scrape_seconds =
      r.GetHistogram("kcpq_obs_scrape_seconds", kLatency,
                     "Snapshot + render time of one /metrics scrape");
  return m;
}

}  // namespace

const KcpqMetrics& KcpqMetrics::Get() {
  static const KcpqMetrics* instance = new KcpqMetrics(Register());
  return *instance;
}

}  // namespace obs
}  // namespace kcpq
