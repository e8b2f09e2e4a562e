// Retrying storage decorator: absorbs transient I/O faults.
//
// Wraps any StorageManager and re-issues operations that fail with a
// *transient* status (Status::IsTransient(), i.e. kIoTransient), using
// capped exponential backoff with deterministic jitter. Permanent errors
// (kIoError, kCorruption, ...) pass through untouched on the first
// attempt — retrying those would hide real damage.
//
// Because a retried page read either eventually succeeds (returning the
// same bytes the fault-free run would have seen) or surfaces the original
// transient error after exhaustion, stacking this decorator under the
// buffer manager makes query results bit-identical to a fault-free run
// whenever the fault burst is shorter than the retry budget.
//
// Deadline awareness: when a page read carries a QueryContext with a
// deadline, the retry loop checks before every attempt whether the
// remaining time can cover the planned backoff sleep. If not, it stops
// immediately with kDeadlineExceeded instead of burning the query's last
// milliseconds asleep — the engines convert that status into an ordinary
// StopCause::kDeadline partial result, so a fault burst near the deadline
// degrades the answer's completeness, never its classification (the query
// is "partial with certificate", not "failed").
//
// The decorator is stateless per operation (retry bookkeeping lives on the
// stack; counters are atomics), so it inherits the thread-safety contract
// of its base verbatim.

#ifndef KCPQ_STORAGE_RETRYING_STORAGE_H_
#define KCPQ_STORAGE_RETRYING_STORAGE_H_

#include <atomic>
#include <chrono>
#include <thread>

#include "common/query_context.h"
#include "common/random.h"
#include "obs/kcpq_metrics.h"
#include "obs/trace.h"
#include "storage/storage_manager.h"

namespace kcpq {

/// Backoff schedule for RetryingStorageManager. attempt i (0-based retry)
/// sleeps min(initial_backoff * 2^i, max_backoff), scaled by a
/// deterministic jitter factor in [0.5, 1]. With initial_backoff == 0 no
/// sleeping happens at all (the test default: deterministic and fast).
struct RetryPolicy {
  int max_retries = 3;
  std::chrono::microseconds initial_backoff{100};
  std::chrono::microseconds max_backoff{5000};
  /// Seed for the jitter hash; together with the operation salt and the
  /// attempt number it makes every sleep reproducible.
  uint64_t seed = 0;
};

class RetryingStorageManager final : public StorageManager {
 public:
  /// `base` must outlive this wrapper.
  RetryingStorageManager(StorageManager* base, RetryPolicy policy = {})
      : StorageManager(base->page_size()), base_(base), policy_(policy) {}

  /// Total retry attempts issued (excludes the first try of each op).
  uint64_t retries() const { return retries_.load(std::memory_order_relaxed); }
  /// Operations that failed transiently at least once but then succeeded.
  uint64_t recovered() const {
    return recovered_.load(std::memory_order_relaxed);
  }
  /// Operations that stayed transiently failed through every retry.
  uint64_t exhausted() const {
    return exhausted_.load(std::memory_order_relaxed);
  }
  /// Retry loops abandoned because the query's deadline could not cover
  /// another attempt (each returned kDeadlineExceeded to the caller).
  uint64_t deadline_abandoned() const {
    return deadline_abandoned_.load(std::memory_order_relaxed);
  }

  uint64_t PageCount() const override { return base_->PageCount(); }

  Result<PageId> Allocate() override {
    Result<PageId> r = base_->Allocate();
    if (r.ok() || !r.status().IsTransient()) return r;
    for (int attempt = 0; attempt < policy_.max_retries; ++attempt) {
      const auto sleep = SleepDuration(0x616c6c6f63ULL, attempt);  // "alloc"
      if (sleep.count() > 0) std::this_thread::sleep_for(sleep);
      retries_.fetch_add(1, std::memory_order_relaxed);
      r = base_->Allocate();
      if (r.ok()) {
        recovered_.fetch_add(1, std::memory_order_relaxed);
        return r;
      }
      if (!r.status().IsTransient()) return r;
    }
    exhausted_.fetch_add(1, std::memory_order_relaxed);
    return r;
  }
  Status Free(PageId id) override {
    return WithRetries(Salt(0x66726565ULL, id), nullptr,  // "free"
                       [&] { return base_->Free(id); });
  }
  Status WritePage(PageId id, const Page& page) override {
    Status s = WithRetries(Salt(0x77726974ULL, id), nullptr,  // "writ"
                           [&] { return base_->WritePage(id, page); });
    if (s.ok()) CountWrite();
    return s;
  }
  Status Sync() override {
    return WithRetries(0x73796e63ULL, nullptr,  // "sync"
                       [&] { return base_->Sync(); });
  }

 protected:
  Status DoReadPage(PageId id, Page* page, const QueryContext* ctx) override {
    Status s = WithRetries(Salt(0x72656164ULL, id), ctx,  // "read"
                           [&] { return base_->ReadPage(id, page, ctx); });
    if (s.ok()) CountRead();
    return s;
  }

 private:
  static uint64_t Salt(uint64_t op, PageId id) {
    return op ^ (static_cast<uint64_t>(id) << 8);
  }

  template <typename Op>
  Status WithRetries(uint64_t salt, const QueryContext* ctx, Op&& op) {
    Status s = op();
    if (s.ok() || !s.IsTransient()) return s;
    const bool deadline_bound = ctx != nullptr && ctx->has_deadline();
    obs::TraceBuffer* trace = ctx != nullptr ? ctx->trace() : nullptr;
    for (int attempt = 0; attempt < policy_.max_retries; ++attempt) {
      const auto sleep = SleepDuration(salt, attempt);
      if (deadline_bound) {
        // Give up when the remaining time cannot even cover the backoff:
        // sleeping through the deadline would waste the query's tail on an
        // attempt whose result can no longer be used.
        const auto now = QueryControl::Clock::now();
        if (now >= ctx->deadline() || now + sleep >= ctx->deadline()) {
          deadline_abandoned_.fetch_add(1, std::memory_order_relaxed);
          KCPQ_METRIC_INC(obs::KcpqMetrics::Get()
                              .storage_retry_deadline_abandoned_total);
          if (trace != nullptr) {
            obs::TraceEvent e;
            e.kind = obs::TraceEventKind::kRetryAbandoned;
            e.a = static_cast<uint64_t>(attempt);
            trace->RecordNow(e);
          }
          return Status::DeadlineExceeded(
              "transient-fault retry abandoned: deadline cannot cover the "
              "backoff");
        }
      }
      if (sleep.count() > 0) std::this_thread::sleep_for(sleep);
      retries_.fetch_add(1, std::memory_order_relaxed);
      KCPQ_METRIC_INC(obs::KcpqMetrics::Get().storage_retries_total);
      if (trace != nullptr) {
        obs::TraceEvent e;
        e.kind = obs::TraceEventKind::kRetry;
        e.a = static_cast<uint64_t>(attempt) + 1;
        e.dur_ns = static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(sleep)
                .count());
        e.ts_ns = trace->NowNs() >= e.dur_ns ? trace->NowNs() - e.dur_ns : 0;
        trace->Record(e);
      }
      s = op();
      if (!s.IsTransient()) {
        if (s.ok()) {
          recovered_.fetch_add(1, std::memory_order_relaxed);
          KCPQ_METRIC_INC(
              obs::KcpqMetrics::Get().storage_retries_recovered_total);
        }
        return s;
      }
    }
    exhausted_.fetch_add(1, std::memory_order_relaxed);
    KCPQ_METRIC_INC(obs::KcpqMetrics::Get().storage_retries_exhausted_total);
    return s;
  }

  static constexpr double kBackoffMultiplier = 2.0;
  static constexpr double kJitterFraction = 0.5;

  /// The exact (jittered, capped) sleep before retry `attempt`.
  /// Deterministic in (seed, op salt, attempt), so both the sleeping and
  /// the deadline-abandon decision reproduce across runs.
  std::chrono::microseconds SleepDuration(uint64_t salt, int attempt) const {
    if (policy_.initial_backoff.count() <= 0) {
      return std::chrono::microseconds(0);
    }
    double backoff = static_cast<double>(policy_.initial_backoff.count());
    for (int i = 0; i < attempt; ++i) backoff *= kBackoffMultiplier;
    const double cap = static_cast<double>(policy_.max_backoff.count());
    if (backoff > cap) backoff = cap;
    // Deterministic jitter: hash (seed, op salt, attempt) to a factor in
    // [1 - kJitterFraction, 1]. Lock-free and reproducible across runs.
    SplitMix64 h(policy_.seed ^ salt ^ (static_cast<uint64_t>(attempt) + 1));
    const double u =
        static_cast<double>(h.Next() >> 11) * 0x1.0p-53;  // [0, 1)
    const double factor = 1.0 - kJitterFraction * u;
    return std::chrono::microseconds(static_cast<int64_t>(backoff * factor));
  }

  StorageManager* base_;
  RetryPolicy policy_;
  std::atomic<uint64_t> retries_{0};
  std::atomic<uint64_t> recovered_{0};
  std::atomic<uint64_t> exhausted_{0};
  std::atomic<uint64_t> deadline_abandoned_{0};
};

}  // namespace kcpq

#endif  // KCPQ_STORAGE_RETRYING_STORAGE_H_
