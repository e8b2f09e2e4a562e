// Metric primitives: lock-free counters, gauges, and fixed-bucket
// histograms, plus the compile-time and runtime gates that keep them off
// the hot path when unwanted.
//
// Two gates, orthogonal:
//
//  * Compile-time: the KCPQ_METRICS macro (CMake option of the same name,
//    default ON). With -DKCPQ_METRICS=0 every KCPQ_METRIC_* call site
//    expands to `(void)0` — the instrumented binaries are bit-identical in
//    *results* to an uninstrumented build, and bench_trace proves the
//    stripped hot path costs nothing. The primitive classes themselves are
//    always defined (identically, macro-independent), so mixed-setting
//    translation units never violate the ODR; only the call-site macros
//    change shape.
//  * Runtime: obs::SetEnabled(false) freezes all macro call sites with one
//    relaxed atomic load. bench_trace uses this to measure the
//    metrics-on-vs-off delta inside a single binary.
//
// Increment paths are wait-free: one relaxed fetch_add per counter event
// (on the calling thread's stripe of the counter, so threads bumping the
// same counter rarely share a cache line), two or three per histogram
// observation. Registration, snapshotting, and
// export take locks and belong off the query path (metrics_registry.h).

#ifndef KCPQ_OBS_METRICS_H_
#define KCPQ_OBS_METRICS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#ifndef KCPQ_METRICS
#define KCPQ_METRICS 1
#endif

namespace kcpq {
namespace obs {

/// Whether the library itself (kcpq_obs.a) was compiled with metrics on.
/// Per-TU macro overrides (tests) do not change this.
bool MetricsCompiledIn();

/// Runtime master switch; relaxed loads make it safe to flip from any
/// thread (in-flight increments on other threads may still land).
inline std::atomic<bool> g_metrics_enabled{true};

inline bool Enabled() {
  return g_metrics_enabled.load(std::memory_order_relaxed);
}
inline void SetEnabled(bool on) {
  g_metrics_enabled.store(on, std::memory_order_relaxed);
}

/// The calling thread's stripe in [0, stripes): threads take stripes
/// round-robin as they first bump a counter.
inline size_t ThreadStripe(size_t stripes) {
  static std::atomic<size_t> next{0};
  thread_local const size_t mine =
      next.fetch_add(1, std::memory_order_relaxed);
  return mine % stripes;
}

/// Monotone event counter, striped across threads: each thread adds to
/// its own cache-line-padded slot and value() sums the slots, so hot
/// counters bumped by every worker (buffer hits, storage reads) do not
/// bounce one line between cores. The sum is exact once adders are quiet;
/// under concurrent adds it is some value between the counts before and
/// after, like a single atomic's.
class Counter {
 public:
  static constexpr size_t kStripes = 8;

  void Add(uint64_t n) {
    slots_[ThreadStripe(kStripes)].value.fetch_add(n,
                                                   std::memory_order_relaxed);
  }
  void Increment() { Add(1); }
  uint64_t value() const {
    uint64_t total = 0;
    for (const Slot& slot : slots_) {
      total += slot.value.load(std::memory_order_relaxed);
    }
    return total;
  }
  void Reset() {
    for (Slot& slot : slots_) slot.value.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Slot {
    std::atomic<uint64_t> value{0};
  };
  Slot slots_[kStripes];
};

/// Last-write-wins level; SetMax keeps a high-water mark.
class Gauge {
 public:
  void Set(uint64_t v) { value_.store(v, std::memory_order_relaxed); }
  void SetMax(uint64_t v) {
    uint64_t cur = value_.load(std::memory_order_relaxed);
    while (cur < v && !value_.compare_exchange_weak(
                          cur, v, std::memory_order_relaxed)) {
    }
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Fixed-bucket histogram: cumulative-style export (Prometheus `le`
/// semantics), lock-free observation. Bucket bounds are fixed at
/// construction; an implicit +infinity bucket catches the overflow tail.
class Histogram {
 public:
  /// `upper_bounds` must be strictly ascending (finite); a final +inf
  /// bucket is added implicitly.
  explicit Histogram(std::vector<double> upper_bounds)
      : bounds_(std::move(upper_bounds)),
        buckets_(bounds_.size() + 1) {}

  void Observe(double v) {
    size_t i = 0;
    while (i < bounds_.size() && v > bounds_[i]) ++i;
    buckets_[i].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket (non-cumulative) counts; last entry is the +inf bucket.
  std::vector<uint64_t> bucket_counts() const {
    std::vector<uint64_t> out(buckets_.size());
    for (size_t i = 0; i < buckets_.size(); ++i) {
      out[i] = buckets_[i].load(std::memory_order_relaxed);
    }
    return out;
  }
  /// Derived from the buckets rather than kept as a separate atomic: a
  /// standalone counter could be read ahead of (or behind) the bucket
  /// array under concurrent Observe, transiently breaking the invariant
  /// count == sum(buckets) that snapshot deltas assert.
  uint64_t count() const {
    uint64_t total = 0;
    for (const auto& b : buckets_) {
      total += b.load(std::memory_order_relaxed);
    }
    return total;
  }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  void Reset() {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    sum_.store(0.0, std::memory_order_relaxed);
  }

 private:
  std::vector<double> bounds_;
  /// deque-free stable storage: the vector is sized once in the ctor.
  std::vector<std::atomic<uint64_t>> buckets_;
  std::atomic<double> sum_{0.0};
};

/// Log-spaced bucket bounds `start, start*factor, ...` (n bounds), the
/// standard shape for latency and byte-size histograms.
std::vector<double> ExponentialBounds(double start, double factor, size_t n);

}  // namespace obs
}  // namespace kcpq

// Hot-path call-site macros. `h` is a Counter* / Gauge* / Histogram* that
// may be assumed non-null (handles come from KcpqMetrics / the registry,
// which never return null). With KCPQ_METRICS=0 the operand expressions
// are not evaluated at all.
#if KCPQ_METRICS
#define KCPQ_METRIC_ADD(h, n)                            \
  do {                                                   \
    if (::kcpq::obs::Enabled()) (h)->Add(n);             \
  } while (0)
#define KCPQ_METRIC_INC(h) KCPQ_METRIC_ADD(h, 1)
#define KCPQ_METRIC_OBSERVE(h, v)                        \
  do {                                                   \
    if (::kcpq::obs::Enabled()) (h)->Observe(v);         \
  } while (0)
#define KCPQ_METRIC_SET_MAX(h, v)                        \
  do {                                                   \
    if (::kcpq::obs::Enabled()) (h)->SetMax(v);          \
  } while (0)
#define KCPQ_METRIC_SET(h, v)                            \
  do {                                                   \
    if (::kcpq::obs::Enabled()) (h)->Set(v);             \
  } while (0)
#else
#define KCPQ_METRIC_ADD(h, n) ((void)0)
#define KCPQ_METRIC_INC(h) ((void)0)
#define KCPQ_METRIC_OBSERVE(h, v) ((void)0)
#define KCPQ_METRIC_SET_MAX(h, v) ((void)0)
#define KCPQ_METRIC_SET(h, v) ((void)0)
#endif

#endif  // KCPQ_OBS_METRICS_H_
