// Shared infrastructure for the per-figure benchmark harnesses.
//
// Each harness reproduces one figure of the paper's evaluation (Sections 4
// and 5): it builds the figure's data sets, runs the queries, and prints
// the same rows/series the paper plots (disk accesses, or cost relative to
// a baseline). Experiment configuration matches Section 4: 1 KiB pages
// (M = 21, m = 7), trees built by one-by-one R* insertion, cost = R-tree
// node disk accesses during the query only.
//
// Set REPRO_SCALE (e.g. 0.1) to shrink every data set for a quick smoke
// run; the paper's shapes are stable under scaling.

#ifndef KCPQ_BENCH_BENCH_UTIL_H_
#define KCPQ_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "buffer/buffer_manager.h"
#include "common/table.h"
#include "common/timer.h"
#include "cpq/cpq.h"
#include "datagen/datagen.h"
#include "hs/hs.h"
#include "obs/metrics_registry.h"
#include "rtree/rtree.h"
#include "storage/memory_storage.h"

namespace kcpq {
namespace bench {

/// REPRO_SCALE environment variable; 1.0 when unset.
double ReproScale();

/// n scaled by REPRO_SCALE (at least 16).
size_t Scaled(size_t n);

enum class DataKind { kUniform, kSequoiaLike };

/// One data set built into one simulated disk. Construction inserts the
/// points one by one through an unbuffered path (construction cost is not
/// part of any experiment); OpenView then attaches a fresh buffer of any
/// capacity for a measured query run.
class TreeStore {
 public:
  TreeStore(DataKind kind, size_t n, const Rect& workspace, uint64_t seed,
            const RTreeOptions& options = RTreeOptions());

  /// A queryable view: its own buffer (cold) over the shared storage.
  struct View {
    /// Optional latency-injecting wrapper; declared before the buffer so
    /// the buffer's destructor (which flushes through it) runs first.
    std::unique_ptr<StorageManager> slow_storage;
    std::unique_ptr<BufferManager> buffer;
    std::unique_ptr<RStarTree> tree;
  };
  /// `buffer_pages` is the per-tree share (the paper's B/2).
  View OpenView(size_t buffer_pages);

  /// View for concurrent query runs: a buffer with `shards` shard locks,
  /// optionally over a simulated disk that sleeps `read_latency` per
  /// physical page read (storage/latency_storage.h). Zero latency reads at
  /// memory speed.
  View OpenParallelView(size_t buffer_pages, size_t shards,
                        std::chrono::microseconds read_latency =
                            std::chrono::microseconds(0));

  size_t size() const { return size_; }
  int height() const { return height_; }

 private:
  MemoryStorageManager storage_;
  PageId meta_ = kInvalidPageId;
  size_t size_ = 0;
  int height_ = 0;
};

/// Builds the paper's standard data sets (unit workspace; Q data shifted to
/// the requested overlap fraction).
std::unique_ptr<TreeStore> MakeStore(DataKind kind, size_t n, double overlap,
                                     uint64_t seed);

/// One measured query: opens cold views with `buffer_pages_total / 2` per
/// tree, runs KClosestPairs, returns the stats (disk accesses of the query
/// only).
struct QueryOutcome {
  CpqStats stats;
  double seconds = 0.0;
  double result_distance = 0.0;  // distance of the K-th (last) pair
};
QueryOutcome RunCpq(TreeStore& p, TreeStore& q, const CpqOptions& options,
                    size_t buffer_pages_total);

/// Like RunCpq, for the Hjaltason-Samet incremental join retrieving k
/// pairs.
QueryOutcome RunHs(TreeStore& p, TreeStore& q, size_t k,
                   const HsOptions& options, size_t buffer_pages_total);

/// Prints the standard header for a figure harness.
void PrintFigureHeader(const std::string& figure,
                       const std::string& description);

/// Current metrics-registry snapshot (obs/metrics_registry.h). Capture
/// one before and one after a measured region and subtract with
/// obs::MetricsSnapshot::Delta to attribute process-global counters to
/// that region.
obs::MetricsSnapshot CaptureMetrics();

/// Machine-readable record of a bench run, so successive changes can track
/// the performance trajectory. Collects named scalars and tables and
/// writes them as `BENCH_<name>.json` (current directory, or $BENCH_DIR
/// when set). Table cells that parse as numbers are emitted as JSON
/// numbers; everything else stays a string.
///
/// Construction snapshots the metrics registry; Write() embeds the
/// registry delta over the bench's lifetime as a `"metrics"` section, so
/// every BENCH_*.json carries the unified counters (buffer hit/miss,
/// candidate pruning, retries, ...) without hand-copied struct fields.
class BenchJson {
 public:
  explicit BenchJson(std::string name)
      : name_(std::move(name)), metrics_baseline_(CaptureMetrics()) {}

  void AddScalar(const std::string& key, double value);
  void AddTable(const std::string& key, const Table& table);

  /// Summarizes a registry histogram's activity since this BenchJson was
  /// constructed as scalars: `<key>_count`, `<key>_mean`, `<key>_p50`,
  /// `<key>_p99` (quantiles linearly interpolated within the winning
  /// bucket, so precision is the bucket width; the +inf bucket reports
  /// the last finite bound). No-op when the metric is absent or saw no
  /// observations — a bench with the exporter off emits no stray zeros.
  void AddHistogramStats(const std::string& key,
                         const std::string& metric_name);

  /// Writes the file and prints its path; failures are reported to stderr
  /// (a bench's numbers on stdout are never lost to a JSON I/O error).
  void Write() const;

 private:
  std::string name_;
  obs::MetricsSnapshot metrics_baseline_;
  std::vector<std::pair<std::string, double>> scalars_;
  std::vector<std::pair<std::string, Table>> tables_;
};

}  // namespace bench
}  // namespace kcpq

#endif  // KCPQ_BENCH_BENCH_UTIL_H_
