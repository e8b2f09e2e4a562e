// Parallel batch query engine + plane-sweep leaf kernel benchmark.
//
// Not a figure of the paper — this harness measures the two engine
// additions layered on top of the reproduction:
//
//   Part A  Leaf kernel work. Uniform 100K x 100K, K = 100: the point
//           distances the plane-sweep kernel computes, against the pairs a
//           nested loop over the same leaf pairs would compute. That count
//           is the sweep's computed + skipped pairs: in a cross join each
//           point pair of a processed leaf pair is one or the other.
//
//   Part B  Batch throughput scaling. A batch of independent K-CPQ
//           queries over shared trees (sharded buffers) at 1/2/4/8
//           worker threads, in two storage modes:
//             mem       in-memory pages, cost is pure CPU
//             disk-sim  every physical page read sleeps (simulated disk,
//                       storage/latency_storage.h); batching wins by
//                       overlapping I/O waits, independent of core count
//
// Results also land in BENCH_parallel.json for machine consumption.

#include <chrono>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "exec/batch.h"

namespace kcpq {
namespace bench {
namespace {

// Part B shape: trees of kBatchTreeSize points each; the batch runs
// kBatchQueries queries (k and algorithm vary per query) against buffers
// of kBatchBufferPages per tree — far smaller than the trees, so physical
// reads persist across the batch and disk-sim latency stays on the
// critical path.
constexpr size_t kBatchTreeSize = 20000;
constexpr size_t kBatchQueries = 32;
constexpr size_t kBatchBufferPages = 64;
constexpr size_t kBatchShards = 64;
constexpr std::chrono::microseconds kDiskReadLatency{200};

void PartAKernelAblation(BenchJson* json) {
  std::printf("\nPart A: leaf kernel work — uniform %zu x %zu, K = 100\n",
              Scaled(100000), Scaled(100000));
  auto store_p = MakeStore(DataKind::kUniform, Scaled(100000), 1.0, 42);
  auto store_q = MakeStore(DataKind::kUniform, Scaled(100000), 1.0, 43);

  Table table({"algorithm", "dist computations", "pairs skipped",
               "nested-loop pairs", "node pairs", "seconds"});
  uint64_t pdc_nested = 0;
  uint64_t pdc_sweep = 0;
  for (const CpqAlgorithm algorithm :
       {CpqAlgorithm::kSortedDistances, CpqAlgorithm::kHeap}) {
    CpqOptions options;
    options.algorithm = algorithm;
    options.k = 100;
    // Counters come from the unified metrics registry (delta across the
    // run) rather than hand-copied CpqStats fields.
    const obs::MetricsSnapshot before = CaptureMetrics();
    const QueryOutcome outcome = RunCpq(*store_p, *store_q, options, 512);
    const obs::MetricsSnapshot delta =
        obs::MetricsSnapshot::Delta(before, CaptureMetrics());
    const uint64_t pdc =
        delta.CounterValue("kcpq_cpq_distance_computations_total");
    const uint64_t skipped =
        delta.CounterValue("kcpq_cpq_leaf_pairs_skipped_total");
    table.AddRow({CpqAlgorithmName(algorithm), Table::Count(pdc),
                  Table::Count(skipped), Table::Count(pdc + skipped),
                  Table::Count(delta.CounterValue("kcpq_cpq_node_pairs_total")),
                  Table::Num(outcome.seconds, 3)});
    pdc_nested += pdc + skipped;
    pdc_sweep += pdc;
  }
  table.Print(stdout);
  const double reduction =
      pdc_nested > 0 ? 1.0 - static_cast<double>(pdc_sweep) /
                                 static_cast<double>(pdc_nested)
                     : 0.0;
  std::printf("sweep computes %.1f%% fewer point distances than nested loop\n",
              reduction * 100);
  json->AddScalar("pdc_nested", static_cast<double>(pdc_nested));
  json->AddScalar("pdc_sweep", static_cast<double>(pdc_sweep));
  json->AddScalar("pdc_reduction", reduction);
  json->AddTable("kernel_ablation", table);
}

std::vector<BatchQuery> MakeBatch() {
  std::vector<BatchQuery> batch(kBatchQueries);
  // Independent queries of unequal cost, as a CPQ server would see: k and
  // algorithm vary per query.
  constexpr size_t kKs[] = {1, 10, 100, 1000};
  for (size_t i = 0; i < batch.size(); ++i) {
    batch[i].options.k = kKs[i % 4];
    batch[i].options.algorithm =
        (i % 2 == 0) ? CpqAlgorithm::kHeap : CpqAlgorithm::kSortedDistances;
  }
  return batch;
}

// One timed batch run: cold sharded views, `threads` workers. Returns
// queries/second.
double RunBatch(TreeStore& p, TreeStore& q,
                const std::vector<BatchQuery>& batch, size_t threads,
                std::chrono::microseconds read_latency) {
  TreeStore::View vp =
      p.OpenParallelView(kBatchBufferPages, kBatchShards, read_latency);
  TreeStore::View vq =
      q.OpenParallelView(kBatchBufferPages, kBatchShards, read_latency);
  BatchOptions options;
  options.threads = threads;
  BatchStats stats;
  Timer timer;
  const std::vector<BatchQueryResult> results =
      BatchKClosestPairs(*vp.tree, *vq.tree, batch, options, &stats);
  const double seconds = timer.ElapsedSeconds();
  for (const BatchQueryResult& r : results) KCPQ_CHECK_OK(r.status);
  return static_cast<double>(batch.size()) / seconds;
}

void PartBThroughput(BenchJson* json) {
  std::printf(
      "\nPart B: batch throughput — %zu queries, %zu x %zu uniform trees,\n"
      "buffer %zu pages/tree (%zu shards), disk-sim read latency %lld us\n",
      kBatchQueries, Scaled(kBatchTreeSize), Scaled(kBatchTreeSize),
      kBatchBufferPages, kBatchShards,
      static_cast<long long>(kDiskReadLatency.count()));
  auto store_p = MakeStore(DataKind::kUniform, Scaled(kBatchTreeSize), 1.0, 7);
  auto store_q = MakeStore(DataKind::kUniform, Scaled(kBatchTreeSize), 1.0, 8);
  const std::vector<BatchQuery> batch = MakeBatch();

  Table table({"threads", "mem q/s", "mem speedup", "disk-sim q/s",
               "disk-sim speedup"});
  double mem_base = 0.0;
  double disk_base = 0.0;
  for (const size_t threads : {1, 2, 4, 8}) {
    const double mem_qps = RunBatch(*store_p, *store_q, batch, threads,
                                    std::chrono::microseconds(0));
    const double disk_qps =
        RunBatch(*store_p, *store_q, batch, threads, kDiskReadLatency);
    if (threads == 1) {
      mem_base = mem_qps;
      disk_base = disk_qps;
    }
    const double mem_speedup = mem_qps / mem_base;
    const double disk_speedup = disk_qps / disk_base;
    table.AddRow({std::to_string(threads), Table::Num(mem_qps, 1),
                  Table::Num(mem_speedup, 2), Table::Num(disk_qps, 1),
                  Table::Num(disk_speedup, 2)});
    if (threads == 8) {
      json->AddScalar("throughput_speedup_mem_8t", mem_speedup);
      json->AddScalar("throughput_speedup_disk_8t", disk_speedup);
    }
  }
  table.Print(stdout);
  std::printf(
      "\nExpectation: disk-sim speedup at 8 threads >= 3x (overlapped I/O "
      "waits; holds even on a single core). Mem-mode speedup tracks the "
      "machine's core count instead.\n");
  json->AddTable("batch_throughput", table);
}

void Main() {
  PrintFigureHeader("Parallel engine",
                    "plane-sweep leaf kernel ablation + batch query "
                    "throughput scaling");
  BenchJson json("parallel");
  PartAKernelAblation(&json);
  PartBThroughput(&json);
  json.Write();
}

}  // namespace
}  // namespace bench
}  // namespace kcpq

int main() { kcpq::bench::Main(); }
