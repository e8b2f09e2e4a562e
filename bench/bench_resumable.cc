// Completion-driven scheduler benchmark: concurrent-query throughput and
// latency of the batch executor's two modes.
//
// Not a figure of the paper — this harness measures the executor layered
// on top of the reproduction (exec/scheduler.h, docs/io.md). The same
// batch of HEAP K-CPQ queries runs twice over a cold simulated disk whose
// physical page reads sleep 200 us (storage/latency_storage.h), both times
// on the same 4-worker scheduler:
//
//   blocking   each worker drives one query inline; every miss stalls
//              its worker for the full read latency, so at most 4 reads
//              are ever in flight.
//   resumable  the workers multiplex all queries as parking state
//              machines; a miss parks the query and the worker steps
//              another, so in-flight reads are bounded by the I/O pool
//              (KCPQ_IO_THREADS), not by the worker count.
//
// Latency is reported two ways. Service time runs from a query's start
// to its completion (BatchQueryResult::seconds); a blocking query waits
// unstarted until a worker frees up, and that wait is not in it. Latency
// from submission runs from the batch call (every query is submitted at
// once) to the query's completion, observed by polling a bench-owned
// QueryRegistry every millisecond.
//
// Buffers run at the paper's zero-capacity setting, which makes every
// per-query disk-access count interleaving-independent: the harness
// checks that both executors return bit-identical pairs and identical
// per-query disk accesses — the speedup comes purely from overlapping
// I/O waits, never from doing different work.
//
// Expectation: >= 3x throughput for the resumable executor (the
// acceptance bar; set RESUMABLE_MIN_SPEEDUP to gate the exit status, e.g.
// 2 for the CI smoke run at REPRO_SCALE=0.05).
//
// Results also land in BENCH_resumable.json for machine consumption.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "exec/batch.h"
#include "obs/query_registry.h"

namespace kcpq {
namespace bench {
namespace {

constexpr size_t kTreeSize = 20000;
constexpr size_t kShards = 64;
constexpr size_t kQueries = 96;
constexpr size_t kWorkers = 4;
constexpr std::chrono::microseconds kLatency(200);

// The paper's zero-buffer setting: every node read is a (simulated) disk
// access, so per-query counts cannot depend on how queries interleave.
constexpr size_t kBufferPages = 0;

struct BatchOutcome {
  std::vector<BatchQueryResult> results;
  double makespan = 0.0;
  double p50 = 0.0;  // service time
  double p99 = 0.0;
  double p50_submitted = 0.0;  // from submission
  double p99_submitted = 0.0;
  uint64_t disk_accesses = 0;
};

// Sorts `seconds` and returns its p50 and p99.
void Percentiles(std::vector<double> seconds, double* p50, double* p99) {
  if (seconds.empty()) return;
  std::sort(seconds.begin(), seconds.end());
  *p50 = seconds[seconds.size() / 2];
  *p99 = seconds[(seconds.size() * 99) / 100];
}

std::vector<BatchQuery> MakeBatch() {
  std::vector<BatchQuery> batch(kQueries);
  for (size_t i = 0; i < kQueries; ++i) {
    batch[i].kind = BatchQueryKind::kClosestPairs;
    batch[i].options.algorithm = CpqAlgorithm::kHeap;
    // Mixed result sizes so queries have different lifetimes — the
    // multiplexing case, not N copies of one query.
    batch[i].options.k = (i % 3 == 0) ? 1 : (i % 3 == 1) ? 10 : 100;
  }
  return batch;
}

BatchOutcome RunBatch(TreeStore& p, TreeStore& q, SchedulerMode mode) {
  TreeStore::View vp = p.OpenParallelView(kBufferPages, kShards, kLatency);
  TreeStore::View vq = q.OpenParallelView(kBufferPages, kShards, kLatency);
  const std::vector<BatchQuery> batch = MakeBatch();
  obs::QueryRegistry registry(kQueries);
  BatchOptions options;
  options.threads = kWorkers;
  options.scheduler = mode;
  options.max_inflight = kQueries;  // multiplex the whole batch
  options.query_registry = &registry;
  BatchStats stats;
  BatchOutcome out;
  const auto t0 = std::chrono::steady_clock::now();
  const auto since_t0 = [t0] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };
  // Stamps each newly retired query with its time since submission.
  std::vector<double> submitted;
  std::atomic<bool> stop{false};
  std::thread poller([&] {
    for (bool last = false; !last;) {
      last = stop.load(std::memory_order_acquire);
      const size_t done = registry.done_count();
      const double now = since_t0();
      while (submitted.size() < done) submitted.push_back(now);
      if (!last) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  out.results =
      BatchKClosestPairs(*vp.tree, *vq.tree, batch, options, &stats);
  out.makespan = since_t0();
  stop.store(true, std::memory_order_release);
  poller.join();
  if (submitted.size() != kQueries) {
    std::fprintf(stderr, "FAIL: the registry saw %zu of %zu completions\n",
                 submitted.size(), kQueries);
    std::exit(1);
  }
  std::vector<double> service;
  for (const BatchQueryResult& r : out.results) {
    KCPQ_CHECK_OK(r.status);
    out.disk_accesses += r.stats.disk_accesses();
    if (r.seconds >= 0.0) service.push_back(r.seconds);
  }
  Percentiles(std::move(service), &out.p50, &out.p99);
  Percentiles(std::move(submitted), &out.p50_submitted, &out.p99_submitted);
  return out;
}

// Bit-identical pairs and identical per-query disk accesses: the
// executors must do the same work in a different order, nothing else.
bool SameWork(const BatchOutcome& a, const BatchOutcome& b) {
  if (a.results.size() != b.results.size()) return false;
  for (size_t i = 0; i < a.results.size(); ++i) {
    const BatchQueryResult& ra = a.results[i];
    const BatchQueryResult& rb = b.results[i];
    if (ra.stats.disk_accesses() != rb.stats.disk_accesses()) return false;
    if (ra.pairs.size() != rb.pairs.size()) return false;
    for (size_t j = 0; j < ra.pairs.size(); ++j) {
      if (ra.pairs[j].distance != rb.pairs[j].distance) return false;
      if (ra.pairs[j].p_id != rb.pairs[j].p_id) return false;
      if (ra.pairs[j].q_id != rb.pairs[j].q_id) return false;
    }
  }
  return true;
}

void Main() {
  PrintFigureHeader("Resumable",
                    "concurrent K-CPQ throughput and latency: blocking vs "
                    "resumable (parking) batches on one scheduler");
  std::printf(
      "uniform %zu x %zu, %zu queries (K in {1, 10, 100}), %zu workers, "
      "read latency %lld us, zero-capacity buffers\n",
      Scaled(kTreeSize), Scaled(kTreeSize), kQueries, kWorkers,
      static_cast<long long>(kLatency.count()));
  BenchJson json("resumable");
  auto store_p = MakeStore(DataKind::kUniform, Scaled(kTreeSize), 1.0, 31);
  auto store_q = MakeStore(DataKind::kUniform, Scaled(kTreeSize), 1.0, 32);

  const BatchOutcome blocking =
      RunBatch(*store_p, *store_q, SchedulerMode::kBlocking);
  const BatchOutcome resumable =
      RunBatch(*store_p, *store_q, SchedulerMode::kResumable);

  const double speedup = blocking.makespan / resumable.makespan;
  Table table({"scheduler", "makespan s", "queries/s", "service p50 ms",
               "service p99 ms", "submitted p50 ms", "submitted p99 ms",
               "disk accesses"});
  const auto add = [&](const char* name, const BatchOutcome& o) {
    table.AddRow({name, Table::Num(o.makespan, 3),
                  Table::Num(static_cast<double>(kQueries) / o.makespan, 1),
                  Table::Num(o.p50 * 1e3, 1), Table::Num(o.p99 * 1e3, 1),
                  Table::Num(o.p50_submitted * 1e3, 1),
                  Table::Num(o.p99_submitted * 1e3, 1),
                  Table::Count(static_cast<long long>(o.disk_accesses))});
  };
  add("blocking", blocking);
  add("resumable", resumable);
  table.Print(stdout);
  json.AddTable("schedulers", table);

  const bool identical = SameWork(blocking, resumable);
  std::printf("\nthroughput speedup (resumable / blocking): %.2fx\n",
              speedup);
  std::printf(
      "identical pairs and per-query disk accesses: %s (multiplexing must "
      "not perturb results or the paper metric)\n",
      identical ? "yes" : "NO — BUG");
  std::printf("Expectation: >= 3x at full scale with 64+ in-flight.\n");
  json.AddScalar("speedup", speedup);
  json.AddScalar("throughput_blocking_qps",
                 static_cast<double>(kQueries) / blocking.makespan);
  json.AddScalar("throughput_resumable_qps",
                 static_cast<double>(kQueries) / resumable.makespan);
  json.AddScalar("p99_blocking_ms", blocking.p99 * 1e3);
  json.AddScalar("p99_resumable_ms", resumable.p99 * 1e3);
  json.AddScalar("p99_blocking_from_submission_ms",
                 blocking.p99_submitted * 1e3);
  json.AddScalar("p99_resumable_from_submission_ms",
                 resumable.p99_submitted * 1e3);
  json.AddScalar("identical_results", identical ? 1.0 : 0.0);
  json.Write();

  if (!identical) std::exit(1);
  if (const char* gate = std::getenv("RESUMABLE_MIN_SPEEDUP")) {
    const double min_speedup = std::atof(gate);
    if (speedup < min_speedup) {
      std::fprintf(stderr,
                   "FAIL: speedup %.2fx below RESUMABLE_MIN_SPEEDUP=%s\n",
                   speedup, gate);
      std::exit(1);
    }
  }
}

}  // namespace
}  // namespace bench
}  // namespace kcpq

int main() {
  // Enough I/O-pool workers to overlap the whole batch's parked reads;
  // must be set before the first async read constructs the shared pool.
  setenv("KCPQ_IO_THREADS", "64", /*overwrite=*/0);
  kcpq::bench::Main();
}
