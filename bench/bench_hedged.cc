// Hedged-read benchmark: tail latency of K-CPQ queries over a 2-replica
// mirror whose simulated disks have a heavy-tailed read latency
// (storage/latency_storage.h: ~100 us typical, a few percent of reads
// stall for 20 ms — the "one slow disk in the array" regime hedging
// exists for).
//
// Not a figure of the paper — this harness measures the replication layer
// beneath the reproduction (storage/mirrored_storage.h,
// docs/robustness.md). The same batch of queries runs twice over
// identical replicated stacks, varying only the hedge policy:
//
//   off       failover only; a slow primary read is paid in full
//   static    a backup read is issued after a fixed 300 us
//
// The replicas draw their slow-read lotteries from different seeds
// (storage/stack.h offsets each replica's latency seed), so when the
// primary stalls the mirror copy is almost surely fast — the hedge turns
// a 20 ms stall into ~delay + 100 us. The paper's metric is untouched:
// per-query disk accesses are identical in both modes, and the harness
// checks pairs and counts.
//
// Expectation: p99 per-query latency improves by >= 2x with static
// hedging; set HEDGED_MIN_P99_SPEEDUP (e.g. 2) to gate the exit status in
// CI. Results also land in BENCH_hedged.json.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "exec/batch.h"
#include "storage/stack.h"

namespace kcpq {
namespace bench {
namespace {

constexpr size_t kTreeSize = 20000;
constexpr size_t kQueries = 64;
constexpr size_t kWorkers = 4;
// Zero-capacity buffers (the paper's setting): every node read reaches the
// mirror, so per-query disk accesses are interleaving-independent and the
// hedging layer sees the full read stream.
constexpr size_t kBufferPages = 0;

LatencyProfile HeavyTail() {
  LatencyProfile latency;
  latency.read_latency = std::chrono::microseconds(100);
  latency.slow_probability = 0.02;
  latency.slow_latency = std::chrono::microseconds(20000);
  latency.seed = 41;
  return latency;
}

HedgePolicy PolicyFor(HedgeMode mode) {
  HedgePolicy hedge;
  hedge.mode = mode;
  hedge.static_delay = std::chrono::microseconds(300);
  return hedge;
}

// One 2-replica stack per tree, built through the mirror (identical
// replicas). Construction uses a big buffer so it runs at memory speed —
// only the measured queries pay the simulated latency.
std::unique_ptr<ReplicatedMemoryStack> BuildStack(
    PageId* meta, size_t n, uint64_t seed, HedgeMode mode) {
  ReplicaStackConfig config;
  config.replicas = 2;
  config.latency = HeavyTail();
  config.mirrored.hedge = PolicyFor(mode);
  auto stack = std::make_unique<ReplicatedMemoryStack>(config);
  BufferManager buffer(stack->top(), 8192);
  auto created = RStarTree::Create(&buffer);
  KCPQ_CHECK_OK(created.status());
  std::unique_ptr<RStarTree> tree = std::move(created).value();
  const std::vector<Point> points =
      GenerateUniform(n, UnitWorkspace(), seed);
  for (size_t i = 0; i < points.size(); ++i) {
    KCPQ_CHECK_OK(tree->Insert(points[i], i));
  }
  KCPQ_CHECK_OK(tree->Flush());
  *meta = tree->meta_page();
  return stack;
}

std::vector<BatchQuery> MakeBatch() {
  std::vector<BatchQuery> batch(kQueries);
  for (size_t i = 0; i < kQueries; ++i) {
    batch[i].options.algorithm = CpqAlgorithm::kHeap;
    batch[i].options.k = (i % 3 == 0) ? 1 : (i % 3 == 1) ? 10 : 100;
  }
  return batch;
}

struct ModeOutcome {
  std::vector<BatchQueryResult> results;
  double makespan = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
  uint64_t disk_accesses = 0;
  MirroredStats mirror;  // both trees' mirrors, summed
};

ModeOutcome RunMode(HedgeMode mode) {
  PageId meta_p = kInvalidPageId, meta_q = kInvalidPageId;
  auto stack_p = BuildStack(&meta_p, Scaled(kTreeSize), 51, mode);
  auto stack_q = BuildStack(&meta_q, Scaled(kTreeSize), 52, mode);

  BufferManager bp(stack_p->top(), kBufferPages, /*shards=*/64,
                   [] { return MakeLruPolicy(); });
  BufferManager bq(stack_q->top(), kBufferPages, /*shards=*/64,
                   [] { return MakeLruPolicy(); });
  auto tp = RStarTree::Open(&bp, meta_p);
  KCPQ_CHECK_OK(tp.status());
  auto tq = RStarTree::Open(&bq, meta_q);
  KCPQ_CHECK_OK(tq.status());

  BatchOptions options;
  options.threads = kWorkers;
  ModeOutcome out;
  Timer timer;
  out.results =
      BatchKClosestPairs(*tp.value(), *tq.value(), MakeBatch(), options);
  out.makespan = timer.ElapsedSeconds();

  std::vector<double> latencies;
  for (const BatchQueryResult& r : out.results) {
    KCPQ_CHECK_OK(r.status);
    out.disk_accesses += r.stats.disk_accesses();
    if (r.seconds >= 0.0) latencies.push_back(r.seconds);
  }
  std::sort(latencies.begin(), latencies.end());
  if (!latencies.empty()) {
    out.p50 = latencies[latencies.size() / 2];
    out.p99 = latencies[(latencies.size() * 99) / 100];
  }
  for (ReplicatedMemoryStack* s : {stack_p.get(), stack_q.get()}) {
    s->mirrored()->DrainHedges();
    const MirroredStats stats = s->mirrored()->mirrored_stats();
    out.mirror.hedges_issued += stats.hedges_issued;
    out.mirror.hedge_wins += stats.hedge_wins;
    out.mirror.hedge_wasted += stats.hedge_wasted;
  }
  return out;
}

bool SameWork(const ModeOutcome& a, const ModeOutcome& b) {
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
  PrintFigureHeader("Hedged",
                    "K-CPQ tail latency over a 2-replica mirror with "
                    "heavy-tailed disk latency: hedging off/static");
  const LatencyProfile latency = HeavyTail();
  std::printf(
      "uniform %zu x %zu, %zu queries (K in {1, 10, 100}), %zu workers, "
      "read latency %lld us with %.0f%% slow reads of %lld us\n",
      Scaled(kTreeSize), Scaled(kTreeSize), kQueries, kWorkers,
      static_cast<long long>(latency.read_latency.count()),
      latency.slow_probability * 100.0,
      static_cast<long long>(latency.slow_latency.count()));
  BenchJson json("hedged");

  const ModeOutcome off = RunMode(HedgeMode::kOff);
  const ModeOutcome fixed = RunMode(HedgeMode::kStatic);

  Table table({"hedging", "makespan s", "p50 ms", "p99 ms", "hedges",
               "wins", "wasted", "disk accesses"});
  const auto add = [&](const char* name, const ModeOutcome& o) {
    table.AddRow(
        {name, Table::Num(o.makespan, 3), Table::Num(o.p50 * 1e3, 1),
         Table::Num(o.p99 * 1e3, 1),
         Table::Count(static_cast<long long>(o.mirror.hedges_issued)),
         Table::Count(static_cast<long long>(o.mirror.hedge_wins)),
         Table::Count(static_cast<long long>(o.mirror.hedge_wasted)),
         Table::Count(static_cast<long long>(o.disk_accesses))});
  };
  add("off", off);
  add("static", fixed);
  table.Print(stdout);
  json.AddTable("modes", table);

  const bool identical = SameWork(off, fixed);
  const double speedup = off.p99 / fixed.p99;
  std::printf("\np99 speedup vs unhedged: static %.2fx\n", speedup);
  std::printf(
      "identical pairs and per-query disk accesses: %s (hedging must not "
      "perturb results or the paper metric)\n",
      identical ? "yes" : "NO — BUG");
  std::printf("Expectation: >= 2x p99 improvement with static hedging.\n");
  json.AddScalar("p99_off_ms", off.p99 * 1e3);
  json.AddScalar("p99_static_ms", fixed.p99 * 1e3);
  json.AddScalar("p50_off_ms", off.p50 * 1e3);
  json.AddScalar("p50_static_ms", fixed.p50 * 1e3);
  json.AddScalar("p99_speedup_static", speedup);
  json.AddScalar("identical_results", identical ? 1.0 : 0.0);
  json.Write();

  if (!identical) std::exit(1);
  if (const char* gate = std::getenv("HEDGED_MIN_P99_SPEEDUP")) {
    const double min_speedup = std::atof(gate);
    if (speedup < min_speedup) {
      std::fprintf(stderr,
                   "FAIL: p99 speedup %.2fx below HEDGED_MIN_P99_SPEEDUP=%s\n",
                   speedup, gate);
      std::exit(1);
    }
  }
}

}  // namespace
}  // namespace bench
}  // namespace kcpq

int main() {
  // Hedged reads run on the shared I/O pool; give it enough workers that
  // backup reads never queue behind primaries. Must be set before the
  // first read constructs the pool.
  setenv("KCPQ_IO_THREADS", "32", /*overwrite=*/0);
  kcpq::bench::Main();
}
