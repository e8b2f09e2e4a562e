// Tests for the state machines behind every CPQ / HS / Semi-CPQ query
// (docs/io.md, "completion-driven scheduling"): the 50-seed golden
// differential (inline and multiplexed runs must reproduce the pinned
// pairs, certificates and disk-access counts, and the brute-force
// distances), the one-fold-per-query metrics contract,
// BufferManager::TryRead's park/serve/count semantics, the scheduler's
// wake protocol under mid-step wakes, the prefetch-staging accountant
// symmetry, per-page latency on the async storage path, and a chaos mix of
// transient faults, deadlines, and cancellation mid-park.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "buffer/buffer_manager.h"
#include "common/query_context.h"
#include "common/resumable.h"
#include "cpq/cpq.h"
#include "exec/batch.h"
#include "exec/scheduler.h"
#include "gtest/gtest.h"
#include "hs/hs.h"
#include "obs/kcpq_metrics.h"
#include "obs/metrics.h"
#include "storage/fault_injection_storage.h"
#include "storage/latency_storage.h"
#include "storage/memory_storage.h"
#include "tests/differential_mix.h"
#include "tests/test_util.h"

namespace kcpq {
namespace {

using testing::MakeClusteredItems;
using testing::MakeUniformItems;
using testing::TreeFixture;

constexpr CpqAlgorithm kAllAlgorithms[] = {
    CpqAlgorithm::kNaive, CpqAlgorithm::kExhaustive, CpqAlgorithm::kSimple,
    CpqAlgorithm::kSortedDistances, CpqAlgorithm::kHeap};

void ExpectSameDistances(const std::vector<PairResult>& got,
                         const std::vector<PairResult>& want,
                         const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_NEAR(got[i].distance, want[i].distance, 1e-9)
        << label << " rank " << i;
  }
}

/// Full per-query stats equality — the resumable engine must replicate the
/// blocking engine's work *and* I/O accounting exactly. Excluded as
/// legitimately scheduler-dependent: io_parks (parking is the scheduler's
/// mechanism) and, when speculation is on, the prefetch counters — the
/// prefetch area is shared across the batch and the resumable executor
/// drains it once per batch instead of once per query, so which query's
/// Issue is coalesced away or whose staged page gets claimed depends on
/// interleaving. Disk accesses do NOT inherit that freedom: a claim counts
/// as a miss exactly like a synchronous fetch.
void ExpectSameStats(const CpqStats& a, const CpqStats& b, bool speculation,
                     const std::string& label) {
  EXPECT_EQ(a.node_pairs_processed, b.node_pairs_processed) << label;
  EXPECT_EQ(a.candidate_pairs_generated, b.candidate_pairs_generated) << label;
  EXPECT_EQ(a.candidate_pairs_pruned, b.candidate_pairs_pruned) << label;
  EXPECT_EQ(a.point_distance_computations, b.point_distance_computations)
      << label;
  EXPECT_EQ(a.leaf_pairs_skipped, b.leaf_pairs_skipped) << label;
  EXPECT_EQ(a.max_heap_size, b.max_heap_size) << label;
  EXPECT_EQ(a.node_accesses, b.node_accesses) << label;
  EXPECT_EQ(a.disk_accesses_p, b.disk_accesses_p) << label;
  EXPECT_EQ(a.disk_accesses_q, b.disk_accesses_q) << label;
  if (!speculation) {
    EXPECT_EQ(a.prefetch_issued, 0u) << label;
    EXPECT_EQ(a.prefetch_hits, 0u) << label;
    EXPECT_EQ(b.prefetch_issued, 0u) << label;
    EXPECT_EQ(b.prefetch_hits, 0u) << label;
  }
  EXPECT_EQ(a.quality.stop_cause, b.quality.stop_cause) << label;
  EXPECT_EQ(a.quality.is_exact, b.quality.is_exact) << label;
  EXPECT_EQ(a.quality.pairs_found, b.quality.pairs_found) << label;
}

// 50 seeded workloads at buffer capacity 0 (the paper's zero-buffer
// setting, where per-query disk accesses are exactly the traversal's reads
// and independent of interleaving). The inline run (blocking scheduler:
// each worker drives one machine without parking) and the multiplexed run
// (resumable scheduler) must both reproduce the golden digest — pairs,
// distances, disk and node accesses, certificates — recorded from the
// former recursive/heap traversals, agree with each other on every work
// counter, and match the brute-force oracle's distances.
TEST(ResumableDifferential, FiftySeedsMatchBlockingExactly) {
  const bool update = std::getenv("KCPQ_UPDATE_GOLDEN") != nullptr;
  const std::vector<std::string> golden = testing::LoadDifferentialGolden();
  if (!update) {
    ASSERT_FALSE(golden.empty())
        << "missing golden file " << testing::DifferentialGoldenPath()
        << " (run with KCPQ_UPDATE_GOLDEN=1)";
  }
  std::vector<std::string> emitted;
  size_t row = 0;
  for (int seed = 0; seed < testing::kDifferentialSeeds; ++seed) {
    const testing::DifferentialData data = testing::MakeDifferentialData(seed);
    TreeFixture fp(0), fq(0);
    KCPQ_ASSERT_OK(fp.Build(data.p));
    KCPQ_ASSERT_OK(fq.Build(data.q));
    const std::vector<BatchQuery> queries =
        testing::MakeDifferentialMix(seed);

    const BatchOptions inline_options = testing::DifferentialBatchOptions(
        seed, SchedulerMode::kBlocking, queries.size());
    const std::vector<BatchQueryResult> inline_run =
        BatchKClosestPairs(fp.tree(), fq.tree(), queries, inline_options);
    const std::vector<BatchQueryResult> multiplexed =
        BatchKClosestPairs(fp.tree(), fq.tree(), queries,
                           testing::DifferentialBatchOptions(
                               seed, SchedulerMode::kResumable,
                               queries.size()));

    const std::string label = "seed " + std::to_string(seed);
    testing::ExpectMatchesBruteForce(data, queries, inline_run,
                                     label + " inline");
    testing::ExpectMatchesBruteForce(data, queries, multiplexed,
                                     label + " multiplexed");
    ASSERT_EQ(multiplexed.size(), inline_run.size());
    for (size_t i = 0; i < queries.size(); ++i, ++row) {
      const std::string q = label + " query " + std::to_string(i);
      ASSERT_TRUE(inline_run[i].status.ok())
          << q << inline_run[i].status.ToString();
      ASSERT_TRUE(multiplexed[i].status.ok())
          << q << multiplexed[i].status.ToString();
      ExpectSameStats(multiplexed[i].stats, inline_run[i].stats,
                      inline_options.prefetch_window > 0, q);
      const std::string line =
          testing::DifferentialDigestLine(seed, i, inline_run[i]);
      if (update) {
        emitted.push_back(line);
        continue;
      }
      ASSERT_LT(row, golden.size()) << q << ": golden file too short";
      testing::ExpectMatchesGolden(line, golden[row], q + " inline");
      testing::ExpectMatchesGolden(
          testing::DifferentialDigestLine(seed, i, multiplexed[i]),
          golden[row], q + " multiplexed");
    }
  }
  if (update) {
    std::ofstream out(testing::DifferentialGoldenPath());
    out << "# seed query outcome pairs=N ids=FNV-1a(p_id,q_id...) "
           "disk=P/Q nodes=N cert=stop/exact/found | kth=D sum=D\n";
    for (const std::string& line : emitted) out << line << "\n";
    GTEST_SKIP() << "golden updated: " << testing::DifferentialGoldenPath();
  }
  EXPECT_EQ(row, golden.size()) << "golden file has extra lines";
}

// With a buffer large enough that every page is fetched exactly once per
// batch, which query pays a given miss depends on interleaving — but the
// batch-aggregate disk-access count may not: one miss per distinct page,
// under either scheduler.
TEST(ResumableDifferential, WarmBufferAggregateDiskAccessesMatch) {
  TreeFixture fp(1024), fq(1024);
  KCPQ_ASSERT_OK(fp.Build(MakeUniformItems(600, 7)));
  KCPQ_ASSERT_OK(fq.Build(MakeClusteredItems(600, 8)));

  std::vector<BatchQuery> queries;
  for (int i = 0; i < 12; ++i) {
    BatchQuery q;
    q.options.algorithm = kAllAlgorithms[i % std::size(kAllAlgorithms)];
    q.options.k = 1 + static_cast<size_t>(i);
    queries.push_back(q);
  }

  // Cold-start both runs: construction left every page resident.
  KCPQ_ASSERT_OK(fp.buffer().FlushAndClear());
  KCPQ_ASSERT_OK(fq.buffer().FlushAndClear());

  BatchOptions blocking;
  blocking.threads = 4;
  BatchStats want_stats;
  const std::vector<BatchQueryResult> want = BatchKClosestPairs(
      fp.tree(), fq.tree(), queries, blocking, &want_stats);

  KCPQ_ASSERT_OK(fp.buffer().FlushAndClear());
  KCPQ_ASSERT_OK(fq.buffer().FlushAndClear());

  BatchOptions resumable;
  resumable.threads = 4;
  resumable.scheduler = SchedulerMode::kResumable;
  resumable.max_inflight = queries.size();
  BatchStats got_stats;
  const std::vector<BatchQueryResult> got = BatchKClosestPairs(
      fp.tree(), fq.tree(), queries, resumable, &got_stats);

  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    const std::string label = "query " + std::to_string(i);
    ASSERT_TRUE(got[i].status.ok()) << label;
    ExpectSameDistances(got[i].pairs, want[i].pairs, label);
    EXPECT_EQ(got[i].stats.node_accesses, want[i].stats.node_accesses)
        << label;
  }
  EXPECT_EQ(got_stats.disk_accesses, want_stats.disk_accesses);
}

// ---------------------------------------------------------------------------
// Metric folds: every finished query folds its engine counters exactly
// once, whichever scheduler drove it.

TEST(ResumableMetrics, OneQueryBatchFoldsEngineMetricsOnce) {
  if (!obs::MetricsCompiledIn()) GTEST_SKIP() << "metrics compiled out";
  TreeFixture fp(0), fq(0);
  KCPQ_ASSERT_OK(fp.Build(MakeUniformItems(200, 31)));
  KCPQ_ASSERT_OK(fq.Build(MakeUniformItems(200, 32)));
  const obs::KcpqMetrics& m = obs::KcpqMetrics::Get();

  struct Case {
    BatchQueryKind kind;
    uint64_t cpq_queries;      // kcpq_cpq_queries_total
    uint64_t hs_queries;       // kcpq_hs_queries_total
    uint64_t closest_seconds;  // kcpq_query_seconds_closest_count
  };
  // Semi-joins time no per-family latency: the batch executor's
  // per-scheduler histograms carry it.
  const Case cases[] = {
      {BatchQueryKind::kClosestPairs, 1, 0, 1},
      {BatchQueryKind::kSelfClosestPairs, 1, 0, 1},
      {BatchQueryKind::kSemiClosestPairs, 1, 0, 0},
      {BatchQueryKind::kHsClosestPairs, 0, 1, 1},
  };
  for (const Case& c : cases) {
    for (const SchedulerMode mode :
         {SchedulerMode::kBlocking, SchedulerMode::kResumable}) {
      BatchQuery query;
      query.kind = c.kind;
      query.options.k = 5;
      BatchOptions options;
      options.threads = 1;
      options.scheduler = mode;
      const uint64_t cpq_before = m.cpq_queries_total->value();
      const uint64_t hs_before = m.hs_queries_total->value();
      const uint64_t seconds_before = m.query_seconds_closest->count();
      const std::vector<BatchQueryResult> r =
          BatchKClosestPairs(fp.tree(), fq.tree(), {query}, options);
      ASSERT_TRUE(r[0].status.ok()) << r[0].status.ToString();
      const std::string label =
          std::string(mode == SchedulerMode::kResumable ? "resumable "
                                                        : "blocking ") +
          "kind " + std::to_string(static_cast<int>(c.kind));
      EXPECT_EQ(m.cpq_queries_total->value() - cpq_before, c.cpq_queries)
          << label;
      EXPECT_EQ(m.hs_queries_total->value() - hs_before, c.hs_queries)
          << label;
      EXPECT_EQ(m.query_seconds_closest->count() - seconds_before,
                c.closest_seconds)
          << label;
    }
  }
}

// ---------------------------------------------------------------------------
// BufferManager::TryRead unit semantics.

TEST(TryReadTest, ParkServeMissThenHit) {
  MemoryStorageManager storage(kDefaultPageSize);
  BufferManager buffer(&storage, 4);
  auto id = buffer.Allocate();
  KCPQ_ASSERT_OK(id.status());
  Page page(kDefaultPageSize);
  page.data()[0] = 0x5a;
  KCPQ_ASSERT_OK(buffer.Write(id.value(), page));
  KCPQ_ASSERT_OK(buffer.FlushAndClear());
  buffer.ResetStats();

  // Cold: the first TryRead parks (demand fetch; the sync backend
  // completes it — and fires the waker — before TryRead even returns).
  InlineWakerGate gate;
  Page out(kDefaultPageSize);
  BufferManager::TryReadOutcome outcome;
  KCPQ_ASSERT_OK(
      buffer.TryRead(id.value(), &out, nullptr, gate.waker(), &outcome));
  ASSERT_TRUE(outcome.parked);
  EXPECT_EQ(buffer.stats().misses, 0u);  // nothing counted while parked
  gate.Wait();

  // Woken: the re-run claims the staged demand page — one miss, exactly
  // like a blocking cold read.
  KCPQ_ASSERT_OK(
      buffer.TryRead(id.value(), &out, nullptr, gate.waker(), &outcome));
  ASSERT_FALSE(outcome.parked);
  EXPECT_FALSE(outcome.hit);
  EXPECT_FALSE(outcome.prefetch_claim);
  EXPECT_EQ(out.data()[0], 0x5a);
  EXPECT_EQ(buffer.stats().misses, 1u);

  // Resident now: a plain hit.
  KCPQ_ASSERT_OK(
      buffer.TryRead(id.value(), &out, nullptr, gate.waker(), &outcome));
  ASSERT_FALSE(outcome.parked);
  EXPECT_TRUE(outcome.hit);
  EXPECT_EQ(buffer.stats().hits, 1u);
  EXPECT_EQ(buffer.stats().misses, 1u);
}

TEST(TryReadTest, CapacityZeroCountsOneMissPerServe) {
  MemoryStorageManager storage(kDefaultPageSize);
  BufferManager buffer(&storage, 0);
  auto id = buffer.Allocate();
  KCPQ_ASSERT_OK(id.status());
  Page page(kDefaultPageSize);
  KCPQ_ASSERT_OK(buffer.Write(id.value(), page));
  buffer.ResetStats();

  InlineWakerGate gate;
  Page out(kDefaultPageSize);
  for (int round = 0; round < 2; ++round) {
    BufferManager::TryReadOutcome outcome;
    KCPQ_ASSERT_OK(
        buffer.TryRead(id.value(), &out, nullptr, gate.waker(), &outcome));
    ASSERT_TRUE(outcome.parked) << "round " << round;
    gate.Wait();
    KCPQ_ASSERT_OK(
        buffer.TryRead(id.value(), &out, nullptr, gate.waker(), &outcome));
    ASSERT_FALSE(outcome.parked) << "round " << round;
    EXPECT_FALSE(outcome.hit) << "round " << round;
  }
  // The pass-through buffer charges one miss per serve, like blocking Read.
  EXPECT_EQ(buffer.stats().misses, 2u);
  EXPECT_EQ(buffer.stats().hits, 0u);
}

// ---------------------------------------------------------------------------
// Prefetch-staging accountant symmetry (PR satellite): a staged page
// claimed by a different query than its issuer credits the issuer back.

TEST(AccountantTest, ForeignClaimReleasesIssuerCharge) {
  MemoryStorageManager storage(kDefaultPageSize);
  BufferManager buffer(&storage, 4);
  auto id = buffer.Allocate();
  KCPQ_ASSERT_OK(id.status());
  Page page(kDefaultPageSize);
  KCPQ_ASSERT_OK(buffer.Write(id.value(), page));
  KCPQ_ASSERT_OK(buffer.FlushAndClear());

  QueryContext issuer, claimer;
  const PageId pid = id.value();
  ASSERT_EQ(buffer.Prefetch(&pid, 1, &issuer), 1u);
  EXPECT_EQ(issuer.accountant().buffer_bytes(), kDefaultPageSize);

  // The sync backend stages the page before Prefetch returns; a different
  // query claims it via a demand read.
  Page out(kDefaultPageSize);
  KCPQ_ASSERT_OK(buffer.Read(pid, &out, &claimer));
  EXPECT_EQ(claimer.accountant().buffer_bytes(), kDefaultPageSize);
  EXPECT_EQ(issuer.accountant().buffer_bytes(), 0u)
      << "issuer must be credited back for a page another query consumed";
  buffer.DrainPrefetches();
}

TEST(AccountantTest, OwnClaimKeepsIssuerCharge) {
  MemoryStorageManager storage(kDefaultPageSize);
  BufferManager buffer(&storage, 4);
  auto id = buffer.Allocate();
  KCPQ_ASSERT_OK(id.status());
  Page page(kDefaultPageSize);
  KCPQ_ASSERT_OK(buffer.Write(id.value(), page));
  KCPQ_ASSERT_OK(buffer.FlushAndClear());

  QueryContext issuer;
  const PageId pid = id.value();
  ASSERT_EQ(buffer.Prefetch(&pid, 1, &issuer), 1u);
  Page out(kDefaultPageSize);
  KCPQ_ASSERT_OK(buffer.Read(pid, &out, &issuer));
  EXPECT_EQ(issuer.accountant().buffer_bytes(), kDefaultPageSize)
      << "claiming one's own speculation is not a credit";
  buffer.DrainPrefetches();
}

// ---------------------------------------------------------------------------
// Scheduler wake protocol.

/// Parks `parks` times, firing its own waker mid-step *before* returning
/// kParked — the hardest wake ordering (the kWoken-while-kRunning race the
/// protocol's failed park-CAS handles; the sync I/O backend produces
/// exactly this shape in production).
class SelfWakingTask final : public ResumableTask {
 public:
  SelfWakingTask(int parks, Waker waker, std::atomic<int>* total_steps)
      : parks_left_(parks), waker_(std::move(waker)), steps_(total_steps) {}
  StepResult Step() override {
    steps_->fetch_add(1, std::memory_order_relaxed);
    if (parks_left_-- > 0) {
      waker_();
      return StepResult::kParked;
    }
    return StepResult::kDone;
  }

 private:
  int parks_left_;
  Waker waker_;
  std::atomic<int>* steps_;
};

TEST(SchedulerTest, MidStepWakesNeverLoseTasks) {
  constexpr size_t kTasks = 100;
  std::atomic<int> steps{0};
  std::atomic<size_t> done{0};
  ResumableScheduler::Options options;
  options.workers = 4;
  options.max_inflight = 16;
  const ResumableScheduler::Stats stats = ResumableScheduler::Run(
      kTasks,
      [&](size_t index, Waker waker) {
        return std::make_unique<SelfWakingTask>(
            static_cast<int>(index % 7), std::move(waker), &steps);
      },
      [&](size_t, ResumableTask*) {
        done.fetch_add(1, std::memory_order_relaxed);
      },
      options);
  EXPECT_EQ(done.load(), kTasks);
  EXPECT_GE(stats.steps, kTasks);
  EXPECT_LE(stats.peak_inflight, 16u);
  EXPECT_GE(stats.parks, stats.wakes > 0 ? 1u : 0u);
}

TEST(SchedulerTest, NullFactoryResultSkipsDoneCallback) {
  std::atomic<size_t> done{0};
  std::atomic<int> steps{0};
  ResumableScheduler::Options options;
  options.workers = 2;
  options.max_inflight = 4;
  ResumableScheduler::Run(
      9,
      [&](size_t index, Waker waker) -> std::unique_ptr<ResumableTask> {
        if (index % 3 == 0) return nullptr;  // "admission rejection"
        return std::make_unique<SelfWakingTask>(1, std::move(waker), &steps);
      },
      [&](size_t, ResumableTask*) {
        done.fetch_add(1, std::memory_order_relaxed);
      },
      options);
  EXPECT_EQ(done.load(), 6u);  // the 3 rejected slots never reach on_done
}

/// Parks once (waking itself) and then finishes; counts live instances.
/// Holds its waker for its whole life, as the engine state machines do.
class CountedTask final : public ResumableTask {
 public:
  CountedTask(Waker waker, std::atomic<int>* live)
      : waker_(std::move(waker)), live_(live) {
    live_->fetch_add(1, std::memory_order_relaxed);
  }
  ~CountedTask() override { live_->fetch_sub(1, std::memory_order_relaxed); }

  StepResult Step() override {
    if (parked_) return StepResult::kDone;
    parked_ = true;
    waker_();
    return StepResult::kParked;
  }

 private:
  Waker waker_;
  std::atomic<int>* live_;
  bool parked_ = false;
};

// A task's waker refers back to the scheduler, so a scheduler that kept
// finished tasks until the end would keep them (and their engine state)
// alive forever. Every task is gone by the time Run returns.
TEST(SchedulerTest, TasksAreDestroyedBeforeRunReturns) {
  std::atomic<int> live{0};
  std::atomic<size_t> done{0};
  ResumableScheduler::Options options;
  options.workers = 4;
  options.max_inflight = 8;
  ResumableScheduler::Run(
      64,
      [&](size_t, Waker waker) {
        return std::make_unique<CountedTask>(std::move(waker), &live);
      },
      [&](size_t, ResumableTask* task) {
        EXPECT_NE(task, nullptr);  // still alive while its result is taken
        done.fetch_add(1, std::memory_order_relaxed);
      },
      options);
  EXPECT_EQ(done.load(), 64u);
  EXPECT_EQ(live.load(), 0);
}

// ---------------------------------------------------------------------------
// Per-page latency on the async path (PR satellite): the latency decorator
// must charge its simulated latency to asynchronously-read pages too, not
// just to blocking ReadPage calls.

TEST(LatencyAsyncTest, AsyncReadsPayPerPageLatency) {
  MemoryStorageManager mem(kDefaultPageSize);
  LatencyStorageManager latency(&mem, std::chrono::microseconds(2000));
  std::vector<PageId> ids;
  for (int i = 0; i < 4; ++i) {
    auto id = latency.Allocate();
    KCPQ_ASSERT_OK(id.status());
    Page page(kDefaultPageSize);
    page.data()[0] = static_cast<char>(i);
    KCPQ_ASSERT_OK(latency.WritePage(id.value(), page));
    ids.push_back(id.value());
  }
  latency.stats();  // touch; counts checked below via deltas
  const uint64_t reads_before = latency.stats().reads;

  std::mutex mu;
  std::condition_variable cv;
  size_t completed = 0;
  bool all_ok = true;
  const auto start = std::chrono::steady_clock::now();
  latency.ReadPagesAsync(ids.data(), ids.size(), [&](AsyncPageRead done) {
    std::lock_guard<std::mutex> lock(mu);
    all_ok = all_ok && done.status.ok();
    ++completed;
    cv.notify_one();
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return completed == ids.size(); });
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_TRUE(all_ok);
  EXPECT_EQ(latency.stats().reads - reads_before, ids.size());
  // Every page pays the full simulated latency (they may overlap, so only
  // the single-page lower bound is asserted — generous margin for CI).
  EXPECT_GE(std::chrono::duration_cast<std::chrono::microseconds>(elapsed),
            std::chrono::microseconds(1500));
}

// ---------------------------------------------------------------------------
// Chaos: transient faults + deadlines + cancellation firing while queries
// are parked. The batch must terminate, classify every outcome, and keep
// certificates sound; nothing may hang or crash.

TEST(ResumableChaosTest, FaultsDeadlinesCancellationMidPark) {
  MemoryStorageManager mem(kDefaultPageSize);
  LatencyStorageManager latency(&mem, std::chrono::microseconds(30));
  FaultInjectionStorageManager faults(&latency);
  BufferManager buffer(&faults, 8);
  auto created = RStarTree::Create(&buffer);
  KCPQ_ASSERT_OK(created.status());
  std::unique_ptr<RStarTree> tree = std::move(created).value();
  for (const auto& [p, pid] : MakeUniformItems(400, 99)) {
    KCPQ_ASSERT_OK(tree->Insert(p, pid));
  }
  KCPQ_ASSERT_OK(tree->Flush());

  for (int round = 0; round < 3; ++round) {
    faults.FailWithProbability(0.03, 77 + round, /*transient=*/true);

    std::vector<BatchQuery> queries;
    for (int i = 0; i < 24; ++i) {
      BatchQuery q;
      q.kind = BatchQueryKind::kSelfClosestPairs;
      q.options.algorithm = kAllAlgorithms[i % std::size(kAllAlgorithms)];
      q.options.k = 8;
      if (i % 4 == 1) {
        // A deadline that trips mid-traversal (some parks take longer).
        q.options.control.deadline =
            QueryControl::Clock::now() + std::chrono::microseconds(200);
      }
      queries.push_back(q);
    }

    CancellationSource source;
    BatchOptions options;
    options.threads = 4;
    options.scheduler = SchedulerMode::kResumable;
    options.max_inflight = queries.size();
    options.control.cancel = source.token();
    std::thread canceller([&source] {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      source.Cancel();
    });
    const std::vector<BatchQueryResult> results =
        BatchKClosestPairs(*tree, *tree, queries, options);
    canceller.join();
    faults.Heal();

    ASSERT_EQ(results.size(), queries.size());
    for (size_t i = 0; i < results.size(); ++i) {
      const std::string label =
          "round " + std::to_string(round) + " query " + std::to_string(i);
      const BatchQueryResult& r = results[i];
      switch (r.outcome) {
        case QueryOutcome::kOk:
          EXPECT_TRUE(r.status.ok()) << label;
          EXPECT_LE(r.pairs.size(), queries[i].options.k) << label;
          EXPECT_FALSE(r.stats.quality.is_partial()) << label;
          break;
        case QueryOutcome::kPartial:
        case QueryOutcome::kCancelled:
          EXPECT_TRUE(r.status.ok()) << label;
          EXPECT_TRUE(r.stats.quality.is_partial()) << label;
          // Sound certificate: the emitted prefix is sorted and any bound
          // must not exceed the first emitted distance gap (spot check:
          // pairs are ascending).
          for (size_t j = 1; j < r.pairs.size(); ++j) {
            EXPECT_LE(r.pairs[j - 1].distance, r.pairs[j].distance) << label;
          }
          break;
        case QueryOutcome::kFailed:
          EXPECT_FALSE(r.status.ok()) << label;
          EXPECT_TRUE(r.pairs.empty()) << label;
          break;
        case QueryOutcome::kRejected:
          ADD_FAILURE() << label << ": no admission control configured";
          break;
      }
    }
  }
}

}  // namespace
}  // namespace kcpq
