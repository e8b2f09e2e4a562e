// Replicated storage tests: the differential metric-identity proof for
// MirroredStorageManager plus unit coverage for the circuit breaker, the
// scrubber, hedge accounting, and the canonical decorator ordering
// (storage/stack.h).
//
// The centerpiece is the 50-seed differential: every CPQ algorithm, K in
// {1, 10}, blocking and resumable execution, run over a 3-replica stack
// with sticky corruption on replica 0, a full outage of replica 1, and
// hedging enabled — results AND disk-access counts must be bit-identical
// to a clean single-replica run over the same bytes, because the mirror
// lives entirely below the buffer manager (the paper's metric boundary).

#include "storage/mirrored_storage.h"

#include <algorithm>
#include <chrono>
#include <set>
#include <thread>
#include <vector>

#include "buffer/buffer_manager.h"
#include "cpq/cpq.h"
#include "exec/batch.h"
#include "gtest/gtest.h"
#include "rtree/rtree.h"
#include "storage/scrub.h"
#include "storage/stack.h"
#include "tests/test_util.h"

namespace kcpq {
namespace {

using ::kcpq::testing::MakeUniformItems;

constexpr size_t kBufferPages = 12;

// Builds an R*-tree through `top` (for a mirrored stack this writes every
// replica identically); returns its meta page.
PageId BuildTree(StorageManager* top,
                 const std::vector<std::pair<Point, uint64_t>>& items) {
  BufferManager buffer(top, 0);
  auto created = RStarTree::Create(&buffer);
  KCPQ_CHECK_OK(created.status());
  std::unique_ptr<RStarTree> tree = std::move(created).value();
  for (const auto& [p, id] : items) KCPQ_CHECK_OK(tree->Insert(p, id));
  KCPQ_CHECK_OK(tree->Flush());
  return tree->meta_page();
}

struct RunResult {
  std::vector<PairResult> pairs;
  uint64_t disk_accesses = 0;
};

// One blocking query over fresh buffers (fresh replacement history, so
// disk-access counts are comparable run to run).
RunResult RunQuery(StorageManager* top_p, PageId meta_p,
                   StorageManager* top_q, PageId meta_q, CpqAlgorithm algo,
                   uint64_t k) {
  BufferManager bp(top_p, kBufferPages), bq(top_q, kBufferPages);
  auto tp = RStarTree::Open(&bp, meta_p);
  KCPQ_CHECK_OK(tp.status());
  auto tq = RStarTree::Open(&bq, meta_q);
  KCPQ_CHECK_OK(tq.status());
  CpqOptions options;
  options.algorithm = algo;
  options.k = k;
  CpqStats stats;
  auto pairs = KClosestPairs(*tp.value(), *tq.value(), options, &stats);
  KCPQ_CHECK_OK(pairs.status());
  return {std::move(pairs).value(), stats.disk_accesses()};
}

void ExpectSamePairs(const std::vector<PairResult>& a,
                     const std::vector<PairResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].p_id, b[i].p_id) << "rank " << i;
    EXPECT_EQ(a[i].q_id, b[i].q_id) << "rank " << i;
    EXPECT_DOUBLE_EQ(a[i].distance, b[i].distance) << "rank " << i;
  }
}

// Two trees built through one 3-replica stack each, with the chaos knobs
// exposed. Replica 2 is left clean so a good copy of every page exists.
struct MirroredPair {
  explicit MirroredPair(uint64_t seed, HedgePolicy hedge = {}) {
    ReplicaStackConfig config;
    config.replicas = 3;
    config.mirrored.hedge = hedge;
    stack_p = std::make_unique<ReplicatedMemoryStack>(config);
    stack_q = std::make_unique<ReplicatedMemoryStack>(config);
    meta_p = BuildTree(stack_p->top(), MakeUniformItems(200, seed));
    meta_q = BuildTree(stack_q->top(), MakeUniformItems(200, seed ^ 0x9e1));
  }

  void InjectChaos(uint64_t seed) {
    for (ReplicatedMemoryStack* s : {stack_p.get(), stack_q.get()}) {
      // Sticky corruption on replica 0 (the primary — every corrupt page
      // read fails over and read-repairs) ...
      s->fault(0)->CorruptPagesFromSeed(seed, 6);
      // ... and a full permanent outage of replica 1.
      s->fault(1)->FailAfter(0);
    }
  }

  std::unique_ptr<ReplicatedMemoryStack> stack_p, stack_q;
  PageId meta_p = 0, meta_q = 0;
};

TEST(MirroredDifferential, FiftySeedsAllAlgorithmsMatchCleanBaseline) {
  const CpqAlgorithm kAlgorithms[] = {
      CpqAlgorithm::kNaive, CpqAlgorithm::kExhaustive, CpqAlgorithm::kSimple,
      CpqAlgorithm::kSortedDistances, CpqAlgorithm::kHeap};
  for (uint64_t seed = 0; seed < 50; ++seed) {
    // Hedging on throughout; even seeds hedge instantly (maximum
    // speculative churn), odd seeds after a realistic delay.
    HedgePolicy hedge;
    hedge.mode = HedgeMode::kStatic;
    hedge.static_delay =
        std::chrono::microseconds(seed % 2 == 0 ? 0 : 200);
    MirroredPair m(seed, hedge);
    m.InjectChaos(seed);

    for (CpqAlgorithm algo : kAlgorithms) {
      for (uint64_t k : {uint64_t{1}, uint64_t{10}}) {
        // Baseline: the clean replica's own stack top, fresh buffers —
        // identical bytes, identical page ids, no mirror in the path.
        RunResult base =
            RunQuery(m.stack_p->replica_top(2), m.meta_p,
                     m.stack_q->replica_top(2), m.meta_q, algo, k);
        RunResult mirrored = RunQuery(m.stack_p->top(), m.meta_p,
                                      m.stack_q->top(), m.meta_q, algo, k);
        SCOPED_TRACE("seed=" + std::to_string(seed) +
                     " algo=" + std::to_string(static_cast<int>(algo)) +
                     " k=" + std::to_string(k));
        ExpectSamePairs(base.pairs, mirrored.pairs);
        // The paper's cost metric is blind to replication: one logical
        // read per buffer miss, no matter how many replicas served it.
        EXPECT_EQ(base.disk_accesses, mirrored.disk_accesses);
      }
    }

    for (ReplicatedMemoryStack* s : {m.stack_p.get(), m.stack_q.get()}) {
      s->mirrored()->DrainHedges();
      const MirroredStats stats = s->mirrored()->mirrored_stats();
      EXPECT_EQ(stats.hedges_issued, stats.hedge_wins + stats.hedge_wasted);
      EXPECT_EQ(stats.all_replicas_failed, 0u);
    }
  }
}

TEST(MirroredDifferential, ResumableSchedulerMatchesBlockingUnderChaos) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    HedgePolicy hedge;
    hedge.mode = HedgeMode::kStatic;
    hedge.static_delay = std::chrono::microseconds(0);
    MirroredPair m(seed, hedge);
    m.InjectChaos(seed);

    std::vector<BatchQuery> queries(4);
    for (size_t i = 0; i < queries.size(); ++i) {
      queries[i].options.k = i % 2 == 0 ? 1 : 10;
    }

    // Fresh pass-through buffers per mode (capacity 0, the paper's
    // zero-buffer setting): every read is a miss, so per-query disk-access
    // counts are independent of worker interleaving and must agree.
    auto run = [&](const BatchOptions& options) {
      BufferManager bp(m.stack_p->top(), 0, /*shards=*/16,
                       [] { return MakeLruPolicy(); });
      BufferManager bq(m.stack_q->top(), 0, /*shards=*/16,
                       [] { return MakeLruPolicy(); });
      auto tp = RStarTree::Open(&bp, m.meta_p);
      KCPQ_CHECK_OK(tp.status());
      auto tq = RStarTree::Open(&bq, m.meta_q);
      KCPQ_CHECK_OK(tq.status());
      return BatchKClosestPairs(*tp.value(), *tq.value(), queries, options);
    };

    BatchOptions blocking;
    blocking.threads = 2;
    const std::vector<BatchQueryResult> blocking_results = run(blocking);

    BatchOptions resumable;
    resumable.threads = 2;
    resumable.scheduler = SchedulerMode::kResumable;
    resumable.max_inflight = 4;
    const std::vector<BatchQueryResult> resumable_results = run(resumable);

    ASSERT_EQ(blocking_results.size(), resumable_results.size());
    for (size_t i = 0; i < blocking_results.size(); ++i) {
      SCOPED_TRACE("seed=" + std::to_string(seed) + " query=" +
                   std::to_string(i));
      const BatchQueryResult& b = blocking_results[i];
      const BatchQueryResult& r = resumable_results[i];
      KCPQ_ASSERT_OK(b.status);
      KCPQ_ASSERT_OK(r.status);
      ExpectSamePairs(b.pairs, r.pairs);
      EXPECT_EQ(b.stats.disk_accesses(), r.stats.disk_accesses());
      // Charge symmetry: hedged/failover reads live below the buffer, so
      // the unified memory meter must not see them (a leaked hedge charge
      // would skew one mode's peak).
      EXPECT_EQ(b.peak_memory_bytes, r.peak_memory_bytes);
    }

    for (ReplicatedMemoryStack* s : {m.stack_p.get(), m.stack_q.get()}) {
      s->mirrored()->DrainHedges();
      const MirroredStats stats = s->mirrored()->mirrored_stats();
      EXPECT_EQ(stats.hedges_issued, stats.hedge_wins + stats.hedge_wasted);
    }
  }
}

// A direct query, with no batch around it, carries its replication
// outcomes in its own stats record: the machine's epilogue copies them
// from the context, so they are exactly what the context saw.
TEST(MirroredFailover, DirectQueryRecordCarriesReplication) {
  MirroredPair m(/*seed=*/7);
  BufferManager bp(m.stack_p->top(), 0);
  BufferManager bq(m.stack_q->top(), 0);
  auto tp = RStarTree::Open(&bp, m.meta_p);
  KCPQ_ASSERT_OK(tp.status());
  auto tq = RStarTree::Open(&bq, m.meta_q);
  KCPQ_ASSERT_OK(tq.status());
  // Every query starts at the root, so a corrupt primary root is read.
  m.stack_p->fault(0)->CorruptPage(tp.value()->root_page());

  QueryContext ctx;
  CpqOptions options;
  options.k = 5;
  options.context = &ctx;
  CpqStats stats;
  auto pairs = KClosestPairs(*tp.value(), *tq.value(), options, &stats);
  KCPQ_ASSERT_OK(pairs.status());
  const ReplicationStats& want = ctx.replication();
  EXPECT_GE(want.failover_reads + want.read_repairs, 1u);
  EXPECT_EQ(stats.replication.failover_reads, want.failover_reads);
  EXPECT_EQ(stats.replication.read_repairs, want.read_repairs);
  EXPECT_EQ(stats.replication.hedged_reads, want.hedged_reads);
  EXPECT_EQ(stats.replication.hedge_wins, want.hedge_wins);
}

TEST(MirroredFailover, CorruptPrimaryIsServedRepairedAndNeverRetried) {
  ReplicaStackConfig config;
  config.replicas = 2;
  config.io_retries = 3;  // retrying ABOVE the mirror (canonical order)
  ReplicatedMemoryStack stack(config);

  const PageId id = stack.mirrored()->Allocate().value();
  Page page(stack.mirrored()->page_size());
  for (size_t i = 0; i < page.size(); ++i) {
    page.data()[i] = static_cast<uint8_t>(i * 7 + 1);
  }
  KCPQ_ASSERT_OK(stack.mirrored()->WritePage(id, page));

  stack.fault(0)->CorruptPage(id);
  Page got;
  KCPQ_ASSERT_OK(stack.top()->ReadPage(id, &got));
  EXPECT_EQ(0, std::memcmp(got.data(), page.data(), page.size()));

  const MirroredStats stats = stack.mirrored()->mirrored_stats();
  EXPECT_EQ(stats.corrupt_reads, 1u);
  EXPECT_EQ(stats.failovers, 1u);
  EXPECT_EQ(stats.repairs, 1u);
  // The corruption was served exactly once: the mirror failed over to
  // replica 1 instead of letting the retry layer re-read the corrupt
  // copy (Corruption is not transient, and the retrying decorator sits
  // above the mirror, which returned OK).
  EXPECT_EQ(stack.fault(0)->corruptions_served(), 1u);
  // Read-repair rewrote the page, which heals sticky corruption.
  EXPECT_EQ(stack.fault(0)->corrupt_page_count(), 0u);

  Page again;
  KCPQ_ASSERT_OK(stack.replica_top(0)->ReadPage(id, &again));
  EXPECT_EQ(0, std::memcmp(again.data(), page.data(), page.size()));
}

TEST(MirroredFailover, TransientBurstFailsOverWithoutRetryBudget) {
  ReplicaStackConfig config;
  config.replicas = 2;
  ReplicatedMemoryStack stack(config);
  const PageId id = stack.mirrored()->Allocate().value();
  Page page(stack.mirrored()->page_size());
  KCPQ_ASSERT_OK(stack.mirrored()->WritePage(id, page));

  stack.fault(0)->FailNextN(5);
  Page got;
  KCPQ_ASSERT_OK(stack.top()->ReadPage(id, &got));
  const MirroredStats stats = stack.mirrored()->mirrored_stats();
  EXPECT_EQ(stats.failovers, 1u);
  // The mirror moved on after ONE attempt; it never retries a replica.
  EXPECT_EQ(stack.fault(0)->faults_injected(), 1u);
}

TEST(MirroredFailover, AllReplicasTransientSurfacesTransientForRetryLayer) {
  ReplicaStackConfig config;
  config.replicas = 2;
  config.io_retries = 3;
  config.retry.initial_backoff = std::chrono::microseconds(1);
  ReplicatedMemoryStack stack(config);
  const PageId id = stack.mirrored()->Allocate().value();
  Page page(stack.mirrored()->page_size());
  KCPQ_ASSERT_OK(stack.mirrored()->WritePage(id, page));

  // Both replicas fail transiently twice; the whole logical read comes
  // back kIoTransient and the retry layer above recovers it.
  stack.fault(0)->FailNextN(2);
  stack.fault(1)->FailNextN(2);
  Page got;
  KCPQ_ASSERT_OK(stack.top()->ReadPage(id, &got));
  EXPECT_GE(stack.mirrored()->mirrored_stats().all_replicas_failed, 1u);
}

TEST(MirroredFailover, AllReplicasPermanentFailsTheRead) {
  ReplicaStackConfig config;
  config.replicas = 2;
  ReplicatedMemoryStack stack(config);
  const PageId id = stack.mirrored()->Allocate().value();
  Page page(stack.mirrored()->page_size());
  KCPQ_ASSERT_OK(stack.mirrored()->WritePage(id, page));

  stack.fault(0)->FailAfter(0);
  stack.fault(1)->FailAfter(0);
  Page got;
  const Status s = stack.top()->ReadPage(id, &got);
  EXPECT_FALSE(s.ok());
  EXPECT_FALSE(s.IsTransient());
}

TEST(MirroredBreaker, OpensSkipsProbesAndRecloses) {
  ReplicaStackConfig config;
  config.replicas = 2;
  config.checksum = false;  // raw error injection, no checksum rewrite
  config.mirrored.breaker.window = 8;
  config.mirrored.breaker.min_ops = 4;
  config.mirrored.breaker.error_threshold = 0.5;
  config.mirrored.breaker.probe_interval = 3;
  config.mirrored.breaker.probe_jitter = 0;
  config.mirrored.breaker.seed = 7;
  ReplicatedMemoryStack stack(config);
  MirroredStorageManager* mirror = stack.mirrored();

  const PageId id = mirror->Allocate().value();
  Page page(mirror->page_size());
  KCPQ_ASSERT_OK(mirror->WritePage(id, page));

  stack.fault(0)->FailAfter(0);
  Page got;
  // Errors accumulate until the window verdict trips the breaker open.
  while (mirror->breaker_state(0) == BreakerState::kClosed) {
    KCPQ_ASSERT_OK(mirror->ReadPage(id, &got));
  }
  EXPECT_EQ(mirror->breaker_state(0), BreakerState::kOpen);
  const uint64_t failovers_at_open = mirror->mirrored_stats().failovers;

  // While open, reads go straight to replica 1: no failovers accrue, only
  // breaker skips. Run fewer reads than the probe interval needs.
  KCPQ_ASSERT_OK(mirror->ReadPage(id, &got));
  EXPECT_EQ(mirror->mirrored_stats().failovers, failovers_at_open);
  EXPECT_GT(mirror->mirrored_stats().breaker_skips, 0u);

  // The deterministic probe schedule eventually re-tries replica 0; while
  // it still fails, every probe re-opens the breaker.
  for (int i = 0; i < 16; ++i) KCPQ_ASSERT_OK(mirror->ReadPage(id, &got));
  const MirroredStats mid = mirror->mirrored_stats();
  EXPECT_GT(mid.breaker_probes, 0u);
  EXPECT_GT(mid.breaker_opens, 1u);  // reopened after failed probes
  EXPECT_EQ(mirror->breaker_state(0), BreakerState::kOpen);

  // Heal the replica: the next probe succeeds and closes the breaker.
  stack.fault(0)->Heal();
  for (int i = 0; i < 16 &&
                  mirror->breaker_state(0) != BreakerState::kClosed;
       ++i) {
    KCPQ_ASSERT_OK(mirror->ReadPage(id, &got));
  }
  EXPECT_EQ(mirror->breaker_state(0), BreakerState::kClosed);
  EXPECT_GT(mirror->mirrored_stats().breaker_closes, 0u);
}

TEST(MirroredScrub, DetectsAndRepairsCorruptionAndSilentDivergence) {
  ReplicaStackConfig config;
  config.replicas = 3;
  ReplicatedMemoryStack stack(config);
  MirroredStorageManager* mirror = stack.mirrored();

  constexpr uint64_t kPages = 24;
  for (uint64_t i = 0; i < kPages; ++i) {
    const PageId id = mirror->Allocate().value();
    Page page(mirror->page_size());
    for (size_t b = 0; b < page.size(); ++b) {
      page.data()[b] = static_cast<uint8_t>(id * 13 + b);
    }
    KCPQ_ASSERT_OK(mirror->WritePage(id, page));
  }

  ScrubReport clean = mirror->ScrubAll(/*repair=*/false);
  EXPECT_EQ(clean.pages_scanned, kPages);
  EXPECT_EQ(clean.pages_clean, kPages);
  EXPECT_EQ(clean.pages_divergent, 0u);

  // Checksum-detectable corruption on replica 1 ...
  stack.fault(1)->CorruptPage(3);
  stack.fault(1)->CorruptPage(7);
  // ... and *silent* divergence on replica 2: rewrite the raw media copy
  // with a valid checksum but different bytes (a lost-update double).
  Page rogue(stack.checksum(2)->page_size());
  for (size_t b = 0; b < rogue.size(); ++b) {
    rogue.data()[b] = static_cast<uint8_t>(0xA5);
  }
  KCPQ_ASSERT_OK(stack.checksum(2)->WritePage(11, rogue));

  ScrubReport found = mirror->ScrubAll(/*repair=*/true);
  EXPECT_EQ(found.pages_scanned, kPages);
  EXPECT_EQ(found.pages_divergent, 3u);
  EXPECT_EQ(found.replica_corruptions, 2u);
  EXPECT_EQ(found.replicas_repaired, 3u);
  EXPECT_EQ(found.repair_failures, 0u);

  // Round trip: a second pass finds nothing left to fix, and the healed
  // copies carry the majority bytes.
  ScrubReport after = mirror->ScrubAll(/*repair=*/false);
  EXPECT_EQ(after.pages_clean, kPages);
  Page healed;
  KCPQ_ASSERT_OK(stack.replica_top(2)->ReadPage(11, &healed));
  EXPECT_EQ(healed.data()[0], static_cast<uint8_t>(11 * 13));
}

TEST(MirroredScrub, UnreadablePageIsReportedNotRepaired) {
  ReplicaStackConfig config;
  config.replicas = 2;
  ReplicatedMemoryStack stack(config);
  MirroredStorageManager* mirror = stack.mirrored();
  const PageId id = mirror->Allocate().value();
  Page page(mirror->page_size());
  KCPQ_ASSERT_OK(mirror->WritePage(id, page));

  stack.fault(0)->FailAfter(0);
  stack.fault(1)->FailAfter(0);
  ScrubReport report = mirror->ScrubAll(/*repair=*/true);
  EXPECT_EQ(report.pages_unreadable, 1u);
  EXPECT_EQ(report.replicas_repaired, 0u);
}

TEST(MirroredHedge, AccountingIdentityHoldsUnderHeavyTailLatency) {
  ReplicaStackConfig config;
  config.replicas = 2;
  config.latency.read_latency = std::chrono::microseconds(50);
  config.latency.slow_probability = 0.25;
  config.latency.slow_latency = std::chrono::microseconds(2000);
  config.latency.seed = 17;
  config.mirrored.hedge.mode = HedgeMode::kStatic;
  config.mirrored.hedge.static_delay = std::chrono::microseconds(100);
  ReplicatedMemoryStack stack(config);
  MirroredStorageManager* mirror = stack.mirrored();

  std::vector<PageId> ids;
  for (int i = 0; i < 16; ++i) {
    const PageId id = mirror->Allocate().value();
    Page page(mirror->page_size());
    page.data()[0] = static_cast<uint8_t>(id);
    KCPQ_ASSERT_OK(mirror->WritePage(id, page));
    ids.push_back(id);
  }
  for (int round = 0; round < 8; ++round) {
    for (PageId id : ids) {
      Page got;
      KCPQ_ASSERT_OK(mirror->ReadPage(id, &got));
      EXPECT_EQ(got.data()[0], static_cast<uint8_t>(id));
    }
  }
  mirror->DrainHedges();
  const MirroredStats stats = mirror->mirrored_stats();
  EXPECT_GT(stats.hedges_issued, 0u);
  EXPECT_EQ(stats.hedges_issued, stats.hedge_wins + stats.hedge_wasted);
  // A 2 ms stall against a 100 us hedge delay: some hedges must win.
  EXPECT_GT(stats.hedge_wins, 0u);
}

TEST(MirroredFaultPlan, SeededPlansReplayIdentically) {
  auto build = [](ReplicatedMemoryStack* stack) {
    for (int i = 0; i < 32; ++i) {
      const PageId id = stack->mirrored()->Allocate().value();
      Page page(stack->mirrored()->page_size());
      page.data()[0] = static_cast<uint8_t>(id);
      KCPQ_CHECK_OK(stack->mirrored()->WritePage(id, page));
    }
  };
  ReplicaStackConfig config;
  config.replicas = 2;
  ReplicatedMemoryStack a(config), b(config);
  build(&a);
  build(&b);

  FaultPlan plan;
  plan.seed = 99;
  plan.corrupt_pages = 5;
  a.fault(0)->ApplyPlan(plan);
  b.fault(0)->ApplyPlan(plan);
  EXPECT_EQ(a.fault(0)->corrupt_page_count(), 5u);
  EXPECT_EQ(b.fault(0)->corrupt_page_count(), 5u);

  // The same pages fail their checksum on both stacks, with identical
  // scrambled bytes underneath (deterministic XOR stream).
  std::set<PageId> failed_a, failed_b;
  for (PageId id = 0; id < 32; ++id) {
    Page got;
    if (!a.replica_top(0)->ReadPage(id, &got).ok()) failed_a.insert(id);
    if (!b.replica_top(0)->ReadPage(id, &got).ok()) failed_b.insert(id);
  }
  EXPECT_EQ(failed_a.size(), 5u);
  EXPECT_EQ(failed_a, failed_b);
}

TEST(MirroredScrub, BackgroundScrubberHealsWhileIdle) {
  ReplicaStackConfig config;
  config.replicas = 2;
  ReplicatedMemoryStack stack(config);
  MirroredStorageManager* mirror = stack.mirrored();
  for (int i = 0; i < 40; ++i) {
    const PageId id = mirror->Allocate().value();
    Page page(mirror->page_size());
    page.data()[0] = static_cast<uint8_t>(id);
    KCPQ_ASSERT_OK(mirror->WritePage(id, page));
  }
  stack.fault(1)->CorruptPage(5);
  stack.fault(1)->CorruptPage(21);

  BackgroundScrubOptions options;
  options.poll = std::chrono::milliseconds(1);
  options.idle_after = std::chrono::milliseconds(0);
  options.pages_per_tick = 16;
  {
    // Null activity probe: always idle, scrub at full tick cadence.
    BackgroundScrubber scrubber(mirror, nullptr, options);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (scrubber.sweeps() < 1 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    scrubber.Stop();
    const ScrubReport report = scrubber.report();
    EXPECT_GE(report.pages_scanned, 40u);
    EXPECT_EQ(report.replicas_repaired, 2u);
  }
  const ScrubReport after = mirror->ScrubAll(/*repair=*/false);
  EXPECT_EQ(after.pages_divergent, 0u);
  EXPECT_EQ(stack.fault(1)->corrupt_page_count(), 0u);
}

TEST(MirroredStack, WritesReachEveryReplicaAndAllocateStaysAligned) {
  ReplicaStackConfig config;
  config.replicas = 3;
  ReplicatedMemoryStack stack(config);
  MirroredStorageManager* mirror = stack.mirrored();
  const PageId a = mirror->Allocate().value();
  const PageId b = mirror->Allocate().value();
  EXPECT_NE(a, b);
  Page page(mirror->page_size());
  page.data()[0] = 0x5A;
  KCPQ_ASSERT_OK(mirror->WritePage(b, page));
  for (size_t r = 0; r < 3; ++r) {
    Page got;
    KCPQ_ASSERT_OK(stack.replica_top(r)->ReadPage(b, &got));
    EXPECT_EQ(got.data()[0], 0x5A) << "replica " << r;
  }
  EXPECT_EQ(mirror->PageCount(), stack.replica_top(0)->PageCount());
}

}  // namespace
}  // namespace kcpq
