// Unit tests for the buffer manager and replacement policies.

#include <thread>
#include <vector>

#include "buffer/buffer_manager.h"
#include "gtest/gtest.h"
#include "storage/memory_storage.h"
#include "tests/test_util.h"

namespace kcpq {
namespace {

Page FilledPage(size_t size, uint8_t fill) {
  Page p(size);
  for (size_t i = 0; i < size; ++i) p.data()[i] = fill;
  return p;
}

// Allocates `n` pages filled with their index.
std::vector<PageId> Populate(MemoryStorageManager* storage, size_t n) {
  std::vector<PageId> ids;
  for (size_t i = 0; i < n; ++i) {
    const PageId id = storage->Allocate().value();
    KCPQ_CHECK_OK(storage->WritePage(
        id, FilledPage(storage->page_size(), static_cast<uint8_t>(i))));
    ids.push_back(id);
  }
  return ids;
}

TEST(BufferManagerTest, ZeroCapacityIsPassThrough) {
  MemoryStorageManager storage(64);
  const auto ids = Populate(&storage, 3);
  BufferManager buffer(&storage, 0);
  storage.ResetStats();
  Page out;
  KCPQ_ASSERT_OK(buffer.Read(ids[0], &out));
  KCPQ_ASSERT_OK(buffer.Read(ids[0], &out));
  KCPQ_ASSERT_OK(buffer.Read(ids[0], &out));
  EXPECT_EQ(storage.stats().reads, 3u);  // every access hits the disk
  EXPECT_EQ(buffer.stats().misses, 3u);
  EXPECT_EQ(buffer.stats().hits, 0u);
}

TEST(BufferManagerTest, CachesRepeatedReads) {
  MemoryStorageManager storage(64);
  const auto ids = Populate(&storage, 3);
  BufferManager buffer(&storage, 2);
  storage.ResetStats();
  Page out;
  KCPQ_ASSERT_OK(buffer.Read(ids[0], &out));
  KCPQ_ASSERT_OK(buffer.Read(ids[0], &out));
  KCPQ_ASSERT_OK(buffer.Read(ids[0], &out));
  EXPECT_EQ(storage.stats().reads, 1u);
  EXPECT_EQ(buffer.stats().misses, 1u);
  EXPECT_EQ(buffer.stats().hits, 2u);
  EXPECT_EQ(out.data()[0], 0);
}

TEST(BufferManagerTest, LruEvictsLeastRecentlyUsed) {
  MemoryStorageManager storage(64);
  const auto ids = Populate(&storage, 3);
  BufferManager buffer(&storage, 2, MakeLruPolicy());
  Page out;
  KCPQ_ASSERT_OK(buffer.Read(ids[0], &out));  // miss {0}
  KCPQ_ASSERT_OK(buffer.Read(ids[1], &out));  // miss {0,1}
  KCPQ_ASSERT_OK(buffer.Read(ids[0], &out));  // hit, 0 most recent
  KCPQ_ASSERT_OK(buffer.Read(ids[2], &out));  // miss, evicts 1
  KCPQ_ASSERT_OK(buffer.Read(ids[0], &out));  // hit
  KCPQ_ASSERT_OK(buffer.Read(ids[1], &out));  // miss again
  EXPECT_EQ(buffer.stats().misses, 4u);
  EXPECT_EQ(buffer.stats().hits, 2u);
  EXPECT_EQ(buffer.stats().evictions, 2u);
}

TEST(BufferManagerTest, FifoIgnoresAccessRecency) {
  MemoryStorageManager storage(64);
  const auto ids = Populate(&storage, 3);
  BufferManager buffer(&storage, 2, MakeFifoPolicy());
  Page out;
  KCPQ_ASSERT_OK(buffer.Read(ids[0], &out));  // miss {0}
  KCPQ_ASSERT_OK(buffer.Read(ids[1], &out));  // miss {0,1}
  KCPQ_ASSERT_OK(buffer.Read(ids[0], &out));  // hit (no reorder)
  KCPQ_ASSERT_OK(buffer.Read(ids[2], &out));  // miss, evicts 0 (oldest)
  KCPQ_ASSERT_OK(buffer.Read(ids[0], &out));  // miss under FIFO
  EXPECT_EQ(buffer.stats().misses, 4u);
}

TEST(BufferManagerTest, RandomPolicyStaysWithinCapacity) {
  MemoryStorageManager storage(64);
  const auto ids = Populate(&storage, 20);
  BufferManager buffer(&storage, 4, MakeRandomPolicy(7));
  Page out;
  for (int round = 0; round < 3; ++round) {
    for (const PageId id : ids) {
      KCPQ_ASSERT_OK(buffer.Read(id, &out));
      ASSERT_LE(buffer.resident(), 4u);
    }
  }
}

TEST(BufferManagerTest, WriteBackOnEviction) {
  MemoryStorageManager storage(64);
  const auto ids = Populate(&storage, 3);
  BufferManager buffer(&storage, 1);
  KCPQ_ASSERT_OK(buffer.Write(ids[0], FilledPage(64, 0xEE)));
  EXPECT_EQ(buffer.stats().writebacks, 0u);  // still dirty in the frame
  Page out;
  KCPQ_ASSERT_OK(buffer.Read(ids[1], &out));  // evicts dirty frame 0
  EXPECT_EQ(buffer.stats().writebacks, 1u);
  KCPQ_ASSERT_OK(buffer.Read(ids[0], &out));  // reload from storage
  EXPECT_EQ(out.data()[5], 0xEE);
}

TEST(BufferManagerTest, ReadSeesCachedWrite) {
  MemoryStorageManager storage(64);
  const auto ids = Populate(&storage, 1);
  BufferManager buffer(&storage, 4);
  KCPQ_ASSERT_OK(buffer.Write(ids[0], FilledPage(64, 0x99)));
  Page out;
  storage.ResetStats();
  KCPQ_ASSERT_OK(buffer.Read(ids[0], &out));
  EXPECT_EQ(storage.stats().reads, 0u);  // served from the dirty frame
  EXPECT_EQ(out.data()[0], 0x99);
}

TEST(BufferManagerTest, FlushWritesAllDirty) {
  MemoryStorageManager storage(64);
  const auto ids = Populate(&storage, 3);
  BufferManager buffer(&storage, 4);
  KCPQ_ASSERT_OK(buffer.Write(ids[0], FilledPage(64, 1)));
  KCPQ_ASSERT_OK(buffer.Write(ids[1], FilledPage(64, 2)));
  storage.ResetStats();
  KCPQ_ASSERT_OK(buffer.Flush());
  EXPECT_EQ(storage.stats().writes, 2u);
  KCPQ_ASSERT_OK(buffer.Flush());  // now clean
  EXPECT_EQ(storage.stats().writes, 2u);
}

TEST(BufferManagerTest, FlushAndClearColdsTheCache) {
  MemoryStorageManager storage(64);
  const auto ids = Populate(&storage, 2);
  BufferManager buffer(&storage, 4);
  Page out;
  KCPQ_ASSERT_OK(buffer.Read(ids[0], &out));
  KCPQ_ASSERT_OK(buffer.FlushAndClear());
  EXPECT_EQ(buffer.resident(), 0u);
  buffer.ResetStats();
  KCPQ_ASSERT_OK(buffer.Read(ids[0], &out));
  EXPECT_EQ(buffer.stats().misses, 1u);  // cold again
}

TEST(BufferManagerTest, FreeDropsFrame) {
  MemoryStorageManager storage(64);
  const auto ids = Populate(&storage, 2);
  BufferManager buffer(&storage, 4);
  Page out;
  KCPQ_ASSERT_OK(buffer.Read(ids[0], &out));
  KCPQ_ASSERT_OK(buffer.Free(ids[0]));
  EXPECT_EQ(buffer.resident(), 0u);
  EXPECT_EQ(buffer.Read(ids[0], &out).code(), StatusCode::kFailedPrecondition);
}

TEST(BufferManagerTest, HitMissAccountingConsistent) {
  MemoryStorageManager storage(64);
  const auto ids = Populate(&storage, 10);
  BufferManager buffer(&storage, 3);
  storage.ResetStats();
  Page out;
  Xoshiro256pp rng(3);
  uint64_t logical = 0;
  for (int i = 0; i < 500; ++i) {
    KCPQ_ASSERT_OK(buffer.Read(ids[rng.NextBounded(ids.size())], &out));
    ++logical;
  }
  EXPECT_EQ(buffer.stats().logical_reads(), logical);
  EXPECT_EQ(buffer.stats().misses, storage.stats().reads);
}

// Per-query page accounting: a QueryContext passed to Read is charged
// page_size exactly once per distinct page — hits and misses alike, so the
// charge is independent of buffer capacity and residency.
TEST(BufferManagerTest, QueryContextChargesDistinctPagesOnce) {
  MemoryStorageManager storage(64);
  const auto ids = Populate(&storage, 4);
  BufferManager buffer(&storage, 2);
  Page out;

  QueryContext ctx;
  KCPQ_ASSERT_OK(buffer.Read(ids[0], &out, &ctx));
  EXPECT_EQ(ctx.accountant().distinct_pages(), 1u);
  EXPECT_EQ(ctx.accountant().buffer_bytes(), storage.page_size());

  // Re-reads of the same page are free (resident or not).
  KCPQ_ASSERT_OK(buffer.Read(ids[0], &out, &ctx));
  KCPQ_ASSERT_OK(buffer.Read(ids[0], &out, &ctx));
  EXPECT_EQ(ctx.accountant().distinct_pages(), 1u);

  KCPQ_ASSERT_OK(buffer.Read(ids[1], &out, &ctx));
  KCPQ_ASSERT_OK(buffer.Read(ids[2], &out, &ctx));
  EXPECT_EQ(ctx.accountant().distinct_pages(), 3u);
  EXPECT_EQ(ctx.accountant().buffer_bytes(), 3 * storage.page_size());
  EXPECT_EQ(ctx.accountant().total_bytes(),
            ctx.accountant().buffer_bytes());  // no engine bytes recorded

  // A cache *hit* still charges a fresh query: the footprint is the
  // query's, not the buffer's.
  QueryContext ctx2;
  KCPQ_ASSERT_OK(buffer.Read(ids[0], &out, &ctx2));
  EXPECT_EQ(ctx2.accountant().distinct_pages(), 1u);

  // The same page through a different buffer instance is a different
  // footprint entry (distinct pinnable copy).
  BufferManager buffer2(&storage, 0);
  KCPQ_ASSERT_OK(buffer2.Read(ids[0], &out, &ctx2));
  EXPECT_EQ(ctx2.accountant().distinct_pages(), 2u);

  // A null context costs nothing and reads identically.
  KCPQ_ASSERT_OK(buffer.Read(ids[3], &out));
  EXPECT_EQ(ctx.accountant().distinct_pages(), 3u);
}

// The unified footprint trips the memory budget through QueryContext::Check
// even when the engine-side estimate stays at zero.
TEST(BufferManagerTest, PageChargesCountAgainstMemoryBudget) {
  MemoryStorageManager storage(64);
  const auto ids = Populate(&storage, 4);
  BufferManager buffer(&storage, 0);
  Page out;

  QueryControl control;
  control.max_candidate_bytes = 3 * storage.page_size();
  QueryContext ctx(control);
  KCPQ_ASSERT_OK(buffer.Read(ids[0], &out, &ctx));
  EXPECT_EQ(ctx.Check(0, 0), StopCause::kNone);
  KCPQ_ASSERT_OK(buffer.Read(ids[1], &out, &ctx));
  EXPECT_EQ(ctx.Check(0, 0), StopCause::kNone);  // below the limit
  KCPQ_ASSERT_OK(buffer.Read(ids[2], &out, &ctx));
  EXPECT_EQ(ctx.Check(0, 0), StopCause::kMemoryBudget);  // 3 pages >= limit
}

// AggregateStats counts every thread that ever touched this buffer —
// including threads that have already exited.
TEST(BufferManagerTest, AggregateStatsSurvivesThreadExit) {
  MemoryStorageManager storage(64);
  const auto ids = Populate(&storage, 3);
  BufferManager buffer(&storage, 2);

  Page out;
  KCPQ_ASSERT_OK(buffer.Read(ids[0], &out));  // main thread: 1 miss
  KCPQ_ASSERT_OK(buffer.Read(ids[0], &out));  // main thread: 1 hit

  std::thread worker([&] {
    Page worker_out;
    KCPQ_ASSERT_OK(buffer.Read(ids[0], &worker_out));  // hit (cached above)
    KCPQ_ASSERT_OK(buffer.Read(ids[1], &worker_out));  // miss
    KCPQ_ASSERT_OK(buffer.Read(ids[1], &worker_out));  // hit
  });
  worker.join();

  const BufferStats total = buffer.AggregateStats();
  EXPECT_EQ(total.hits, 3u);
  EXPECT_EQ(total.misses, 2u);
}

// ResetStats restarts stats() from zero, while AggregateStats stays
// monotone across it: before/after deltas of AggregateStats (the scrub
// probe's, bench_e2e's) are exact however the buffer was reset between
// them.
TEST(BufferManagerTest, AggregateStatsMonotoneAcrossReset) {
  MemoryStorageManager storage(64);
  const auto ids = Populate(&storage, 3);
  BufferManager buffer(&storage, 2);
  Page out;
  KCPQ_ASSERT_OK(buffer.Read(ids[0], &out));  // miss
  KCPQ_ASSERT_OK(buffer.Read(ids[0], &out));  // hit
  const BufferStats before = buffer.AggregateStats();
  EXPECT_EQ(before.misses, 1u);
  EXPECT_EQ(before.hits, 1u);

  buffer.ResetStats();
  EXPECT_EQ(buffer.stats().misses, 0u);
  EXPECT_EQ(buffer.stats().hits, 0u);
  EXPECT_EQ(buffer.AggregateStats().misses, before.misses);
  EXPECT_EQ(buffer.AggregateStats().hits, before.hits);

  KCPQ_ASSERT_OK(buffer.Read(ids[1], &out));  // miss
  KCPQ_ASSERT_OK(buffer.Read(ids[2], &out));  // miss, evicts ids[0]
  KCPQ_ASSERT_OK(buffer.Read(ids[1], &out));  // hit
  const BufferStats since_reset = buffer.stats();
  EXPECT_EQ(since_reset.misses, 2u);
  EXPECT_EQ(since_reset.hits, 1u);
  EXPECT_EQ(since_reset.evictions, 1u);
  const BufferStats after = buffer.AggregateStats();
  EXPECT_EQ(after.misses - before.misses, 2u);
  EXPECT_EQ(after.hits - before.hits, 1u);
  EXPECT_EQ(after.misses, 3u);
  EXPECT_EQ(after.evictions, 1u);
}

// Aggregation is keyed by buffer instance: two buffers over one storage
// never see each other's counts, even from the same threads.
TEST(BufferManagerTest, AggregateStatsIsPerInstance) {
  MemoryStorageManager storage(64);
  const auto ids = Populate(&storage, 2);
  BufferManager a(&storage, 2);
  BufferManager b(&storage, 2);
  Page out;
  KCPQ_ASSERT_OK(a.Read(ids[0], &out));
  KCPQ_ASSERT_OK(b.Read(ids[0], &out));
  KCPQ_ASSERT_OK(b.Read(ids[0], &out));
  EXPECT_EQ(a.AggregateStats().misses, 1u);
  EXPECT_EQ(a.AggregateStats().hits, 0u);
  EXPECT_EQ(b.AggregateStats().misses, 1u);
  EXPECT_EQ(b.AggregateStats().hits, 1u);
}

// Concurrent readers while another thread aggregates: exercised under
// TSan in CI to prove the counters are race-free.
TEST(BufferManagerTest, AggregateStatsConcurrentWithReaders) {
  MemoryStorageManager storage(64);
  const auto ids = Populate(&storage, 4);
  BufferManager buffer(&storage, 2);

  constexpr int kThreads = 4;
  constexpr int kReadsPerThread = 2000;
  std::vector<std::thread> readers;
  readers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      Page out;
      for (int i = 0; i < kReadsPerThread; ++i) {
        KCPQ_ASSERT_OK(buffer.Read(ids[(t + i) % ids.size()], &out));
      }
    });
  }
  uint64_t last_logical = 0;
  for (int i = 0; i < 50; ++i) {
    const BufferStats agg = buffer.AggregateStats();
    EXPECT_GE(agg.logical_reads(), last_logical);  // monotone under load
    last_logical = agg.logical_reads();
  }
  for (std::thread& r : readers) r.join();
  EXPECT_EQ(buffer.AggregateStats().logical_reads(),
            static_cast<uint64_t>(kThreads) * kReadsPerThread);
}

// Regression: capacity_pages < shards leaves some shards with capacity
// 0; the first miss routed to such a shard used to pick an eviction
// victim from an empty policy (undefined behaviour — crashed in release
// builds). A zero-capacity shard must simply hold its most recent page.
TEST(BufferManagerTest, FewerPagesThanShardsDoesNotCrash) {
  MemoryStorageManager storage(64);
  const auto ids = Populate(&storage, 128);
  BufferManager buffer(&storage, /*capacity_pages=*/32, /*shards=*/64,
                       [] { return MakeLruPolicy(); });
  Page out;
  for (int pass = 0; pass < 2; ++pass) {
    for (const PageId id : ids) KCPQ_ASSERT_OK(buffer.Read(id, &out));
  }
  const BufferStats stats = buffer.AggregateStats();
  EXPECT_EQ(stats.logical_reads(), 2u * ids.size());
  EXPECT_GT(stats.misses, 0u);
}

}  // namespace
}  // namespace kcpq
