// Unit tests for the buffer manager and replacement policies.

#include <algorithm>
#include <list>
#include <thread>
#include <vector>

#include "buffer/buffer_manager.h"
#include "common/random.h"
#include "gtest/gtest.h"
#include "rtree/node.h"
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

// ---------------------------------------------------------------------------
// Decoded frames: ReadNode decodes once per residency and copies out.

// A one-entry leaf page whose entry carries `record_id`.
Page LeafPage(size_t page_size, uint64_t record_id) {
  Node node;
  node.entries.push_back(Entry::ForPoint(
      Point{{0.25, static_cast<double>(record_id)}}, record_id));
  Page page(page_size);
  KCPQ_CHECK_OK(SerializeNode(node, &page));
  return page;
}

uint64_t FirstRecordId(const Node& node) {
  return node.entries.empty() ? ~uint64_t{0} : node.entries[0].id;
}

TEST(BufferManagerTest, ReadNodeSeesWriteFreeAndFlushAndClear) {
  MemoryStorageManager storage(kDefaultPageSize);
  BufferManager buffer(&storage, 4);
  const PageId id = buffer.Allocate().value();
  Node node;

  // A Write over a decoded frame replaces what ReadNode returns.
  KCPQ_ASSERT_OK(buffer.Write(id, LeafPage(storage.page_size(), 1)));
  KCPQ_ASSERT_OK(buffer.ReadNode(id, &node));
  EXPECT_EQ(FirstRecordId(node), 1u);
  KCPQ_ASSERT_OK(buffer.Write(id, LeafPage(storage.page_size(), 2)));
  KCPQ_ASSERT_OK(buffer.ReadNode(id, &node));
  EXPECT_EQ(FirstRecordId(node), 2u);

  // Free drops the decoded copy: the reallocated id reads its new page.
  KCPQ_ASSERT_OK(buffer.Free(id));
  const PageId again = buffer.Allocate().value();
  ASSERT_EQ(again, id);  // the memory store reuses freed ids
  KCPQ_ASSERT_OK(buffer.Write(again, LeafPage(storage.page_size(), 3)));
  KCPQ_ASSERT_OK(buffer.ReadNode(again, &node));
  EXPECT_EQ(FirstRecordId(node), 3u);

  // FlushAndClear drops it too: a page rewritten behind the buffer's back
  // is read fresh afterwards.
  KCPQ_ASSERT_OK(buffer.Flush());
  KCPQ_ASSERT_OK(buffer.ReadNode(again, &node));
  EXPECT_EQ(FirstRecordId(node), 3u);
  KCPQ_ASSERT_OK(storage.WritePage(again, LeafPage(storage.page_size(), 4)));
  KCPQ_ASSERT_OK(buffer.FlushAndClear());
  KCPQ_ASSERT_OK(buffer.ReadNode(again, &node));
  EXPECT_EQ(FirstRecordId(node), 4u);
}

TEST(BufferManagerTest, UndecodablePageIsCorruptionOnEveryReadNode) {
  for (const size_t capacity : {size_t{0}, size_t{4}}) {
    MemoryStorageManager storage(kDefaultPageSize);
    const PageId id = storage.Allocate().value();
    Page bad(storage.page_size());
    bad.data()[0] = 90;  // level 90: out of range
    KCPQ_ASSERT_OK(storage.WritePage(id, bad));
    BufferManager buffer(&storage, capacity);
    Node node;
    for (int round = 0; round < 3; ++round) {
      const Status s = buffer.ReadNode(id, &node);
      EXPECT_EQ(s.code(), StatusCode::kCorruption)
          << "capacity " << capacity << " round " << round;
    }
    // The bytes stay readable, and the failed decodes counted like reads.
    Page out;
    KCPQ_ASSERT_OK(buffer.Read(id, &out));
    EXPECT_EQ(out.data()[0], 90);
    EXPECT_EQ(buffer.stats().logical_reads(), 4u);
    EXPECT_EQ(buffer.stats().misses, capacity == 0 ? 4u : 1u);
  }
}

/// LRU that records every victim slot it chooses, across all shards.
class RecordingLru : public ReplacementPolicy {
 public:
  explicit RecordingLru(std::vector<PageId>* victims)
      : inner_(MakeLruPolicy()), victims_(victims) {}
  void OnInsert(PageId id) override { inner_->OnInsert(id); }
  void OnAccess(PageId id) override { inner_->OnAccess(id); }
  PageId ChooseVictim() override {
    const PageId victim = inner_->ChooseVictim();
    victims_->push_back(victim);
    return victim;
  }
  void OnErase(PageId id) override { inner_->OnErase(id); }
  const char* name() const override { return "recording-lru"; }

 private:
  std::unique_ptr<ReplacementPolicy> inner_;
  std::vector<PageId>* victims_;
};

// Node pages of a small inserted tree (every page but the meta page).
std::vector<PageId> NodePages(testing::TreeFixture& fx) {
  std::vector<PageId> pages;
  for (PageId id = 0; id < fx.storage().PageCount(); ++id) {
    if (id != fx.tree().meta_page()) pages.push_back(id);
  }
  return pages;
}

TEST(BufferManagerTest, ReadNodeMatchesReadHitsMissesAndVictims) {
  testing::TreeFixture fx;
  KCPQ_ASSERT_OK(fx.Build(testing::MakeUniformItems(2000, 17)));
  const std::vector<PageId> pages = NodePages(fx);
  ASSERT_GT(pages.size(), 40u);
  Xoshiro256pp rng(5);
  std::vector<PageId> sequence;
  for (int i = 0; i < 4000; ++i) {
    sequence.push_back(pages[rng.NextBounded(pages.size())]);
  }
  for (const size_t shards : {size_t{1}, size_t{4}}) {
    std::vector<PageId> victims[2];
    BufferStats stats[2];
    for (int by_node = 0; by_node < 2; ++by_node) {
      std::vector<PageId>* sink = &victims[by_node];
      BufferManager buffer(
          &fx.storage(), /*capacity_pages=*/24, shards,
          [sink] { return std::make_unique<RecordingLru>(sink); });
      Page page;
      Node node;
      for (const PageId id : sequence) {
        KCPQ_ASSERT_OK(by_node ? buffer.ReadNode(id, &node)
                               : buffer.Read(id, &page));
      }
      stats[by_node] = buffer.stats();
    }
    EXPECT_EQ(stats[0].hits, stats[1].hits) << shards << " shards";
    EXPECT_EQ(stats[0].misses, stats[1].misses) << shards << " shards";
    EXPECT_EQ(stats[0].evictions, stats[1].evictions) << shards << " shards";
    EXPECT_GT(stats[0].evictions, 0u);
    EXPECT_EQ(victims[0], victims[1]) << shards << " shards";
  }
}

// Four threads race on the first decode of every frame, round after
// round (each round starts cold): every copy equals the page decoded on
// its own, and every node (internal ones too) arrives with its axis orders.
TEST(BufferManagerTest, ConcurrentFirstDecodeStress) {
  testing::TreeFixture fx;
  KCPQ_ASSERT_OK(fx.Build(testing::MakeUniformItems(3000, 23)));
  const std::vector<PageId> pages = NodePages(fx);
  std::vector<Node> expected(pages.size());
  for (size_t i = 0; i < pages.size(); ++i) {
    Page raw;
    KCPQ_ASSERT_OK(fx.storage().ReadPage(pages[i], &raw));
    KCPQ_ASSERT_OK(DeserializeNode(raw, &expected[i]));
  }
  BufferManager buffer(&fx.storage(), pages.size() + 1, /*shards=*/4,
                       [] { return MakeLruPolicy(); });
  constexpr int kThreads = 4;
  for (int round = 0; round < 8; ++round) {
    KCPQ_ASSERT_OK(buffer.FlushAndClear());
    std::vector<int> mismatches(kThreads, 0);
    std::vector<std::thread> readers;
    for (int t = 0; t < kThreads; ++t) {
      readers.emplace_back([&, t] {
        Node node;
        for (size_t k = 0; k < pages.size(); ++k) {
          const size_t i = (k + t * 7) % pages.size();
          const Status s = buffer.ReadNode(pages[i], &node);
          const Node& want = expected[i];
          bool same = s.ok() && node.level == want.level &&
                      node.entries.size() == want.entries.size() &&
                      node.HasAxisOrders();
          for (size_t e = 0; same && e < want.entries.size(); ++e) {
            same = node.entries[e].id == want.entries[e].id &&
                   node.entries[e].rect == want.entries[e].rect;
          }
          if (!same) ++mismatches[t];
        }
      });
    }
    for (std::thread& r : readers) r.join();
    for (int t = 0; t < kThreads; ++t) {
      EXPECT_EQ(mismatches[t], 0) << "round " << round << " thread " << t;
    }
  }
  EXPECT_EQ(buffer.AggregateStats().misses, 8 * pages.size());
}

// The distinct-page meter's bitmaps: word boundaries, a sparse high id and
// an id past the bitmaps' range, on two buffer instances.
TEST(ResourceAccountantTest, ChargesEachDistinctPageOnce) {
  constexpr uint64_t kPage = 1024;
  const uint64_t ids[] = {0, 63, 64, uint64_t{1} << 20, uint64_t{1} << 40};
  ResourceAccountant acct;
  acct.SetEngineBytes(100);
  for (const uint64_t instance : {uint64_t{7}, uint64_t{9}}) {
    for (const uint64_t id : ids) acct.ChargeBufferPage(instance, id, kPage);
  }
  EXPECT_EQ(acct.distinct_pages(), 10u);
  EXPECT_EQ(acct.buffer_bytes(), 10 * kPage);
  EXPECT_EQ(acct.peak_total_bytes(), 100 + 10 * kPage);
  // Repeated reads are free, in any order.
  for (int pass = 0; pass < 2; ++pass) {
    for (const uint64_t instance : {uint64_t{9}, uint64_t{7}}) {
      for (const uint64_t id : ids) acct.ChargeBufferPage(instance, id, kPage);
    }
  }
  acct.SetEngineBytes(0);
  EXPECT_EQ(acct.distinct_pages(), 10u);
  EXPECT_EQ(acct.buffer_bytes(), 10 * kPage);
  EXPECT_EQ(acct.total_bytes(), 10 * kPage);
  EXPECT_EQ(acct.peak_engine_bytes(), 100u);
  EXPECT_EQ(acct.peak_total_bytes(), 100 + 10 * kPage);
  // A neighbour of a charged id is still new.
  acct.ChargeBufferPage(7, 65, kPage);
  EXPECT_EQ(acct.distinct_pages(), 11u);
  EXPECT_EQ(acct.peak_total_bytes(), 11 * kPage);
}

// The slot-indexed LRU and FIFO against a std::list reference (front =
// most recent, back = victim) over a seeded trace of one million inserts,
// hits, erases (of resident and absent slots) and victim choices.
TEST(ReplacementPolicyTest, SlotListsMatchStdListReference) {
  for (const bool lru : {true, false}) {
    std::unique_ptr<ReplacementPolicy> policy =
        lru ? MakeLruPolicy() : MakeFifoPolicy();
    std::list<FrameSlot> reference;
    std::vector<FrameSlot> resident;
    std::vector<bool> is_resident(512, false);
    Xoshiro256pp rng(lru ? 11 : 12);
    uint64_t victims = 0;
    for (int op = 0; op < 1000000; ++op) {
      const uint64_t kind = rng.NextBounded(8);
      if (kind < 3) {  // insert a non-resident slot
        const FrameSlot slot = rng.NextBounded(is_resident.size());
        if (is_resident[slot]) continue;
        policy->OnInsert(slot);
        reference.push_front(slot);
        is_resident[slot] = true;
        resident.push_back(slot);
      } else if (kind < 6) {  // hit a resident slot
        if (resident.empty()) continue;
        const FrameSlot slot = resident[rng.NextBounded(resident.size())];
        policy->OnAccess(slot);
        if (lru) {
          reference.remove(slot);
          reference.push_front(slot);
        }
      } else if (kind == 6) {  // erase any slot, resident or not
        const FrameSlot slot = rng.NextBounded(is_resident.size() + 64);
        policy->OnErase(slot);
        if (slot < is_resident.size() && is_resident[slot]) {
          reference.remove(slot);
          is_resident[slot] = false;
          resident.erase(std::find(resident.begin(), resident.end(), slot));
        }
      } else {  // evict
        if (resident.empty()) continue;
        const FrameSlot victim = policy->ChooseVictim();
        ASSERT_EQ(victim, reference.back()) << "op " << op;
        reference.pop_back();
        is_resident[victim] = false;
        resident.erase(std::find(resident.begin(), resident.end(), victim));
        ++victims;
      }
    }
    EXPECT_GT(victims, 50000u);
    // Drain: the remaining order matches too.
    while (!reference.empty()) {
      ASSERT_EQ(policy->ChooseVictim(), reference.back());
      reference.pop_back();
    }
  }
}

// Reads that never sweep (RStarTree::ReadNode: insertion, range, kNN) get
// no axis orders and build none in the frame; the engines' reads
// (TryReadNode) get every node's orders, built once per residency.
TEST(BufferManagerTest, AxisOrdersOnlyForReadsThatSweep) {
  testing::TreeFixture fx(/*buffer_pages=*/4096);
  KCPQ_ASSERT_OK(fx.Build(testing::MakeUniformItems(2000, 29)));
  KCPQ_ASSERT_OK(fx.buffer().FlushAndClear());
  const std::vector<PageId> pages = NodePages(fx);
  Node node;
  for (const PageId id : pages) {
    KCPQ_ASSERT_OK(fx.tree().ReadNode(id, &node));
    EXPECT_TRUE(node.axis_order.empty()) << "page " << id;
  }
  for (int round = 0; round < 2; ++round) {
    for (const PageId id : pages) {
      BufferManager::TryReadOutcome outcome;
      KCPQ_ASSERT_OK(fx.tree().TryReadNode(id, &node, nullptr, Waker(),
                                           &outcome));
      EXPECT_TRUE(outcome.hit);
      ASSERT_TRUE(node.HasAxisOrders()) << "page " << id;
      for (int d = 0; d < kDims; ++d) {
        std::vector<uint32_t> want(node.entries.size());
        SortAxisOrder(node.entries, d, want.data());
        EXPECT_TRUE(std::equal(want.begin(), want.end(), node.AxisOrder(d)));
      }
    }
    // A plain read after the orders exist still copies none.
    KCPQ_ASSERT_OK(fx.tree().ReadNode(pages.front(), &node));
    EXPECT_TRUE(node.axis_order.empty());
  }
}

}  // namespace
}  // namespace kcpq
