// Tests for the asynchronous batched read path: IoThreadPool basics,
// StorageManager::ReadPagesAsync across backends and decorators, the
// LatencyStorageManager concurrency contract (sleeps overlap across
// threads), and the BufferManager's speculative prefetch area —
// coalescing, claims, drains, and the accounting identity
// issued == hits + wasted + in-flight.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#include "buffer/buffer_manager.h"
#include "buffer/replacement_policy.h"
#include "common/query_context.h"
#include "gtest/gtest.h"
#include "storage/async_io.h"
#include "storage/checksum_storage.h"
#include "storage/latency_storage.h"
#include "storage/memory_storage.h"
#include "storage/storage_manager.h"
#include "tests/test_util.h"

namespace kcpq {
namespace {

using Clock = std::chrono::steady_clock;

/// Allocates `n` pages on `storage`, each filled with a byte derived from
/// its index so reads can be verified.
std::vector<PageId> FillPages(StorageManager* storage, size_t n) {
  std::vector<PageId> ids;
  ids.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    auto allocated = storage->Allocate();
    KCPQ_CHECK_OK(allocated.status());
    Page page(storage->page_size());
    std::memset(page.data(), static_cast<int>('A' + i % 26), page.size());
    KCPQ_CHECK_OK(storage->WritePage(allocated.value(), page));
    ids.push_back(allocated.value());
  }
  return ids;
}

/// Thread-safe collector for async completions.
struct Completions {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<AsyncPageRead> done;

  AsyncReadCallback Callback() {
    return [this](AsyncPageRead read) {
      std::lock_guard<std::mutex> lock(mu);
      done.push_back(std::move(read));
      cv.notify_all();
    };
  }
  void WaitFor(size_t n) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done.size() >= n; });
  }
  const AsyncPageRead* Find(PageId id) {
    std::lock_guard<std::mutex> lock(mu);
    for (const AsyncPageRead& r : done) {
      if (r.id == id) return &r;
    }
    return nullptr;
  }
};

TEST(IoThreadPoolTest, ExecutesAllSubmittedTasksBeforeJoin) {
  std::atomic<int> ran{0};
  {
    IoThreadPool pool(3);
    EXPECT_EQ(pool.threads(), 3u);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
    // Destructor drains the queue: every submitted task must run.
  }
  EXPECT_EQ(ran.load(), 100);
}

TEST(IoThreadPoolTest, SharedPoolIsUsable) {
  std::atomic<bool> ran{false};
  std::mutex mu;
  std::condition_variable cv;
  IoThreadPool::Shared().Submit([&] {
    // Notify under the lock: the waiter destroys cv as soon as it observes
    // ran, so the worker may touch it only while the waiter is blocked.
    std::lock_guard<std::mutex> lock(mu);
    ran.store(true);
    cv.notify_all();
  });
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return ran.load(); });
  EXPECT_GE(IoThreadPool::Shared().threads(), 1u);
}

TEST(AsyncStorageTest, ThreadPoolBackendReadsCorrectDataAndReportsErrors) {
  MemoryStorageManager storage;
  const std::vector<PageId> valid = FillPages(&storage, 8);
  ASSERT_EQ(storage.io_backend(), IoBackend::kThreadPool);  // default
  std::vector<PageId> ids = valid;
  ids.push_back(storage.PageCount() + 5);  // out of range
  Completions got;
  storage.ReadPagesAsync(ids.data(), ids.size(), got.Callback());
  got.WaitFor(ids.size());
  for (size_t i = 0; i < valid.size(); ++i) {
    const AsyncPageRead* r = got.Find(valid[i]);
    ASSERT_NE(r, nullptr);
    KCPQ_EXPECT_OK(r->status);
    EXPECT_EQ(r->page.data()[0], static_cast<uint8_t>('A' + i % 26));
  }
  const AsyncPageRead* bad = got.Find(ids.back());
  ASSERT_NE(bad, nullptr);
  EXPECT_FALSE(bad->status.ok());
}

TEST(AsyncStorageTest, EmptyBatchNeverInvokesCallback) {
  MemoryStorageManager storage;
  storage.ReadPagesAsync(nullptr, 0, [](AsyncPageRead) {
    FAIL() << "callback for an empty batch";
  });
}

TEST(AsyncStorageTest, SetIoBackendRejectsUnsupported) {
  // A memory store is pool-only.
  MemoryStorageManager storage;
  EXPECT_TRUE(storage.SupportsIoBackend(IoBackend::kThreadPool));
  EXPECT_FALSE(storage.SupportsIoBackend(IoBackend::kUring));
  const Status bad = storage.SetIoBackend(IoBackend::kUring);
  EXPECT_EQ(bad.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(storage.io_backend(), IoBackend::kThreadPool);  // unchanged
  KCPQ_EXPECT_OK(storage.SetIoBackend(IoBackend::kThreadPool));
  EXPECT_EQ(storage.io_backend(), IoBackend::kThreadPool);
  // The kcpq_io_backend_active gauge exports the enum value.
  EXPECT_EQ(static_cast<int>(IoBackend::kThreadPool), 1);
  EXPECT_EQ(static_cast<int>(IoBackend::kUring), 2);
}

TEST(AsyncStorageTest, DecoratorsComposeOnTheAsyncPath) {
  // The default async implementation routes through the virtual ReadPage,
  // so a checksum decorator verifies every async read.
  MemoryStorageManager base;
  ChecksummedStorageManager checksummed(&base);
  const std::vector<PageId> ids = FillPages(&checksummed, 6);
  Completions got;
  checksummed.ReadPagesAsync(ids.data(), ids.size(), got.Callback());
  got.WaitFor(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    const AsyncPageRead* r = got.Find(ids[i]);
    ASSERT_NE(r, nullptr);
    KCPQ_EXPECT_OK(r->status);
    EXPECT_EQ(r->page.data()[0], static_cast<uint8_t>('A' + i % 26));
  }
  EXPECT_EQ(checksummed.corruption_detections(), 0u);
}

// The satellite contract pinned by latency_storage.h: the sleep happens on
// the calling thread outside any lock, so two threads reading distinct
// pages pay ~1 latency of wall-clock, not 2.
TEST(LatencyOverlapTest, ConcurrentReadsOnDistinctPagesOverlap) {
  constexpr auto kLatency = std::chrono::milliseconds(100);
  MemoryStorageManager base;
  const std::vector<PageId> ids = FillPages(&base, 2);
  LatencyStorageManager slow(
      &base, std::chrono::duration_cast<std::chrono::microseconds>(kLatency));
  const auto read_one = [&](PageId id) {
    Page page;
    KCPQ_EXPECT_OK(slow.ReadPage(id, &page, nullptr));
  };
  const auto start = Clock::now();
  std::thread other([&] { read_one(ids[0]); });
  read_one(ids[1]);
  other.join();
  const auto elapsed = Clock::now() - start;
  // Each read sleeps >= 100 ms; serialized sleeps would take >= 200 ms.
  // 180 ms leaves generous scheduling slack while still distinguishing
  // the two regimes.
  EXPECT_GE(elapsed, kLatency);
  EXPECT_LT(elapsed, std::chrono::milliseconds(180))
      << "concurrent reads on distinct pages appear serialized";
}

TEST(LatencyOverlapTest, AsyncBatchOverlapsLatencyReads) {
  constexpr auto kLatency = std::chrono::milliseconds(25);
  MemoryStorageManager base;
  const std::vector<PageId> ids = FillPages(&base, 8);
  LatencyStorageManager slow(
      &base, std::chrono::duration_cast<std::chrono::microseconds>(kLatency));
  Completions got;
  const auto start = Clock::now();
  slow.ReadPagesAsync(ids.data(), ids.size(), got.Callback());
  got.WaitFor(ids.size());
  const auto elapsed = Clock::now() - start;
  for (const PageId id : ids) {
    const AsyncPageRead* r = got.Find(id);
    ASSERT_NE(r, nullptr);
    KCPQ_EXPECT_OK(r->status);
  }
  // 8 serialized reads would take >= 200 ms; the shared pool (>= 8
  // threads by default) overlaps them.
  EXPECT_LT(elapsed, std::chrono::milliseconds(150))
      << "async batch reads appear serialized";
}

// --- BufferManager speculative prefetch ----------------------------------

/// Polls until the buffer has `n` staged (ready, unclaimed) pages.
void WaitForStaged(const BufferManager& buffer, size_t n) {
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  while (buffer.prefetch_staged() < n && Clock::now() < deadline) {
    std::this_thread::yield();
  }
  ASSERT_GE(buffer.prefetch_staged(), n);
}

TEST(PrefetchBufferTest, ClaimedPrefetchStillCountsTheDemandMiss) {
  MemoryStorageManager storage;
  const std::vector<PageId> ids = FillPages(&storage, 4);
  BufferManager buffer(&storage, 8);
  EXPECT_EQ(buffer.Prefetch(ids.data(), ids.size()), ids.size());
  WaitForStaged(buffer, ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    Page page;
    KCPQ_ASSERT_OK(buffer.Read(ids[i], &page));
    EXPECT_EQ(page.data()[0], static_cast<uint8_t>('A' + i % 26));
  }
  const BufferStats stats = buffer.stats();
  // The paper's metric is untouched: a demand read served by a prefetched
  // page still counts as a miss, exactly as if the page came from disk.
  EXPECT_EQ(stats.misses, ids.size());
  EXPECT_EQ(stats.prefetch_issued, ids.size());
  EXPECT_EQ(stats.prefetch_hits, ids.size());
  EXPECT_EQ(stats.prefetch_wasted, 0u);
  EXPECT_EQ(buffer.prefetch_inflight(), 0u);
  EXPECT_EQ(buffer.prefetch_staged(), 0u);
  // Second read of each page is a plain hit from the frame table.
  for (const PageId id : ids) {
    Page page;
    KCPQ_ASSERT_OK(buffer.Read(id, &page));
  }
  EXPECT_EQ(buffer.stats().hits, ids.size());
}

TEST(PrefetchBufferTest, MissCountsIdenticalWithAndWithoutPrefetch) {
  MemoryStorageManager storage;
  const std::vector<PageId> ids = FillPages(&storage, 12);
  const auto read_all = [&](BufferManager* buffer) {
    for (const PageId id : ids) {
      Page page;
      KCPQ_ASSERT_OK(buffer->Read(id, &page));
    }
    for (const PageId id : ids) {  // second pass exercises hits/evictions
      Page page;
      KCPQ_ASSERT_OK(buffer->Read(id, &page));
    }
  };
  BufferManager plain(&storage, 4);
  read_all(&plain);
  BufferManager prefetching(&storage, 4);
  EXPECT_GT(prefetching.Prefetch(ids.data(), ids.size()), 0u);
  read_all(&prefetching);
  prefetching.DrainPrefetches();
  EXPECT_EQ(prefetching.stats().misses, plain.stats().misses);
  EXPECT_EQ(prefetching.stats().hits, plain.stats().hits);
  EXPECT_EQ(prefetching.stats().evictions, plain.stats().evictions);
}

TEST(PrefetchBufferTest, DuplicateAndResidentPrefetchesCoalesce) {
  MemoryStorageManager storage;
  const std::vector<PageId> ids = FillPages(&storage, 2);
  BufferManager buffer(&storage, 4);
  Page page;
  KCPQ_ASSERT_OK(buffer.Read(ids[0], &page));  // resident
  const PageId batch[] = {ids[0], ids[1], ids[1]};
  // Resident page skipped, duplicate coalesced: one speculative read.
  EXPECT_EQ(buffer.Prefetch(batch, 3), 1u);
  WaitForStaged(buffer, 1);
  EXPECT_EQ(buffer.Prefetch(&ids[1], 1), 0u);  // already staged
  buffer.DrainPrefetches();
  const BufferStats stats = buffer.stats();
  EXPECT_EQ(stats.prefetch_issued, 1u);
  EXPECT_EQ(stats.prefetch_wasted, 1u);
}

TEST(PrefetchBufferTest, DrainDiscardsStagedPagesAsWasted) {
  MemoryStorageManager storage;
  const std::vector<PageId> ids = FillPages(&storage, 5);
  BufferManager buffer(&storage, 8);
  EXPECT_EQ(buffer.Prefetch(ids.data(), ids.size()), ids.size());
  Page page;
  KCPQ_ASSERT_OK(buffer.Read(ids[0], &page));  // one claimed (hit)
  buffer.DrainPrefetches();
  const BufferStats stats = buffer.stats();
  EXPECT_EQ(stats.prefetch_issued, ids.size());
  EXPECT_EQ(stats.prefetch_hits, 1u);
  EXPECT_EQ(stats.prefetch_wasted, ids.size() - 1);
  // The accounting identity with nothing in flight after a drain.
  EXPECT_EQ(stats.prefetch_issued, stats.prefetch_hits + stats.prefetch_wasted);
  EXPECT_EQ(buffer.prefetch_inflight(), 0u);
  EXPECT_EQ(buffer.prefetch_staged(), 0u);
  EXPECT_GE(buffer.prefetch_inflight_peak(), 1u);
}

TEST(PrefetchBufferTest, CapacityBoundsSpeculation) {
  MemoryStorageManager storage;
  const std::vector<PageId> ids = FillPages(&storage, 10);
  BufferManager buffer(&storage, 16);
  buffer.set_prefetch_capacity(3);
  EXPECT_EQ(buffer.Prefetch(ids.data(), ids.size()), 3u);
  buffer.DrainPrefetches();
  EXPECT_EQ(buffer.stats().prefetch_issued, 3u);
}

TEST(PrefetchBufferTest, PrefetchChargesTheQueryContext) {
  MemoryStorageManager storage;
  const std::vector<PageId> ids = FillPages(&storage, 4);
  BufferManager buffer(&storage, 8);
  QueryContext ctx((QueryControl()));
  EXPECT_EQ(buffer.Prefetch(ids.data(), ids.size(), &ctx), ids.size());
  // Charged at issue time on the query thread, before any completion.
  EXPECT_GE(ctx.accountant().peak_total_bytes(),
            ids.size() * storage.page_size());
  buffer.DrainPrefetches();
}

TEST(PrefetchBufferTest, ZeroCapacityBufferStillClaimsPrefetches) {
  // A capacity-0 (pass-through) buffer has no frame table, but the
  // prefetch area still works: claims serve the demand read directly.
  MemoryStorageManager storage;
  const std::vector<PageId> ids = FillPages(&storage, 3);
  BufferManager buffer(&storage, 0);
  EXPECT_EQ(buffer.Prefetch(ids.data(), ids.size()), ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    Page page;
    KCPQ_ASSERT_OK(buffer.Read(ids[i], &page));
    EXPECT_EQ(page.data()[0], static_cast<uint8_t>('A' + i % 26));
  }
  const BufferStats stats = buffer.stats();
  EXPECT_EQ(stats.misses, ids.size());
  EXPECT_EQ(stats.prefetch_hits, ids.size());
}

TEST(PrefetchBufferTest, ConcurrentPrefetchAndReadsAreSafe) {
  // Hammer the same small page set from several threads while prefetches
  // stream in; under TSan this pins down the shard/area lock protocol.
  MemoryStorageManager storage;
  const std::vector<PageId> ids = FillPages(&storage, 16);
  BufferManager buffer(&storage, 8, /*shards=*/4,
                       [] { return MakeLruPolicy(); });
  std::vector<std::thread> workers;
  workers.reserve(4);
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      for (int round = 0; round < 200; ++round) {
        const size_t offset = (static_cast<size_t>(t) * 4 + round) % 8;
        buffer.Prefetch(ids.data() + offset, 4);
        for (size_t i = 0; i < ids.size(); ++i) {
          Page page;
          KCPQ_EXPECT_OK(buffer.Read(ids[(i + offset) % ids.size()], &page));
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  buffer.DrainPrefetches();
  const BufferStats stats = buffer.stats();
  EXPECT_EQ(stats.prefetch_issued, stats.prefetch_hits + stats.prefetch_wasted);
  EXPECT_EQ(buffer.prefetch_inflight(), 0u);
  EXPECT_EQ(buffer.prefetch_staged(), 0u);
}

}  // namespace
}  // namespace kcpq
