// Latency-injecting storage decorator: a simulated disk with real waits.
//
// The paper costs queries in disk accesses because on 2000-era hardware
// each page read dominated everything else; MemoryStorageManager keeps the
// *counts* honest but serves pages at RAM speed. This wrapper adds the
// missing dimension back: every ReadPage / WritePage sleeps for a
// configurable duration before delegating, so wall-clock behavior matches
// a device with that access time. The parallel batch executor's benches
// use it to show what thread-level concurrency actually buys on an
// I/O-bound workload — overlapping the waits — independent of how many
// CPU cores happen to be available.
//
// Heavy tails: real devices (and real replicated systems) do not serve
// every read at the mean — a small fraction stalls on GC, retries, or a
// sick replica. LatencyProfile models that with a `slow_probability` tail
// draw: each read independently takes `slow_latency` instead of
// `read_latency` with that probability, deterministic in (seed, page id,
// per-page access ordinal). bench/bench_hedged.cc uses it to show what
// hedged reads (storage/mirrored_storage.h) buy at the p99.
//
// Thread-safety: the decorator inherits the storage_manager.h contract —
// concurrent ReadPage / WritePage on *distinct* pages must be safe — and
// keeps it by holding (almost) no mutable state: latencies are const,
// counters are the base class's atomics, and the only addition is an
// atomic per-read ordinal feeding the tail draw. Critically, the sleep
// happens on the calling thread *outside any lock*, so N threads reading
// N distinct pages pay ~1 latency of wall-clock, not N: serializing the
// sleeps would silently turn every concurrency bench into a sequential
// one. async_storage_test.cc pins this down with a two-thread timing
// assertion, and the async read path (ReadPagesAsync over the shared
// I/O pool) relies on it to overlap speculative reads.
//
// The async batched path needs its own care: the default thread-pool
// backend runs one DoReadPage per pool task, so a batch wider than the
// I/O pool would *serialize* sleeps on the reused workers — a 16-page
// batch over 8 I/O threads would cost 2 latencies instead of 1, and the
// penalty would scale with pool occupancy rather than with the simulated
// device. DoReadPagesAsync below therefore stamps each page's ready time
// at submission and has each worker sleep_until that absolute deadline:
// every page becomes ready one (possibly tail) latency after submission
// regardless of which worker runs it or when it picks the task up,
// exactly like a real device serving independent in-flight requests
// (latency is per page, not per pool pass over the batch).

#ifndef KCPQ_STORAGE_LATENCY_STORAGE_H_
#define KCPQ_STORAGE_LATENCY_STORAGE_H_

#include <atomic>
#include <chrono>
#include <thread>

#include "common/random.h"
#include "storage/async_io.h"
#include "storage/storage_manager.h"

namespace kcpq {

/// Simulated device timing. Zero latencies disable the sleeps.
struct LatencyProfile {
  std::chrono::microseconds read_latency{0};
  std::chrono::microseconds write_latency{0};
  /// Heavy tail: with this probability a read takes `slow_latency`
  /// instead of `read_latency`. The draw is deterministic in (seed, page
  /// id, per-page access ordinal), so a fixed access sequence reproduces
  /// the same stalls; under concurrency the ordinal assignment follows
  /// the interleaving (timing varies, results never depend on it).
  double slow_probability = 0.0;
  std::chrono::microseconds slow_latency{0};
  uint64_t seed = 0;

  bool has_read_latency() const {
    return read_latency.count() > 0 ||
           (slow_probability > 0.0 && slow_latency.count() > 0);
  }
};

class LatencyStorageManager final : public StorageManager {
 public:
  /// `base` must outlive this wrapper.
  LatencyStorageManager(StorageManager* base, LatencyProfile profile)
      : StorageManager(base->page_size()), base_(base), profile_(profile) {}

  /// Constant-latency convenience (the pre-heavy-tail interface).
  LatencyStorageManager(StorageManager* base,
                        std::chrono::microseconds read_latency,
                        std::chrono::microseconds write_latency =
                            std::chrono::microseconds(0))
      : LatencyStorageManager(base, LatencyProfile{read_latency,
                                                   write_latency,
                                                   0.0,
                                                   std::chrono::microseconds(0),
                                                   0}) {}

  /// Reads that drew the slow tail so far.
  uint64_t slow_reads() const {
    return slow_reads_.load(std::memory_order_relaxed);
  }

  uint64_t PageCount() const override { return base_->PageCount(); }
  Result<PageId> Allocate() override { return base_->Allocate(); }
  Status Free(PageId id) override { return base_->Free(id); }

  Status WritePage(PageId id, const Page& page) override {
    if (profile_.write_latency.count() > 0) {
      std::this_thread::sleep_for(profile_.write_latency);
    }
    CountWrite();
    return base_->WritePage(id, page);
  }

  Status Sync() override { return base_->Sync(); }

 protected:
  Status DoReadPage(PageId id, Page* page, const QueryContext* ctx) override {
    const auto delay = ReadDelay(id);
    if (delay.count() > 0) std::this_thread::sleep_for(delay);
    CountRead();
    return base_->ReadPage(id, page, ctx);
  }

  /// Async batch with per-page (not per-pool-pass) latency: each page of
  /// the batch becomes ready one drawn latency after submission, even
  /// when the shared I/O pool is narrower than the batch (file comment).
  /// Without read latency the default per-page pool path is the same.
  void DoReadPagesAsync(const PageId* ids, size_t count,
                        const AsyncReadCallback& callback) override {
    if (!profile_.has_read_latency()) {
      StorageManager::DoReadPagesAsync(ids, count, callback);
      return;
    }
    const auto now = std::chrono::steady_clock::now();
    IoThreadPool& pool = IoThreadPool::Shared();
    for (size_t i = 0; i < count; ++i) {
      const PageId id = ids[i];
      const auto ready = now + ReadDelay(id);
      pool.Submit([this, id, ready, callback] {
        std::this_thread::sleep_until(ready);
        AsyncPageRead done;
        done.id = id;
        CountRead();
        done.status = base_->ReadPage(id, &done.page, nullptr);
        callback(std::move(done));
      });
    }
  }

 private:
  std::chrono::microseconds ReadDelay(PageId id) {
    if (profile_.slow_probability <= 0.0 ||
        profile_.slow_latency.count() <= 0) {
      return profile_.read_latency;
    }
    const uint64_t ordinal =
        read_ordinal_.fetch_add(1, std::memory_order_relaxed);
    SplitMix64 h(profile_.seed ^ (id * 0x9e3779b97f4a7c15ULL) ^
                 (ordinal + 1));
    const double u = static_cast<double>(h.Next() >> 11) * 0x1.0p-53;
    if (u < profile_.slow_probability) {
      slow_reads_.fetch_add(1, std::memory_order_relaxed);
      return profile_.slow_latency;
    }
    return profile_.read_latency;
  }

  StorageManager* base_;
  const LatencyProfile profile_;
  std::atomic<uint64_t> read_ordinal_{0};
  std::atomic<uint64_t> slow_reads_{0};
};

}  // namespace kcpq

#endif  // KCPQ_STORAGE_LATENCY_STORAGE_H_
