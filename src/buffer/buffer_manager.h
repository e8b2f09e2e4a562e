// Page buffer (cache) between the R-tree and its storage manager.
//
// Cost accounting, matching the paper: a query's "disk accesses" are the
// ReadPage calls this buffer issues to the storage manager — i.e. its
// misses. With capacity 0 the buffer is a pass-through and every node
// access costs one disk access (the paper's "zero buffer" setting). The
// paper dedicates B/2 pages to each of the two R-trees (Section 4.3.3):
// here each tree simply owns a BufferManager of capacity B/2 over its own
// storage manager.
//
// Semantics are copy-in/copy-out: Read copies the cached page into the
// caller's buffer, so callers never hold pointers into frames and no pin
// protocol is needed (a 1 KiB copy per node access is far below the cost
// of deserializing the node). Writes are write-back: dirty frames reach
// storage on eviction or Flush.
//
// Locking protocol (since the parallel batch executor, src/exec/): the
// frame table is split into `shards` independent shards, each owning a
// mutex, a frames map, a replacement policy, and a slice of the capacity.
// A page id maps to the shard `id % shards`; the shard's mutex is held for
// the whole Read / Write / Free operation on that page, including the
// storage call on a miss, so a page is fetched at most once per residency
// and the policy sees a consistent history. Operations on pages of
// different shards never contend. Flush / FlushAndClear / resident() lock
// one shard at a time; they are safe to run concurrently with readers but
// see no global atomic snapshot (don't race them against writers and
// expect exact counts). The default `shards = 1` reproduces the classic
// single-threaded buffer byte for byte — same policy decisions, same
// eviction order.
//
// Speculative prefetch (docs/io.md): Prefetch() stages pages read through
// the storage manager's async path (ReadPagesAsync) in a side table — the
// prefetch area — that is deliberately *not* the frame table. A demand
// miss first consults the area: a staged page is claimed (moved into the
// frame table through the normal eviction path), an in-flight one is
// awaited, anything else falls back to the synchronous read. Because the
// frame table and replacement policy only ever see the demand-driven
// access history, hits/misses/evictions — the paper's cost metric — are
// bit-identical with prefetch on or off; speculation can only convert
// wait time into overlap. Duplicate prefetches of a page coalesce on the
// area; a bounded capacity caps staged+in-flight pages. Failed
// speculative reads are discarded (counted wasted) and the demand read
// retries through the full decorator stack, so faults behave exactly as
// they do without prefetch.
//
// Non-blocking reads (docs/io.md, "completion-driven scheduling"):
// TryRead is the resumable engines' Read. A resident page is served
// exactly like a blocking hit; a non-resident one either claims a staged
// (speculative or demand) copy — counted exactly like a blocking miss,
// inserted through the same eviction path so the replacement policy sees
// the same history — or, when no staging entry exists and the storage
// can copy the page without waiting (StorageManager::TryReadPageNow: a
// page-cache hit on a bare file store), is read inline, again counted and
// inserted exactly like a blocking miss; otherwise it *parks*: the
// caller's waker is registered on the
// page's in-flight entry (starting a demand fetch through ReadPagesAsync
// if none exists) and TryRead returns immediately with outcome.parked.
// When the fetch completes, the buffer fires the waker and the caller
// re-runs TryRead; the first re-runner claims the page and counts the
// miss, later ones find it resident and count hits — the same
// one-miss-per-residency (or, at capacity 0, one-miss-per-read) invariant
// the blocking path's fetch-under-shard-lock provides. Demand entries
// share the prefetch area's machinery but are exempt from its capacity
// cap and invisible to the speculation counters (never issued / hit /
// wasted). Demand fetches carry no QueryContext (async completions are
// context-free by the storage contract), so deadline-aware retry
// abandonment doesn't apply to them; a failed fetch is delivered to the
// first claimer as its read's error, and later waiters re-issue fresh.
//
// Statistics: the global counters (stats()) are atomics, exact under any
// concurrency. Per-query cost accounting comes from the outcome each Read /
// TryRead reports to its caller (TryReadOutcome), so it is exact however
// many queries share a thread. Every hit/miss is also recorded in a
// thread-local table keyed by buffer instance; ThreadStats() returns the
// calling thread's view (for callers that own their thread, such as the
// ε-join and multiway joins). The per-thread tables register themselves
// in a global registry and fold their counts into a retired pool when
// their thread exits, so AggregateStats() — the sum over all threads,
// living and dead — never undercounts a batch whose workers finished
// before collection.
// Every hit/miss/eviction also feeds the process-wide metrics registry
// (obs/kcpq_metrics.h: kcpq_buffer_*_total).

#ifndef KCPQ_BUFFER_BUFFER_MANAGER_H_
#define KCPQ_BUFFER_BUFFER_MANAGER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "buffer/replacement_policy.h"
#include "common/query_context.h"
#include "common/resumable.h"
#include "common/status.h"
#include "storage/storage_manager.h"

namespace kcpq {

namespace internal {
struct BufferTlsCounters;  // buffer_manager.cc
}  // namespace internal

/// Hit/miss accounting snapshot. `misses` equals the *demand* physical
/// reads this buffer caused — the paper's disk-access metric, unchanged by
/// speculation; `logical_reads = hits + misses`. The prefetch counters
/// account the speculative side channel separately and obey the identity
/// `prefetch_issued == prefetch_hits + prefetch_wasted + pending`, where
/// pending (in-flight + staged-unclaimed) is zero after DrainPrefetches.
struct BufferStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t writebacks = 0;
  uint64_t prefetch_issued = 0;
  uint64_t prefetch_hits = 0;
  uint64_t prefetch_wasted = 0;

  uint64_t logical_reads() const { return hits + misses; }
  void Reset() { *this = BufferStats{}; }
};

class BufferManager {
 public:
  /// `storage` must outlive the buffer manager. `capacity_pages` may be 0
  /// (pass-through). `policy` defaults to LRU, the paper's setting. This
  /// constructor builds a single-shard buffer: correct under concurrency,
  /// but every access serializes on one mutex.
  BufferManager(StorageManager* storage, size_t capacity_pages,
                std::unique_ptr<ReplacementPolicy> policy = MakeLruPolicy());

  /// Sharded constructor for concurrent workloads: `shards` (>= 1)
  /// independent shard locks; `policy_factory` is called once per shard
  /// (each shard replaces pages independently). Capacity is split across
  /// shards as evenly as possible.
  BufferManager(StorageManager* storage, size_t capacity_pages, size_t shards,
                const std::function<std::unique_ptr<ReplacementPolicy>()>&
                    policy_factory);

  ~BufferManager();

  BufferManager(const BufferManager&) = delete;
  BufferManager& operator=(const BufferManager&) = delete;

  /// How a read was resolved. Exactly one of three shapes: parked (no
  /// page, no counting yet; TryRead only), served hit (`hit`), or served
  /// miss (`!parked && !hit`; `prefetch_claim` marks a miss satisfied by a
  /// claimed *speculative* page). The engines tally their per-query disk
  /// accesses from these outcomes.
  struct TryReadOutcome {
    bool parked = false;
    bool hit = false;
    bool prefetch_claim = false;
  };

  /// Reads page `id` into `*out`, from cache if resident. A miss waits
  /// for the page: an in-flight staged copy is awaited, anything else is
  /// read synchronously. `outcome`, when given, reports how the read was
  /// resolved (never parked).
  ///
  /// When `ctx` is given, the page is charged to the query's
  /// ResourceAccountant — once per distinct page, on hits and misses alike,
  /// so a query's accounted footprint is the set of pages it touched,
  /// independent of thread count and buffer state — and forwarded to the
  /// storage stack on a miss (deadline-aware retries).
  Status Read(PageId id, Page* out, QueryContext* ctx = nullptr,
              TryReadOutcome* outcome = nullptr);

  /// Non-blocking Read for resumable engines ("park on miss, wake on
  /// completion" — see the file comment). Serves the page when it is
  /// resident, staged, or readable from storage without waiting;
  /// otherwise registers `waker` with the page's
  /// in-flight fetch (starting a demand fetch if none exists), sets
  /// outcome->parked and returns OK without counting anything. The waker
  /// may fire from an I/O thread, possibly before TryRead returns; fire
  /// semantics are at-least-once per park (a woken caller must re-run
  /// TryRead, which may park again). Counting matches Read exactly: one
  /// miss per serve at capacity 0, one miss per residency-establishment
  /// (plus hits) otherwise, and the replacement policy sees the identical
  /// OnInsert/OnAccess history.
  ///
  /// An empty `waker` means the caller cannot park: the call is exactly
  /// Read(id, out, ctx, outcome). This is how an engine's state machine
  /// runs inline on its caller's thread.
  Status TryRead(PageId id, Page* out, QueryContext* ctx, const Waker& waker,
                 TryReadOutcome* outcome);

  /// Speculatively reads `count` pages through the storage manager's async
  /// path into the prefetch area. Pages already resident, already staged,
  /// or beyond the area's capacity are skipped (duplicates coalesce);
  /// returns how many reads were actually issued. When `ctx` is given,
  /// each issued page is charged to the query's ResourceAccountant at
  /// issue time (speculation is not free under governance; the charge
  /// dedups with a later demand read of the same page). Never blocks on
  /// I/O and never fails: a failed speculative read is absorbed as waste.
  size_t Prefetch(const PageId* ids, size_t count, QueryContext* ctx = nullptr);

  /// Settles all speculation: waits for in-flight prefetch reads to
  /// complete, then discards staged-but-unclaimed pages (counting them
  /// wasted). Afterwards `prefetch_issued == prefetch_hits +
  /// prefetch_wasted` exactly. Called by the destructor; call it before
  /// reading final stats.
  void DrainPrefetches();

  /// Caps staged + in-flight prefetched pages (default 128). Issue
  /// requests beyond the cap are dropped, not queued.
  void set_prefetch_capacity(size_t pages);

  /// In-flight speculative reads (issued, not yet completed).
  size_t prefetch_inflight() const;
  /// Completed speculative reads staged but not yet claimed or discarded.
  size_t prefetch_staged() const;
  /// High-water mark of prefetch_inflight over the buffer's lifetime.
  uint64_t prefetch_inflight_peak() const;

  /// Writes `page` to `id` (cached, write-back). Pass-through writes
  /// directly when capacity is 0.
  Status Write(PageId id, const Page& page);

  /// Allocates a fresh page in the underlying storage.
  Result<PageId> Allocate();

  /// Drops any cached copy of `id` (discarding dirty data — the page is
  /// gone) and frees it in storage.
  Status Free(PageId id);

  /// Writes back all dirty frames; frames stay resident.
  Status Flush();

  /// Flush, then drop all frames (cold cache; used between experiment runs).
  Status FlushAndClear();

  size_t capacity() const { return capacity_; }
  size_t shards() const { return shards_.size(); }
  size_t resident() const;

  /// Snapshot of the global counters (by value: they are atomics).
  BufferStats stats() const;
  /// The calling thread's contribution to the counters — the basis for
  /// per-query disk-access deltas when queries run concurrently. Threads
  /// that never touched this buffer see all-zero stats.
  BufferStats ThreadStats() const;
  /// Sum of every thread's contribution to this buffer, including threads
  /// that have already exited (their counts are retired into a global
  /// pool on thread exit). Unlike stats(), this is unaffected by
  /// ResetStats(), so batch-level hit ratios computed from before/after
  /// AggregateStats() deltas are exact even when worker threads are gone
  /// by collection time.
  BufferStats AggregateStats() const;
  void ResetStats();

  StorageManager* storage() const { return storage_; }

 private:
  struct Frame {
    Page page;
    bool dirty = false;
  };

  struct Shard {
    std::mutex mu;
    std::unordered_map<PageId, Frame> frames;
    std::unique_ptr<ReplacementPolicy> policy;
    size_t capacity = 0;
  };

  /// One staged read's life in the prefetch area: in-flight (!ready),
  /// then either staged (ready, awaiting a claim) or gone (claimed /
  /// wasted / failed). `abandoned` marks an in-flight entry whose result
  /// is unwanted (Free / FlushAndClear); its completion is discarded as
  /// waste. `demand` marks a fetch started by a parked TryRead rather
  /// than speculation: exempt from the area capacity, excluded from the
  /// prefetch counters, and allowed to complete with an error (`status`),
  /// which the first claimer takes as its read's result. `issuer` is the
  /// query charged for a speculative page at issue time; a claim by a
  /// different query releases that charge (ResourceAccountant). `waiters`
  /// are parked resumable tasks, fired (outside the area lock) when the
  /// entry becomes ready or is erased.
  struct PrefetchEntry {
    bool ready = false;
    bool abandoned = false;
    bool demand = false;
    Status status;
    Page page;
    QueryContext* issuer = nullptr;
    std::vector<Waker> waiters;
  };

  /// Staging table for speculative reads, separate from the frame table so
  /// the replacement policy never observes speculation. Lock order: a
  /// shard mutex may be held when taking `mu`; never the reverse.
  /// Completion callbacks take only `mu`, so a claimer may wait on `cv`
  /// while holding its shard lock without deadlock.
  struct PrefetchArea {
    mutable std::mutex mu;
    std::condition_variable cv;
    std::unordered_map<PageId, PrefetchEntry> entries;
    size_t inflight = 0;
    size_t capacity = 128;
    /// entries.size(), republished under `mu` after every change, so the
    /// page-cache fast path can see an empty area without taking `mu`.
    std::atomic<size_t> size{0};

    void PublishSizeLocked() {
      size.store(entries.size(), std::memory_order_relaxed);
    }
  };

  Shard& ShardFor(PageId id) { return *shards_[id % shards_.size()]; }

  /// Ensures space in `shard` for one more frame, evicting (with
  /// write-back) if full. Caller holds shard.mu.
  Status EvictIfFull(Shard& shard);

  /// Makes a fetched page resident: evicts if full, tells the policy, and
  /// copies the page out. Caller holds shard.mu and has counted the miss.
  Status InsertFetched(Shard& shard, PageId id, Page page, Page* out);

  /// True when the staging area has an entry for `id`; never takes the
  /// area lock while the area is empty.
  bool AreaHolds(PageId id) const;

  /// Demand-miss hook: claims `id` from the prefetch area (waiting out an
  /// in-flight read) into `*out`. False when the page is not there or its
  /// speculative read failed — caller falls back to the synchronous path.
  /// `*speculative` tells whether a successful claim took a prefetched
  /// page (rather than a parked reader's demand fetch).
  bool ClaimPrefetched(PageId id, Page* out, QueryContext* ctx,
                       bool* speculative);

  /// Async-read completion (runs on I/O threads; takes only prefetch mu).
  void OnPrefetchComplete(AsyncPageRead done);

  /// Creates an in-flight demand entry for `id` with `waker` parked on
  /// it. Caller holds prefetch mu and has verified no entry exists; the
  /// fetch itself must be issued after *all* locks are released
  /// (IssueDemandFetch) because a kSync-backend completion runs inline
  /// and takes prefetch mu.
  void StartDemandFetchLocked(PageId id, const Waker& waker);
  void IssueDemandFetch(PageId id);

  /// Satellite accounting: a staged page claimed by a different query
  /// than the one that paid for it at issue time credits the issuer back.
  void ReleaseIssuerLocked(const PrefetchEntry& entry, QueryContext* claimer);

  void CountPrefetchIssued();
  void CountPrefetchHit();
  void CountPrefetchWasted();

  /// This thread's stats slot for this buffer instance.
  internal::BufferTlsCounters& Tls() const;

  void CountHit();
  void CountMiss();

  StorageManager* storage_;
  size_t capacity_;
  /// unique_ptr: Shard holds a mutex and cannot move.
  std::vector<std::unique_ptr<Shard>> shards_;

  /// Distinguishes buffer instances in the thread-local stats table (ids
  /// are never reused, unlike addresses).
  const uint64_t instance_id_;

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> writebacks_{0};

  PrefetchArea prefetch_;
  /// Set once by the first Prefetch call; the demand-read hot path checks
  /// it (one relaxed load) before touching the area, so a prefetch-free
  /// run never takes the area lock and stays bit-identical in behavior
  /// *and* cost to a build without this feature.
  std::atomic<bool> prefetch_active_{false};
  std::atomic<uint64_t> prefetch_issued_{0};
  std::atomic<uint64_t> prefetch_hits_{0};
  std::atomic<uint64_t> prefetch_wasted_{0};
  std::atomic<uint64_t> prefetch_inflight_peak_{0};
};

}  // namespace kcpq

#endif  // KCPQ_BUFFER_BUFFER_MANAGER_H_
