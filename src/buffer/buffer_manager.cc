#include "buffer/buffer_manager.h"

#include <algorithm>
#include <chrono>
#include <set>
#include <utility>

#include "obs/kcpq_metrics.h"
#include "obs/trace.h"

namespace kcpq {

namespace internal {

/// One thread's counters for one buffer instance. Atomics because an
/// aggregating thread (AggregateStats) reads them while the owner thread
/// increments; all accesses are relaxed — per-counter exactness is all
/// the consumers need, not cross-counter snapshots.
struct BufferTlsCounters {
  explicit BufferTlsCounters(uint64_t id) : instance_id(id) {}
  const uint64_t instance_id;
  std::atomic<uint64_t> hits{0};
  std::atomic<uint64_t> misses{0};
  std::atomic<uint64_t> evictions{0};
  std::atomic<uint64_t> writebacks{0};
  std::atomic<uint64_t> prefetch_issued{0};
  std::atomic<uint64_t> prefetch_hits{0};
  std::atomic<uint64_t> prefetch_wasted{0};

  BufferStats Load() const {
    BufferStats s;
    s.hits = hits.load(std::memory_order_relaxed);
    s.misses = misses.load(std::memory_order_relaxed);
    s.evictions = evictions.load(std::memory_order_relaxed);
    s.writebacks = writebacks.load(std::memory_order_relaxed);
    s.prefetch_issued = prefetch_issued.load(std::memory_order_relaxed);
    s.prefetch_hits = prefetch_hits.load(std::memory_order_relaxed);
    s.prefetch_wasted = prefetch_wasted.load(std::memory_order_relaxed);
    return s;
  }
};

}  // namespace internal

namespace {

using internal::BufferTlsCounters;

/// Monotone instance-id source: ids are never reused, so a thread-local
/// table keyed by id can never confuse a dead buffer with a new one that
/// happens to land at the same address.
std::atomic<uint64_t> next_instance_id{1};

void FoldInto(BufferStats& into, const BufferStats& s) {
  into.hits += s.hits;
  into.misses += s.misses;
  into.evictions += s.evictions;
  into.writebacks += s.writebacks;
  into.prefetch_issued += s.prefetch_issued;
  into.prefetch_hits += s.prefetch_hits;
  into.prefetch_wasted += s.prefetch_wasted;
}

struct ThreadTable;

/// Global view of every thread's per-buffer tables, so AggregateStats can
/// sum contributions across threads — including threads that already
/// exited, whose counts fold into `retired` from the ThreadTable dtor.
/// Lock order: registry mu before any table mu.
struct ThreadStatsRegistry {
  std::mutex mu;
  std::set<ThreadTable*> live;
  std::unordered_map<uint64_t, BufferStats> retired;  // by instance id

  static ThreadStatsRegistry& Get() {
    // Leaked: thread_local destructors may run after static destructors.
    static ThreadStatsRegistry* instance = new ThreadStatsRegistry();
    return *instance;
  }
};

/// One thread's table of per-buffer counters. The entries vector is
/// append-only and guarded by `mu` so an aggregator can walk it; the
/// owner thread scans without the lock (only the owner mutates the
/// vector, and it appends under the lock). Counter slots are heap
/// allocations so their addresses survive vector growth. Entries are tiny
/// and never removed; a process would have to churn through millions of
/// BufferManager instances on one thread for the table to matter.
struct ThreadTable {
  std::mutex mu;
  std::vector<std::unique_ptr<BufferTlsCounters>> entries;

  ThreadTable() {
    ThreadStatsRegistry& reg = ThreadStatsRegistry::Get();
    std::lock_guard<std::mutex> lock(reg.mu);
    reg.live.insert(this);
  }

  ~ThreadTable() {
    // Retire this thread's counts so aggregate views keep seeing them.
    ThreadStatsRegistry& reg = ThreadStatsRegistry::Get();
    std::lock_guard<std::mutex> lock(reg.mu);
    reg.live.erase(this);
    for (const auto& e : entries) {
      FoldInto(reg.retired[e->instance_id], e->Load());
    }
  }

  BufferTlsCounters& For(uint64_t instance_id) {
    for (const auto& e : entries) {
      if (e->instance_id == instance_id) return *e;
    }
    std::lock_guard<std::mutex> lock(mu);
    entries.push_back(std::make_unique<BufferTlsCounters>(instance_id));
    return *entries.back();
  }
};

thread_local ThreadTable tls_table;

}  // namespace

BufferManager::BufferManager(StorageManager* storage, size_t capacity_pages,
                             std::unique_ptr<ReplacementPolicy> policy)
    : storage_(storage),
      capacity_(capacity_pages),
      instance_id_(next_instance_id.fetch_add(1, std::memory_order_relaxed)) {
  auto shard = std::make_unique<Shard>();
  shard->policy = std::move(policy);
  shard->capacity = capacity_pages;
  shards_.push_back(std::move(shard));
}

BufferManager::BufferManager(
    StorageManager* storage, size_t capacity_pages, size_t shards,
    const std::function<std::unique_ptr<ReplacementPolicy>()>& policy_factory)
    : storage_(storage),
      capacity_(capacity_pages),
      instance_id_(next_instance_id.fetch_add(1, std::memory_order_relaxed)) {
  const size_t n = std::max<size_t>(shards, 1);
  shards_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->policy = policy_factory();
    // Even split; the first capacity % n shards take the remainder.
    shard->capacity = capacity_pages / n + (i < capacity_pages % n ? 1 : 0);
    shards_.push_back(std::move(shard));
  }
}

BufferManager::~BufferManager() {
  // Settle speculation first: completion callbacks capture `this`, so the
  // buffer must not die while reads are in flight.
  if (prefetch_active_.load(std::memory_order_relaxed)) DrainPrefetches();
  // Best effort; callers that care about durability call Flush themselves.
  Flush();
}

internal::BufferTlsCounters& BufferManager::Tls() const {
  return tls_table.For(instance_id_);
}

void BufferManager::CountHit() {
  hits_.fetch_add(1, std::memory_order_relaxed);
  Tls().hits.fetch_add(1, std::memory_order_relaxed);
  KCPQ_METRIC_INC(obs::KcpqMetrics::Get().buffer_hits_total);
}

void BufferManager::CountMiss() {
  misses_.fetch_add(1, std::memory_order_relaxed);
  Tls().misses.fetch_add(1, std::memory_order_relaxed);
  KCPQ_METRIC_INC(obs::KcpqMetrics::Get().buffer_misses_total);
}

void BufferManager::CountPrefetchIssued() {
  prefetch_issued_.fetch_add(1, std::memory_order_relaxed);
  Tls().prefetch_issued.fetch_add(1, std::memory_order_relaxed);
  KCPQ_METRIC_INC(obs::KcpqMetrics::Get().prefetch_issued_total);
}

void BufferManager::CountPrefetchHit() {
  prefetch_hits_.fetch_add(1, std::memory_order_relaxed);
  Tls().prefetch_hits.fetch_add(1, std::memory_order_relaxed);
  KCPQ_METRIC_INC(obs::KcpqMetrics::Get().prefetch_hits_total);
}

void BufferManager::CountPrefetchWasted() {
  prefetch_wasted_.fetch_add(1, std::memory_order_relaxed);
  Tls().prefetch_wasted.fetch_add(1, std::memory_order_relaxed);
  KCPQ_METRIC_INC(obs::KcpqMetrics::Get().prefetch_wasted_total);
}

namespace {

/// Wraps a physical read in an io_wait trace span when the query asked
/// for tracing; otherwise forwards with zero added work.
Status TracedStorageRead(StorageManager* storage, PageId id, Page* out,
                         QueryContext* ctx) {
  obs::TraceBuffer* trace = ctx != nullptr ? ctx->trace() : nullptr;
  if (trace == nullptr) return storage->ReadPage(id, out, ctx);
  obs::TraceEvent e;
  e.kind = obs::TraceEventKind::kIoWait;
  e.a = id;
  e.ts_ns = trace->NowNs();
  Status s = storage->ReadPage(id, out, ctx);
  uint64_t end = trace->NowNs();
  e.dur_ns = end > e.ts_ns ? end - e.ts_ns : 1;
  trace->Record(e);
  // Only traced queries pay for read timing, so the histogram samples
  // traced traffic; untraced hot paths never touch the clock.
  KCPQ_METRIC_OBSERVE(obs::KcpqMetrics::Get().io_read_wait_seconds,
                      static_cast<double>(e.dur_ns) * 1e-9);
  return s;
}

}  // namespace

Status BufferManager::Read(PageId id, Page* out, QueryContext* ctx,
                           TryReadOutcome* outcome) {
  TryReadOutcome local;
  if (outcome == nullptr) outcome = &local;
  *outcome = TryReadOutcome{};
  if (ctx != nullptr) ctx->OnPageRead(instance_id_, id, storage_->page_size());
  // A miss always counts as a disk access (the paper's metric) whether the
  // page then arrives via a claimed prefetch or a synchronous read — the
  // speculative read replaced exactly that physical access.
  if (capacity_ == 0) {
    CountMiss();
    if (prefetch_active_.load(std::memory_order_relaxed) &&
        ClaimPrefetched(id, out, ctx, &outcome->prefetch_claim)) {
      return Status::OK();
    }
    return TracedStorageRead(storage_, id, out, ctx);
  }
  Shard& shard = ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.frames.find(id);
  if (it != shard.frames.end()) {
    CountHit();
    shard.policy->OnAccess(id);
    *out = it->second.page;
    outcome->hit = true;
    return Status::OK();
  }
  // Miss: fetch under the shard lock, so concurrent readers of the same
  // page trigger exactly one storage read per residency.
  CountMiss();
  Page page;
  if (!(prefetch_active_.load(std::memory_order_relaxed) &&
        ClaimPrefetched(id, &page, ctx, &outcome->prefetch_claim))) {
    KCPQ_RETURN_IF_ERROR(TracedStorageRead(storage_, id, &page, ctx));
  }
  return InsertFetched(shard, id, std::move(page), out);
}

Status BufferManager::InsertFetched(Shard& shard, PageId id, Page page,
                                    Page* out) {
  KCPQ_RETURN_IF_ERROR(EvictIfFull(shard));
  shard.policy->OnInsert(id);
  *out = page;
  shard.frames.emplace(id, Frame{std::move(page), /*dirty=*/false});
  return Status::OK();
}

bool BufferManager::AreaHolds(PageId id) const {
  if (prefetch_.size.load(std::memory_order_relaxed) == 0) return false;
  std::lock_guard<std::mutex> lock(prefetch_.mu);
  return prefetch_.entries.count(id) > 0;
}

Status BufferManager::Write(PageId id, const Page& page) {
  if (capacity_ == 0) {
    return storage_->WritePage(id, page);
  }
  Shard& shard = ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.frames.find(id);
  if (it != shard.frames.end()) {
    shard.policy->OnAccess(id);
    it->second.page = page;
    it->second.dirty = true;
    return Status::OK();
  }
  KCPQ_RETURN_IF_ERROR(EvictIfFull(shard));
  shard.policy->OnInsert(id);
  shard.frames.emplace(id, Frame{page, /*dirty=*/true});
  return Status::OK();
}

size_t BufferManager::Prefetch(const PageId* ids, size_t count,
                               QueryContext* ctx) {
  if (count == 0) return 0;
  prefetch_active_.store(true, std::memory_order_relaxed);
  // Residency checks come first, each under (and released with) its own
  // shard lock: an entry registered below must reach ReadPagesAsync with
  // no shard lock held, or a demand Read holding that lock could wait in
  // ClaimPrefetched for a read that is never issued.
  std::vector<PageId> wanted;
  wanted.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const PageId id = ids[i];
    if (capacity_ > 0) {
      Shard& shard = ShardFor(id);
      std::lock_guard<std::mutex> shard_lock(shard.mu);
      // Already resident: a speculative read would be pure waste. (The
      // page may still be evicted before the demand read arrives; that
      // just costs the synchronous read it would have cost anyway.)
      if (shard.frames.count(id) > 0) continue;
    }
    wanted.push_back(id);
  }
  std::vector<PageId> accepted;
  accepted.reserve(wanted.size());
  {
    std::lock_guard<std::mutex> lock(prefetch_.mu);
    for (const PageId id : wanted) {
      if (prefetch_.entries.size() >= prefetch_.capacity) break;
      // Duplicate of a staged or in-flight read: coalesce.
      auto [eit, inserted] = prefetch_.entries.emplace(id, PrefetchEntry{});
      if (!inserted) continue;
      // The issuer pays for the page below; a claim by a different query
      // credits it back (ReleaseIssuerLocked).
      eit->second.issuer = ctx;
      ++prefetch_.inflight;
      accepted.push_back(id);
    }
    prefetch_.PublishSizeLocked();
    const auto inflight = static_cast<uint64_t>(prefetch_.inflight);
    if (!accepted.empty()) {
      if (inflight > prefetch_inflight_peak_.load(std::memory_order_relaxed)) {
        prefetch_inflight_peak_.store(inflight, std::memory_order_relaxed);
      }
      KCPQ_METRIC_SET_MAX(obs::KcpqMetrics::Get().prefetch_inflight_peak,
                          inflight);
    }
  }
  for (const PageId id : accepted) {
    // Charge speculation to the query at issue time, on the query's own
    // thread (contexts are single-threaded; completions run on I/O
    // threads). The charge dedups with any later demand read of the page.
    if (ctx != nullptr) {
      ctx->OnPageRead(instance_id_, id, storage_->page_size());
    }
    CountPrefetchIssued();
  }
  if (!accepted.empty()) {
    storage_->ReadPagesAsync(
        accepted.data(), accepted.size(),
        [this](AsyncPageRead done) { OnPrefetchComplete(std::move(done)); });
  }
  return accepted.size();
}

void BufferManager::OnPrefetchComplete(AsyncPageRead done) {
  bool wasted = false;
  std::vector<Waker> waiters;
  {
    std::lock_guard<std::mutex> lock(prefetch_.mu);
    auto it = prefetch_.entries.find(done.id);
    if (it == prefetch_.entries.end()) return;  // unreachable by protocol
    PrefetchEntry& entry = it->second;
    const bool demand = entry.demand;
    if (entry.abandoned || (!done.status.ok() && !demand)) {
      // Unwanted or failed speculation: discard. A demand read of a
      // failed page retries synchronously through the full decorator
      // stack, so faults surface exactly as they do without prefetch.
      // (Abandoned demand fetches are dropped the same way; their woken
      // waiters re-issue fresh.)
      waiters = std::move(entry.waiters);
      prefetch_.entries.erase(it);
      prefetch_.PublishSizeLocked();
      wasted = !demand;
    } else {
      // A failed *demand* fetch stages its error instead: the first
      // claimer takes it as its read's result, matching the blocking
      // path's failed synchronous read.
      entry.ready = true;
      entry.status = done.status;
      entry.page = std::move(done.page);
      waiters = std::move(entry.waiters);
    }
  }
  if (wasted) CountPrefetchWasted();
  // Wake parked tasks outside the area lock (wakers take scheduler
  // locks), but before the inflight decrement below: the buffer is
  // guaranteed alive until a drain observes inflight == 0.
  for (const Waker& waker : waiters) waker();
  // Last touch, and deliberately under the lock: a drain (possibly the
  // destructor) woken by this decrement may free the buffer the moment it
  // observes inflight == 0, so nothing may run on this thread afterwards
  // except releasing the mutex.
  {
    std::lock_guard<std::mutex> lock(prefetch_.mu);
    --prefetch_.inflight;
    prefetch_.cv.notify_all();
  }
}

bool BufferManager::ClaimPrefetched(PageId id, Page* out, QueryContext* ctx,
                                    bool* speculative_claim) {
  obs::TraceBuffer* trace = ctx != nullptr ? ctx->trace() : nullptr;
  const uint64_t start_ns = trace != nullptr ? trace->NowNs() : 0;
  bool speculative = true;
  std::vector<Waker> waiters;
  {
    std::unique_lock<std::mutex> lock(prefetch_.mu);
    auto it = prefetch_.entries.find(id);
    if (it == prefetch_.entries.end()) return false;
    if (!it->second.ready) {
      // In flight: wait for the completion. The caller may hold its shard
      // lock; completions only ever take prefetch mu, so this cannot
      // deadlock — and the wait is never longer than the synchronous read
      // it replaces.
      prefetch_.cv.wait(lock, [&] {
        auto i = prefetch_.entries.find(id);
        return i == prefetch_.entries.end() || i->second.ready;
      });
      it = prefetch_.entries.find(id);
      if (it == prefetch_.entries.end()) return false;  // speculation failed
    }
    const bool failed = !it->second.status.ok();
    if (!failed) {
      speculative = !it->second.demand;
      ReleaseIssuerLocked(it->second, ctx);
      *out = std::move(it->second.page);
    }
    waiters = std::move(it->second.waiters);
    prefetch_.entries.erase(it);
    prefetch_.PublishSizeLocked();
    if (failed) {
      // A demand fetch that failed: drop it and retry synchronously, the
      // same recovery a failed speculative read gets. (Waiters fire
      // below, outside the lock, and re-issue fresh.)
      lock.unlock();
      for (const Waker& waker : waiters) waker();
      return false;
    }
  }
  // Parked tasks waiting on the entry re-run their TryRead: the claimer's
  // caller is about to make the page resident (or, at capacity 0, they
  // re-issue their own fetch).
  for (const Waker& waker : waiters) waker();
  *speculative_claim = speculative;
  if (!speculative) return true;
  CountPrefetchHit();
  if (trace != nullptr) {
    // The io_overlap span is the residual wait a demand read paid for an
    // overlapped page — the counterpart of the io_wait span a synchronous
    // read records.
    obs::TraceEvent e;
    e.kind = obs::TraceEventKind::kIoOverlap;
    e.a = id;
    e.ts_ns = start_ns;
    const uint64_t end_ns = trace->NowNs();
    e.dur_ns = end_ns > start_ns ? end_ns - start_ns : 1;
    trace->Record(e);
  }
  return true;
}

void BufferManager::ReleaseIssuerLocked(const PrefetchEntry& entry,
                                        QueryContext* claimer) {
  if (entry.issuer != nullptr && entry.issuer != claimer) {
    entry.issuer->accountant().ReleaseForeignBufferBytes(
        storage_->page_size());
  }
}

void BufferManager::StartDemandFetchLocked(PageId id, const Waker& waker) {
  // The drain/abandon machinery must now run even if Prefetch was never
  // called: demand entries live in the same area.
  prefetch_active_.store(true, std::memory_order_relaxed);
  auto [it, inserted] = prefetch_.entries.emplace(id, PrefetchEntry{});
  (void)inserted;  // caller verified no entry exists
  prefetch_.PublishSizeLocked();
  it->second.demand = true;
  it->second.waiters.push_back(waker);
  // Counts toward inflight (drains wait for it) but not toward the
  // speculation peak gauge: it is a demand read in flight, not
  // speculation.
  ++prefetch_.inflight;
}

void BufferManager::IssueDemandFetch(PageId id) {
  storage_->ReadPagesAsync(
      &id, 1,
      [this](AsyncPageRead done) { OnPrefetchComplete(std::move(done)); });
}

Status BufferManager::TryRead(PageId id, Page* out, QueryContext* ctx,
                              const Waker& waker, TryReadOutcome* outcome) {
  if (!waker) return Read(id, out, ctx, outcome);
  *outcome = TryReadOutcome{};
  if (ctx != nullptr) ctx->OnPageRead(instance_id_, id, storage_->page_size());
  bool issue = false;
  bool served = false;
  bool prefetch_claim = false;
  Status result;
  std::vector<Waker> waiters;
  if (capacity_ == 0) {
    // Pass-through: every serve is a miss (the paper's zero-buffer
    // setting). A page with no staging entry that storage can copy
    // without waiting (page-cache resident) is served inline, skipping
    // the park/wake round trip. Otherwise concurrent parkers coalesce on
    // one fetch, but only the first re-runner claims it — later ones
    // find no entry and read again, so each query still pays one miss
    // per read, exactly like blocking pass-through reads.
    if (!AreaHolds(id) && storage_->TryReadPageNow(id, out)) {
      CountMiss();
      return Status::OK();
    }
    {
      std::lock_guard<std::mutex> lock(prefetch_.mu);
      auto it = prefetch_.entries.find(id);
      if (it == prefetch_.entries.end()) {
        StartDemandFetchLocked(id, waker);
        issue = true;
      } else if (!it->second.ready) {
        it->second.waiters.push_back(waker);
      } else {
        served = true;
        result = it->second.status;
        if (result.ok()) {
          prefetch_claim = !it->second.demand;
          ReleaseIssuerLocked(it->second, ctx);
          *out = std::move(it->second.page);
        }
        waiters = std::move(it->second.waiters);
        prefetch_.entries.erase(it);
        prefetch_.PublishSizeLocked();
      }
    }
    for (const Waker& w : waiters) w();
    if (issue) IssueDemandFetch(id);
    if (!served) {
      outcome->parked = true;
      return Status::OK();
    }
    CountMiss();
    outcome->prefetch_claim = prefetch_claim;
    if (prefetch_claim) CountPrefetchHit();
    return result;
  }
  Shard& shard = ShardFor(id);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto fit = shard.frames.find(id);
    if (fit != shard.frames.end()) {
      CountHit();
      shard.policy->OnAccess(id);
      *out = fit->second.page;
      outcome->hit = true;
      return Status::OK();
    }
    // Non-resident and not staged: try the page-cache fast path under the
    // shard lock, exactly like a blocking fetch (shard mu -> prefetch mu
    // is the legal lock order for the staging check).
    if (!AreaHolds(id)) {
      Page page;
      if (storage_->TryReadPageNow(id, &page)) {
        CountMiss();
        return InsertFetched(shard, id, std::move(page), out);
      }
    }
    // Otherwise consult the staging area: claim, park, or start a fetch.
    bool claimed = false;
    Page page;
    {
      std::lock_guard<std::mutex> alock(prefetch_.mu);
      auto it = prefetch_.entries.find(id);
      if (it == prefetch_.entries.end()) {
        StartDemandFetchLocked(id, waker);
        issue = true;
      } else if (!it->second.ready) {
        it->second.waiters.push_back(waker);
      } else {
        served = true;
        result = it->second.status;
        if (result.ok()) {
          claimed = true;
          prefetch_claim = !it->second.demand;
          ReleaseIssuerLocked(it->second, ctx);
          page = std::move(it->second.page);
        }
        waiters = std::move(it->second.waiters);
        prefetch_.entries.erase(it);
        prefetch_.PublishSizeLocked();
      }
    }
    if (claimed) {
      // The claim is this query's demand miss: counted and inserted
      // through the same eviction path as a blocking miss, so the
      // replacement policy sees the identical history. Parked waiters on
      // the erased entry re-run and find the page resident (a hit) —
      // matching the blocking path, where threads queued on the shard
      // mutex during the fetch hit the fresh frame.
      CountMiss();
      outcome->prefetch_claim = prefetch_claim;
      if (prefetch_claim) CountPrefetchHit();
      result = InsertFetched(shard, id, std::move(page), out);
    } else if (served) {
      // Failed fetch: the access still counts, like a failed synchronous
      // read on the blocking path.
      CountMiss();
    }
  }
  for (const Waker& w : waiters) w();
  if (issue) IssueDemandFetch(id);
  if (!served) {
    outcome->parked = true;
    return Status::OK();
  }
  return result;
}

void BufferManager::DrainPrefetches() {
  size_t dropped = 0;
  std::vector<Waker> waiters;
  {
    std::unique_lock<std::mutex> lock(prefetch_.mu);
    prefetch_.cv.wait(lock, [&] { return prefetch_.inflight == 0; });
    for (auto& [id, entry] : prefetch_.entries) {
      // Only speculation counts as waste; dropped demand entries were
      // never issued/hit/wasted-accounted. Waiters (none in steady state
      // — completions fire them — but possible on teardown races) are
      // woken so no task sleeps forever.
      if (!entry.demand) ++dropped;
      for (Waker& waker : entry.waiters) waiters.push_back(std::move(waker));
    }
    prefetch_.entries.clear();
    prefetch_.PublishSizeLocked();
  }
  for (size_t i = 0; i < dropped; ++i) CountPrefetchWasted();
  for (const Waker& waker : waiters) waker();
}

void BufferManager::set_prefetch_capacity(size_t pages) {
  std::lock_guard<std::mutex> lock(prefetch_.mu);
  prefetch_.capacity = pages;
}

size_t BufferManager::prefetch_inflight() const {
  std::lock_guard<std::mutex> lock(prefetch_.mu);
  return prefetch_.inflight;
}

size_t BufferManager::prefetch_staged() const {
  std::lock_guard<std::mutex> lock(prefetch_.mu);
  return prefetch_.entries.size() - prefetch_.inflight;
}

uint64_t BufferManager::prefetch_inflight_peak() const {
  return prefetch_inflight_peak_.load(std::memory_order_relaxed);
}

Result<PageId> BufferManager::Allocate() { return storage_->Allocate(); }

Status BufferManager::Free(PageId id) {
  {
    Shard& shard = ShardFor(id);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.frames.find(id);
    if (it != shard.frames.end()) {
      shard.policy->OnErase(id);
      shard.frames.erase(it);
    }
  }
  if (prefetch_active_.load(std::memory_order_relaxed)) {
    // A freed page's speculative read must never be claimed: drop a staged
    // copy, abandon an in-flight one (its completion becomes waste and
    // wakes any parked tasks, which re-issue and surface the freed-page
    // error through the normal fetch path).
    bool wasted = false;
    std::vector<Waker> waiters;
    {
      std::lock_guard<std::mutex> lock(prefetch_.mu);
      auto it = prefetch_.entries.find(id);
      if (it != prefetch_.entries.end()) {
        if (it->second.ready) {
          wasted = !it->second.demand;
          waiters = std::move(it->second.waiters);
          prefetch_.entries.erase(it);
          prefetch_.PublishSizeLocked();
        } else {
          it->second.abandoned = true;
        }
      }
    }
    if (wasted) CountPrefetchWasted();
    for (const Waker& waker : waiters) waker();
  }
  return storage_->Free(id);
}

Status BufferManager::EvictIfFull(Shard& shard) {
  // The empty check matters when capacity_pages < shards leaves this
  // shard with capacity 0: there is no victim to choose, and the caller
  // is about to insert — such a shard holds exactly its most recent page.
  if (shard.frames.size() < shard.capacity || shard.frames.empty()) {
    return Status::OK();
  }
  const PageId victim = shard.policy->ChooseVictim();
  auto it = shard.frames.find(victim);
  evictions_.fetch_add(1, std::memory_order_relaxed);
  Tls().evictions.fetch_add(1, std::memory_order_relaxed);
  KCPQ_METRIC_INC(obs::KcpqMetrics::Get().buffer_evictions_total);
  if (it->second.dirty) {
    writebacks_.fetch_add(1, std::memory_order_relaxed);
    Tls().writebacks.fetch_add(1, std::memory_order_relaxed);
    KCPQ_METRIC_INC(obs::KcpqMetrics::Get().buffer_writebacks_total);
    KCPQ_RETURN_IF_ERROR(storage_->WritePage(victim, it->second.page));
  }
  shard.frames.erase(it);
  return Status::OK();
}

Status BufferManager::Flush() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (auto& [id, frame] : shard->frames) {
      if (!frame.dirty) continue;
      writebacks_.fetch_add(1, std::memory_order_relaxed);
      Tls().writebacks.fetch_add(1, std::memory_order_relaxed);
      KCPQ_METRIC_INC(obs::KcpqMetrics::Get().buffer_writebacks_total);
      KCPQ_RETURN_IF_ERROR(storage_->WritePage(id, frame.page));
      frame.dirty = false;
    }
  }
  return Status::OK();
}

Status BufferManager::FlushAndClear() {
  KCPQ_RETURN_IF_ERROR(Flush());
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (const auto& [id, frame] : shard->frames) shard->policy->OnErase(id);
    shard->frames.clear();
  }
  if (prefetch_active_.load(std::memory_order_relaxed)) {
    // Cold cache means cold speculation too: drop staged pages, abandon
    // in-flight ones (without waiting — their completions become waste).
    size_t dropped = 0;
    std::vector<Waker> waiters;
    {
      std::lock_guard<std::mutex> lock(prefetch_.mu);
      for (auto it = prefetch_.entries.begin();
           it != prefetch_.entries.end();) {
        if (it->second.ready) {
          if (!it->second.demand) ++dropped;
          for (Waker& waker : it->second.waiters) {
            waiters.push_back(std::move(waker));
          }
          it = prefetch_.entries.erase(it);
        } else {
          it->second.abandoned = true;
          ++it;
        }
      }
      prefetch_.PublishSizeLocked();
    }
    for (size_t i = 0; i < dropped; ++i) CountPrefetchWasted();
    for (const Waker& waker : waiters) waker();
  }
  return Status::OK();
}

size_t BufferManager::resident() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->frames.size();
  }
  return total;
}

BufferStats BufferManager::stats() const {
  BufferStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.writebacks = writebacks_.load(std::memory_order_relaxed);
  s.prefetch_issued = prefetch_issued_.load(std::memory_order_relaxed);
  s.prefetch_hits = prefetch_hits_.load(std::memory_order_relaxed);
  s.prefetch_wasted = prefetch_wasted_.load(std::memory_order_relaxed);
  return s;
}

BufferStats BufferManager::ThreadStats() const { return Tls().Load(); }

BufferStats BufferManager::AggregateStats() const {
  ThreadStatsRegistry& reg = ThreadStatsRegistry::Get();
  std::lock_guard<std::mutex> reg_lock(reg.mu);
  BufferStats total;
  if (auto it = reg.retired.find(instance_id_); it != reg.retired.end()) {
    total = it->second;
  }
  for (ThreadTable* table : reg.live) {
    std::lock_guard<std::mutex> table_lock(table->mu);
    for (const auto& e : table->entries) {
      if (e->instance_id != instance_id_) continue;
      FoldInto(total, e->Load());
    }
  }
  return total;
}

void BufferManager::ResetStats() {
  // Resets the global counters only. Thread-local views are monotone and
  // cannot be reset across threads; per-query accounting diffs them
  // (before/after), which is reset-agnostic.
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  evictions_.store(0, std::memory_order_relaxed);
  writebacks_.store(0, std::memory_order_relaxed);
  prefetch_issued_.store(0, std::memory_order_relaxed);
  prefetch_hits_.store(0, std::memory_order_relaxed);
  prefetch_wasted_.store(0, std::memory_order_relaxed);
  prefetch_inflight_peak_.store(0, std::memory_order_relaxed);
}

}  // namespace kcpq
