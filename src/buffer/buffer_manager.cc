#include "buffer/buffer_manager.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "obs/kcpq_metrics.h"
#include "obs/trace.h"

namespace kcpq {

namespace {

/// Monotone instance-id source: ids are never reused, so a query's
/// ResourceAccountant, which charges pages by (instance, page), can never
/// confuse a dead buffer with a new one at the same address.
std::atomic<uint64_t> next_instance_id{1};

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
    shard->index = i;
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

void BufferManager::CountHit(Shard& shard) {
  shard.hits.store(shard.hits.load(std::memory_order_relaxed) + 1,
                   std::memory_order_relaxed);
  KCPQ_METRIC_INC(obs::KcpqMetrics::Get().buffer_hits_total);
}

void BufferManager::CountMiss() {
  misses_.fetch_add(1, std::memory_order_relaxed);
  KCPQ_METRIC_INC(obs::KcpqMetrics::Get().buffer_misses_total);
}

void BufferManager::CountPrefetchIssued() {
  prefetch_issued_.fetch_add(1, std::memory_order_relaxed);
  KCPQ_METRIC_INC(obs::KcpqMetrics::Get().prefetch_issued_total);
}

void BufferManager::CountPrefetchHit() {
  prefetch_hits_.fetch_add(1, std::memory_order_relaxed);
  KCPQ_METRIC_INC(obs::KcpqMetrics::Get().prefetch_hits_total);
}

void BufferManager::CountPrefetchWasted() {
  prefetch_wasted_.fetch_add(1, std::memory_order_relaxed);
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

/// Where a capacity-0 node read lands before it is decoded: reused per
/// thread, since nothing suspends between the landing and the decode.
Page& NodeScratchPage() {
  thread_local Page page;
  return page;
}

}  // namespace

Status BufferManager::Read(PageId id, Page* out, QueryContext* ctx,
                           TryReadOutcome* outcome) {
  return Resolve(id, ReadTarget{out, nullptr}, ctx, Waker(), outcome);
}

Status BufferManager::TryRead(PageId id, Page* out, QueryContext* ctx,
                              const Waker& waker, TryReadOutcome* outcome) {
  return Resolve(id, ReadTarget{out, nullptr}, ctx, waker, outcome);
}

Status BufferManager::ReadNode(PageId id, Node* node, QueryContext* ctx,
                               const Waker& waker, TryReadOutcome* outcome,
                               bool axis_orders) {
  return Resolve(id, ReadTarget{nullptr, node, axis_orders}, ctx, waker,
                 outcome);
}

Status BufferManager::Resolve(PageId id, const ReadTarget& out,
                              QueryContext* ctx, const Waker& waker,
                              TryReadOutcome* outcome) {
  TryReadOutcome local;
  if (outcome == nullptr) outcome = &local;
  *outcome = TryReadOutcome{};
  if (ctx != nullptr) ctx->OnPageRead(instance_id_, id, storage_->page_size());
  AfterUnlock after;
  Status s;
  if (capacity_ == 0) {
    // Pass-through (the paper's zero-buffer setting): every serve is a
    // miss, and a node read decodes straight into the caller's node.
    Page* page = out.page != nullptr ? out.page : &NodeScratchPage();
    s = Fetch(id, page, ctx, waker, outcome, &after);
    if (s.ok() && !outcome->parked && out.node != nullptr) {
      s = DeserializeNode(*page, out.node);
    }
  } else {
    Shard& shard = ShardFor(id);
    const FrameSlot slot = SlotOf(id);
    std::lock_guard<std::mutex> lock(shard.mu);
    if (Frame* frame = FindResident(shard, slot)) {
      CountHit(shard);
      shard.policy->OnAccess(slot);
      outcome->hit = true;
      return Deliver(*frame, out);
    }
    // Miss: resolved under the shard lock, so concurrent readers of the
    // same page trigger exactly one storage read per residency.
    Page page;
    s = Fetch(id, &page, ctx, waker, outcome, &after);
    if (s.ok() && !outcome->parked) {
      s = InsertFetched(shard, slot, std::move(page), out);
    }
  }
  for (const Waker& w : after.waiters) w();
  if (after.issue) IssueDemandFetch(id);
  return s;
}

Status BufferManager::Fetch(PageId id, Page* page, QueryContext* ctx,
                            const Waker& waker, TryReadOutcome* outcome,
                            AfterUnlock* after) {
  // A miss always counts as a disk access (the paper's metric) whether the
  // page then arrives via a claimed prefetch or a storage read — the
  // speculative read replaced exactly that physical access.
  if (!waker) {
    CountMiss();
    if (prefetch_active_.load(std::memory_order_relaxed) &&
        ClaimPrefetched(id, page, ctx, &outcome->prefetch_claim)) {
      return Status::OK();
    }
    return TracedStorageRead(storage_, id, page, ctx);
  }
  // A page with no staging entry that storage can copy without waiting
  // (page-cache resident) is served inline, skipping the park/wake round
  // trip — under the shard lock when capacity > 0, exactly like a
  // blocking fetch (shard mu -> prefetch mu is the legal lock order).
  if (!AreaHolds(id) && storage_->TryReadPageNow(id, page)) {
    CountMiss();
    return Status::OK();
  }
  // Otherwise consult the staging area: claim, park, or start a fetch.
  // Concurrent parkers coalesce on one fetch, but only the first re-runner
  // claims it. At capacity 0 later ones find no entry and read again (one
  // miss per read, like blocking pass-through reads); otherwise they find
  // the page resident and hit — matching the blocking path, where threads
  // queued on the shard mutex during the fetch hit the fresh frame.
  bool served = false;
  Status result;
  {
    std::lock_guard<std::mutex> lock(prefetch_.mu);
    auto it = prefetch_.entries.find(id);
    if (it == prefetch_.entries.end()) {
      StartDemandFetchLocked(id, waker);
      after->issue = true;
    } else if (!it->second.ready) {
      it->second.waiters.push_back(waker);
    } else {
      served = true;
      result = it->second.status;
      if (result.ok()) {
        outcome->prefetch_claim = !it->second.demand;
        ReleaseIssuerLocked(it->second, ctx);
        *page = std::move(it->second.page);
      }
      after->waiters = std::move(it->second.waiters);
      prefetch_.entries.erase(it);
      prefetch_.PublishSizeLocked();
    }
  }
  if (!served) {
    outcome->parked = true;
    return Status::OK();
  }
  // The claim is this query's demand miss. A failed fetch still counts,
  // like a failed synchronous read on the blocking path.
  CountMiss();
  if (outcome->prefetch_claim) CountPrefetchHit();
  return result;
}

BufferManager::Frame* BufferManager::FindResident(Shard& shard,
                                                  FrameSlot slot) const {
  if (slot >= shard.table.size() || !shard.table[slot].resident) {
    return nullptr;
  }
  return &shard.table[slot];
}

BufferManager::Frame& BufferManager::Place(Shard& shard, FrameSlot slot,
                                           Page page, bool dirty) {
  if (slot >= shard.table.size()) shard.table.resize(slot + 1);
  Frame& frame = shard.table[slot];
  frame.resident = true;
  frame.dirty = dirty;
  frame.decoded = false;
  frame.page = std::move(page);
  ++shard.resident;
  return frame;
}

Status BufferManager::Deliver(Frame& frame, const ReadTarget& out) {
  if (out.page != nullptr) {
    *out.page = frame.page;
    return Status::OK();
  }
  if (!frame.decoded) {
    KCPQ_RETURN_IF_ERROR(DeserializeNode(frame.page, &frame.node));
    frame.decoded = true;
  }
  if (!out.axis_orders) {
    // A read that never sweeps (insertion, range and kNN searches) neither
    // builds the orders nor copies them.
    out.node->level = frame.node.level;
    out.node->entries = frame.node.entries;
    out.node->axis_order.clear();
    return Status::OK();
  }
  if (!frame.node.HasAxisOrders()) BuildAxisOrders(&frame.node);
  *out.node = frame.node;
  return Status::OK();
}

Status BufferManager::InsertFetched(Shard& shard, FrameSlot slot, Page page,
                                    const ReadTarget& out) {
  KCPQ_RETURN_IF_ERROR(EvictIfFull(shard));
  shard.policy->OnInsert(slot);
  return Deliver(Place(shard, slot, std::move(page), /*dirty=*/false), out);
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
  const FrameSlot slot = SlotOf(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  if (Frame* frame = FindResident(shard, slot)) {
    shard.policy->OnAccess(slot);
    frame->page = page;
    frame->dirty = true;
    frame->decoded = false;
    return Status::OK();
  }
  KCPQ_RETURN_IF_ERROR(EvictIfFull(shard));
  shard.policy->OnInsert(slot);
  Place(shard, slot, page, /*dirty=*/true);
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
      if (FindResident(shard, SlotOf(id)) != nullptr) continue;
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
    const FrameSlot slot = SlotOf(id);
    if (Frame* frame = FindResident(shard, slot)) {
      shard.policy->OnErase(slot);
      *frame = Frame{};
      --shard.resident;
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
  if (shard.resident < shard.capacity || shard.resident == 0) {
    return Status::OK();
  }
  const FrameSlot victim = shard.policy->ChooseVictim();
  Frame& frame = *FindResident(shard, victim);
  evictions_.fetch_add(1, std::memory_order_relaxed);
  KCPQ_METRIC_INC(obs::KcpqMetrics::Get().buffer_evictions_total);
  if (frame.dirty) {
    writebacks_.fetch_add(1, std::memory_order_relaxed);
    KCPQ_METRIC_INC(obs::KcpqMetrics::Get().buffer_writebacks_total);
    KCPQ_RETURN_IF_ERROR(storage_->WritePage(
        victim * shards_.size() + shard.index, frame.page));
  }
  frame = Frame{};
  --shard.resident;
  return Status::OK();
}

Status BufferManager::Flush() {
  const size_t n = shards_.size();
  for (size_t s = 0; s < n; ++s) {
    Shard& shard = *shards_[s];
    std::lock_guard<std::mutex> lock(shard.mu);
    for (size_t slot = 0; slot < shard.table.size(); ++slot) {
      Frame& frame = shard.table[slot];
      if (!frame.resident || !frame.dirty) continue;
      writebacks_.fetch_add(1, std::memory_order_relaxed);
      KCPQ_METRIC_INC(obs::KcpqMetrics::Get().buffer_writebacks_total);
      KCPQ_RETURN_IF_ERROR(storage_->WritePage(slot * n + s, frame.page));
      frame.dirty = false;
    }
  }
  return Status::OK();
}

Status BufferManager::FlushAndClear() {
  KCPQ_RETURN_IF_ERROR(Flush());
  const size_t n = shards_.size();
  for (size_t s = 0; s < n; ++s) {
    Shard& shard = *shards_[s];
    std::lock_guard<std::mutex> lock(shard.mu);
    for (size_t slot = 0; slot < shard.table.size(); ++slot) {
      if (shard.table[slot].resident) shard.policy->OnErase(slot);
    }
    std::vector<Frame>().swap(shard.table);
    shard.resident = 0;
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
    total += shard->resident;
  }
  return total;
}

BufferStats BufferManager::AggregateStats() const {
  BufferStats s;
  for (const auto& shard : shards_) {
    s.hits += shard->hits.load(std::memory_order_relaxed);
  }
  s.misses = misses_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.writebacks = writebacks_.load(std::memory_order_relaxed);
  s.prefetch_issued = prefetch_issued_.load(std::memory_order_relaxed);
  s.prefetch_hits = prefetch_hits_.load(std::memory_order_relaxed);
  s.prefetch_wasted = prefetch_wasted_.load(std::memory_order_relaxed);
  return s;
}

BufferStats BufferManager::stats() const {
  // The baseline is read first: it is a past snapshot of counters that
  // only grow, so the subtraction cannot wrap.
  BufferStats base;
  {
    std::lock_guard<std::mutex> lock(reset_mu_);
    base = reset_baseline_;
  }
  BufferStats s = AggregateStats();
  s.hits -= base.hits;
  s.misses -= base.misses;
  s.evictions -= base.evictions;
  s.writebacks -= base.writebacks;
  s.prefetch_issued -= base.prefetch_issued;
  s.prefetch_hits -= base.prefetch_hits;
  s.prefetch_wasted -= base.prefetch_wasted;
  return s;
}

void BufferManager::ResetStats() {
  std::lock_guard<std::mutex> lock(reset_mu_);
  reset_baseline_ = AggregateStats();
  prefetch_inflight_peak_.store(0, std::memory_order_relaxed);
}

}  // namespace kcpq
