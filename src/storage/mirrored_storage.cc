#include "storage/mirrored_storage.h"

#include <cassert>
#include <cstring>
#include <sstream>
#include <utility>

#include "common/query_context.h"
#include "common/random.h"
#include "obs/kcpq_metrics.h"
#include "obs/trace.h"
#include "storage/async_io.h"

namespace kcpq {

namespace {

using Clock = std::chrono::steady_clock;

bool PagesEqual(const Page& a, const Page& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size()) == 0;
}

}  // namespace

const char* HedgeModeName(HedgeMode mode) {
  switch (mode) {
    case HedgeMode::kOff:
      return "off";
    case HedgeMode::kStatic:
      return "static";
  }
  return "unknown";
}

const char* BreakerStateName(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kOpen:
      return "open";
    case BreakerState::kHalfOpen:
      return "half-open";
  }
  return "unknown";
}

void ScrubReport::Merge(const ScrubReport& other) {
  pages_scanned += other.pages_scanned;
  pages_clean += other.pages_clean;
  pages_divergent += other.pages_divergent;
  pages_unreadable += other.pages_unreadable;
  replica_corruptions += other.replica_corruptions;
  replicas_repaired += other.replicas_repaired;
  repair_failures += other.repair_failures;
}

std::string ScrubReport::ToJson() const {
  std::ostringstream out;
  out << "{\"pages_scanned\": " << pages_scanned
      << ", \"pages_clean\": " << pages_clean
      << ", \"pages_divergent\": " << pages_divergent
      << ", \"pages_unreadable\": " << pages_unreadable
      << ", \"replica_corruptions\": " << replica_corruptions
      << ", \"replicas_repaired\": " << replicas_repaired
      << ", \"repair_failures\": " << repair_failures << "}";
  return out.str();
}

MirroredStorageManager::MirroredStorageManager(
    std::vector<StorageManager*> replicas, MirroredOptions options)
    : StorageManager(replicas.empty() ? kDefaultPageSize
                                      : replicas[0]->page_size()),
      replicas_(std::move(replicas)),
      options_(options) {
  assert(!replicas_.empty() && "mirrored storage needs >= 1 replica");
  for (const StorageManager* r : replicas_) {
    (void)r;
    assert(r != nullptr && r->page_size() == page_size() &&
           "replicas must agree on page size");
  }
  breakers_.reserve(replicas_.size());
  for (size_t i = 0; i < replicas_.size(); ++i) {
    breakers_.push_back(std::make_unique<Breaker>());
  }
}

MirroredStorageManager::~MirroredStorageManager() { DrainHedges(); }

uint64_t MirroredStorageManager::NextProbeAt(size_t replica,
                                             uint64_t opens) const {
  SplitMix64 h(options_.breaker.seed ^
               ((static_cast<uint64_t>(replica) + 1) * 0x9e3779b97f4a7c15ULL) ^
               opens);
  const uint64_t jitter =
      options_.breaker.probe_jitter == 0
          ? 0
          : h.Next() % (options_.breaker.probe_jitter + 1);
  return options_.breaker.probe_interval + jitter;
}

std::vector<MirroredStorageManager::OrderEntry>
MirroredStorageManager::ReadOrder() {
  const size_t n = replicas_.size();
  std::vector<OrderEntry> front;
  std::vector<OrderEntry> back;
  front.reserve(n);
  bool probe_chosen = false;
  for (size_t r = 0; r < n; ++r) {
    Breaker& b = *breakers_[r];
    std::lock_guard<std::mutex> lock(b.mu);
    switch (b.state) {
      case BreakerState::kClosed:
        front.push_back({r, AttemptKind::kNormal, true});
        break;
      case BreakerState::kHalfOpen:
        // Another read's probe is in flight; treat as unhealthy for now.
        back.push_back({r, AttemptKind::kNormal, false});
        break;
      case BreakerState::kOpen:
        ++b.skips_since_open;
        if (!probe_chosen && b.skips_since_open >= b.probe_at) {
          // Probe due: this read canaries the replica (placed first, so
          // the probe is actually exercised even when others are healthy).
          b.state = BreakerState::kHalfOpen;
          probe_chosen = true;
          breaker_probes_.fetch_add(1, std::memory_order_relaxed);
          front.insert(front.begin(), {r, AttemptKind::kProbe, true});
        } else {
          breaker_skips_.fetch_add(1, std::memory_order_relaxed);
          KCPQ_METRIC_INC(
              obs::KcpqMetrics::Get().storage_replica_breaker_skips_total);
          back.push_back({r, AttemptKind::kNormal, false});
        }
        break;
    }
  }
  front.insert(front.end(), back.begin(), back.end());
  return front;
}

void MirroredStorageManager::RecordOutcome(size_t replica, AttemptKind kind,
                                           bool ok) {
  Breaker& b = *breakers_[replica];
  std::lock_guard<std::mutex> lock(b.mu);
  if (kind == AttemptKind::kProbe) {
    if (ok) {
      b.state = BreakerState::kClosed;
      b.window_total = 0;
      b.window_errors = 0;
      breaker_closes_.fetch_add(1, std::memory_order_relaxed);
      KCPQ_METRIC_INC(
          obs::KcpqMetrics::Get().storage_replica_breaker_closes_total);
    } else {
      b.state = BreakerState::kOpen;
      ++b.opens;
      b.skips_since_open = 0;
      b.probe_at = NextProbeAt(replica, b.opens);
      breaker_opens_.fetch_add(1, std::memory_order_relaxed);
      KCPQ_METRIC_INC(
          obs::KcpqMetrics::Get().storage_replica_breaker_opens_total);
    }
    return;
  }
  ++b.window_total;
  if (!ok) ++b.window_errors;
  if (b.window_total >= options_.breaker.window) {
    // Geometric decay keeps the window sliding without a ring buffer.
    b.window_total /= 2;
    b.window_errors /= 2;
  }
  if (b.state == BreakerState::kClosed &&
      b.window_total >= options_.breaker.min_ops &&
      static_cast<double>(b.window_errors) >=
          options_.breaker.error_threshold *
              static_cast<double>(b.window_total)) {
    b.state = BreakerState::kOpen;
    ++b.opens;
    b.skips_since_open = 0;
    b.probe_at = NextProbeAt(replica, b.opens);
    breaker_opens_.fetch_add(1, std::memory_order_relaxed);
    KCPQ_METRIC_INC(
        obs::KcpqMetrics::Get().storage_replica_breaker_opens_total);
  }
}

BreakerState MirroredStorageManager::breaker_state(size_t replica) const {
  Breaker& b = *breakers_[replica];
  std::lock_guard<std::mutex> lock(b.mu);
  return b.state;
}

Status MirroredStorageManager::FailoverRead(
    const std::vector<OrderEntry>& order, size_t first, PageId id, Page* page,
    const QueryContext* ctx, std::vector<std::pair<size_t, Status>>* errors) {
  for (size_t i = first; i < order.size(); ++i) {
    const OrderEntry& e = order[i];
    replica_attempts_.fetch_add(1, std::memory_order_relaxed);
    KCPQ_METRIC_INC(
        obs::KcpqMetrics::Get().storage_replica_read_attempts_total);
    Status s;
    {
      std::shared_lock<std::shared_mutex> lock(Stripe(id));
      s = replicas_[e.replica]->ReadPage(id, page, ctx);
    }
    RecordOutcome(e.replica, e.kind, s.ok());
    if (s.ok()) return s;
    if (s.code() == StatusCode::kCorruption) {
      corrupt_reads_.fetch_add(1, std::memory_order_relaxed);
    }
    errors->push_back({e.replica, std::move(s)});
  }
  // All attempted replicas failed; surface a transient error when any
  // failure was transient so a RetryingStorageManager above can retry the
  // whole logical read (a later attempt may find a replica recovered).
  for (const auto& f : *errors) {
    if (f.second.IsTransient()) {
      return Status::IoTransient("all replicas failed on page " +
                                 std::to_string(id) +
                                 " (at least one transiently)");
    }
  }
  return errors->empty()
             ? Status::Internal("mirrored read with empty replica order")
             : errors->front().second;
}

void MirroredStorageManager::SubmitHedgeAttempt(
    const std::shared_ptr<HedgeState>& state, size_t replica, PageId id,
    bool is_hedge) {
  // The caller says whether this attempt is the hedge; inferring it from
  // state->outstanding would misclassify a hedge whose primary completed
  // between the hedge decision and this submit, leaking an issued hedge
  // that never lands in hedge_wins/hedge_wasted.
  {
    std::lock_guard<std::mutex> lock(state->mu);
    ++state->outstanding;
  }
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    ++hedge_inflight_;
  }
  replica_attempts_.fetch_add(1, std::memory_order_relaxed);
  KCPQ_METRIC_INC(
      obs::KcpqMetrics::Get().storage_replica_read_attempts_total);
  IoThreadPool::Shared().Submit([this, state, replica, id, is_hedge] {
    Page local;
    Status s;
    {
      // The shared stripe lock makes the replica read safe against a
      // concurrent repair/scrub write of the same page (see file comment
      // in mirrored_storage.h).
      std::shared_lock<std::shared_mutex> lock(Stripe(id));
      s = replicas_[replica]->ReadPage(id, &local, nullptr);
    }
    RecordOutcome(replica, AttemptKind::kNormal, s.ok());
    bool won = false;
    {
      std::lock_guard<std::mutex> lock(state->mu);
      --state->outstanding;
      if (s.ok()) {
        if (!state->winner_set) {
          state->winner_set = true;
          state->winner_replica = replica;
          state->winner_is_hedge = is_hedge;
          state->winner_page = std::move(local);
          won = true;
        }
      } else {
        if (s.code() == StatusCode::kCorruption) {
          corrupt_reads_.fetch_add(1, std::memory_order_relaxed);
        }
        state->failures.push_back({replica, std::move(s)});
      }
    }
    if (is_hedge) {
      // Every issued hedge is exactly one of won/wasted, so after a drain
      // hedges_issued == hedge_wins + hedge_wasted.
      if (won) {
        hedge_wins_.fetch_add(1, std::memory_order_relaxed);
        KCPQ_METRIC_INC(obs::KcpqMetrics::Get().hedge_wins_total);
      } else {
        hedge_wasted_.fetch_add(1, std::memory_order_relaxed);
        KCPQ_METRIC_INC(obs::KcpqMetrics::Get().hedge_wasted_total);
      }
    }
    state->cv.notify_all();
    {
      // Notify while still holding the lock: once a drainer observes
      // hedge_inflight_ == 0 the manager may be destroyed, so the condvar
      // must not be touched after the mutex is released.
      std::lock_guard<std::mutex> lock(inflight_mu_);
      --hedge_inflight_;
      inflight_cv_.notify_all();
    }
  });
}

Status MirroredStorageManager::HedgedRead(
    const std::vector<OrderEntry>& order, PageId id, Page* page,
    const QueryContext* ctx,
    std::vector<std::pair<size_t, Status>>* errors) {
  auto state = std::make_shared<HedgeState>();
  const auto start = Clock::now();
  const auto delay = options_.hedge.static_delay;
  SubmitHedgeAttempt(state, order[0].replica, id, /*is_hedge=*/false);
  bool hedged = false;
  {
    std::unique_lock<std::mutex> lock(state->mu);
    state->cv.wait_until(lock, start + delay, [&] {
      return state->winner_set || state->outstanding == 0;
    });
    if (!state->winner_set && state->outstanding > 0) {
      // Primary is slow (not failed): hedge to the next healthy replica.
      lock.unlock();
      hedged = true;
      hedges_issued_.fetch_add(1, std::memory_order_relaxed);
      KCPQ_METRIC_INC(obs::KcpqMetrics::Get().hedge_issued_total);
      if (ctx != nullptr) {
        ++ctx->replication().hedged_reads;
        if (obs::TraceBuffer* trace = ctx->trace()) {
          obs::TraceEvent e;
          e.kind = obs::TraceEventKind::kIoHedge;
          e.a = id;
          e.b = order[1].replica;
          e.dur_ns = static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(delay)
                  .count());
          trace->RecordNow(e);
        }
      }
      SubmitHedgeAttempt(state, order[1].replica, id, /*is_hedge=*/true);
      lock.lock();
    }
    state->cv.wait(lock, [&] {
      return state->winner_set || state->outstanding == 0;
    });
    if (state->winner_set) {
      *page = std::move(state->winner_page);
      if (state->winner_is_hedge && ctx != nullptr) {
        ++ctx->replication().hedge_wins;
      }
      // Failures observed before the win (e.g. a corrupt primary beaten
      // by its hedge) feed read-repair in the caller.
      for (const auto& f : state->failures) errors->push_back(f);
      return Status::OK();
    }
    for (const auto& f : state->failures) errors->push_back(f);
  }
  // Both submissions failed; continue synchronously over the untried tail.
  const size_t tried = hedged ? 2 : 1;
  return FailoverRead(order, tried, id, page, ctx, errors);
}

uint64_t MirroredStorageManager::RepairReplicas(
    PageId id, const std::vector<std::pair<size_t, Status>>& errors,
    const Page& good, const QueryContext* ctx) {
  (void)ctx;
  uint64_t healed = 0;
  for (const auto& [replica, status] : errors) {
    // Only corruption is worth healing on the read path: the bytes are
    // durably wrong and a rewrite fixes them. Errored (down) replicas are
    // the scrubber's job once they return.
    if (status.code() != StatusCode::kCorruption) continue;
    Status w;
    {
      std::unique_lock<std::shared_mutex> lock(Stripe(id));
      w = replicas_[replica]->WritePage(id, good);
    }
    if (w.ok()) {
      ++healed;
      repairs_.fetch_add(1, std::memory_order_relaxed);
      KCPQ_METRIC_INC(obs::KcpqMetrics::Get().storage_replica_repairs_total);
    } else {
      repair_failures_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return healed;
}

Status MirroredStorageManager::DoReadPage(PageId id, Page* page,
                                          const QueryContext* ctx) {
  std::vector<OrderEntry> order = ReadOrder();
  std::vector<std::pair<size_t, Status>> errors;
  Status s;
  // Hedging pairs two healthy replicas and blocks on pool completions, so
  // it is skipped on pool workers (nested blocking could deadlock the
  // pool; see IoThreadPool::OnWorkerThread) and around breaker probes.
  const bool hedge_eligible =
      options_.hedge.mode != HedgeMode::kOff && order.size() >= 2 &&
      order[0].healthy && order[0].kind == AttemptKind::kNormal &&
      order[1].healthy && order[1].kind == AttemptKind::kNormal &&
      !IoThreadPool::OnWorkerThread();
  if (hedge_eligible) {
    s = HedgedRead(order, id, page, ctx, &errors);
  } else {
    s = FailoverRead(order, 0, id, page, ctx, &errors);
  }
  if (s.ok()) {
    if (!errors.empty()) {
      failovers_.fetch_add(errors.size(), std::memory_order_relaxed);
      KCPQ_METRIC_INC(
          obs::KcpqMetrics::Get().storage_replica_failovers_total);
      if (ctx != nullptr) ++ctx->replication().failover_reads;
    }
    const uint64_t healed = RepairReplicas(id, errors, *page, ctx);
    if (healed > 0 && ctx != nullptr) {
      ctx->replication().read_repairs += healed;
    }
    logical_reads_.fetch_add(1, std::memory_order_relaxed);
    CountRead();
    return s;
  }
  all_replicas_failed_.fetch_add(1, std::memory_order_relaxed);
  return s;
}

Result<PageId> MirroredStorageManager::Allocate() {
  // Structural mutation is single-threaded by the storage contract, but a
  // losing hedge may still be reading a replica: let it finish first.
  // The replicas allocate in lockstep and must hand back the same id
  // (they start empty together and see the same operation sequence).
  DrainHedges();
  Result<PageId> first = replicas_[0]->Allocate();
  if (!first.ok()) return first;
  for (size_t r = 1; r < replicas_.size(); ++r) {
    Result<PageId> other = replicas_[r]->Allocate();
    if (!other.ok()) return other;
    if (other.value() != first.value()) {
      return Status::Internal("replica page id divergence on Allocate");
    }
  }
  return first;
}

Status MirroredStorageManager::Free(PageId id) {
  DrainHedges();  // as in Allocate
  Status result;
  for (StorageManager* r : replicas_) {
    Status s = r->Free(id);
    if (!s.ok() && result.ok()) result = std::move(s);
  }
  return result;
}

Status MirroredStorageManager::WritePage(PageId id, const Page& page) {
  // Write-all: attempt every replica even after an error so the healthy
  // ones stay aligned; the first error is surfaced (a failed replica is
  // healed later by scrub/read-repair).
  Status result;
  std::unique_lock<std::shared_mutex> lock(Stripe(id));
  for (StorageManager* r : replicas_) {
    Status s = r->WritePage(id, page);
    if (!s.ok() && result.ok()) result = std::move(s);
  }
  lock.unlock();
  if (result.ok()) CountWrite();
  return result;
}

Status MirroredStorageManager::Sync() {
  Status result;
  for (StorageManager* r : replicas_) {
    Status s = r->Sync();
    if (!s.ok() && result.ok()) result = std::move(s);
  }
  return result;
}

ScrubReport MirroredStorageManager::ScrubPages(PageId begin,
                                               uint64_t max_pages,
                                               bool repair) {
  ScrubReport rep;
  const uint64_t n = PageCount();
  const size_t nr = replicas_.size();
  for (PageId id = begin; id < n && rep.pages_scanned < max_pages; ++id) {
    ++rep.pages_scanned;
    KCPQ_METRIC_INC(obs::KcpqMetrics::Get().scrub_pages_total);
    std::vector<Status> st(nr);
    std::vector<Page> copies(nr);
    {
      std::shared_lock<std::shared_mutex> lock(Stripe(id));
      for (size_t r = 0; r < nr; ++r) {
        // Direct replica reads: scrub is maintenance I/O and must not
        // move the mirror's logical read counters or breaker windows
        // (only the replicas' own physical counters).
        st[r] = replicas_[r]->ReadPage(id, &copies[r], nullptr);
        if (st[r].code() == StatusCode::kCorruption) {
          ++rep.replica_corruptions;
        }
      }
    }
    // Majority vote on the byte image among readable copies; ties go to
    // the lowest replica index (replica 0 is authoritative).
    size_t ref = nr;
    size_t ref_votes = 0;
    for (size_t r = 0; r < nr; ++r) {
      if (!st[r].ok()) continue;
      size_t votes = 0;
      for (size_t r2 = 0; r2 < nr; ++r2) {
        if (st[r2].ok() && PagesEqual(copies[r], copies[r2])) ++votes;
      }
      if (votes > ref_votes) {
        ref = r;
        ref_votes = votes;
      }
    }
    if (ref == nr) {
      ++rep.pages_unreadable;
      continue;
    }
    if (ref_votes == nr) {
      ++rep.pages_clean;
      continue;
    }
    ++rep.pages_divergent;
    KCPQ_METRIC_INC(obs::KcpqMetrics::Get().scrub_divergent_total);
    if (!repair) continue;
    for (size_t r = 0; r < nr; ++r) {
      if (st[r].ok() && PagesEqual(copies[r], copies[ref])) continue;
      Status w;
      {
        std::unique_lock<std::shared_mutex> lock(Stripe(id));
        w = replicas_[r]->WritePage(id, copies[ref]);
      }
      if (w.ok()) {
        ++rep.replicas_repaired;
        KCPQ_METRIC_INC(obs::KcpqMetrics::Get().scrub_repairs_total);
      } else {
        ++rep.repair_failures;
      }
    }
  }
  return rep;
}

ScrubReport MirroredStorageManager::ScrubAll(bool repair) {
  return ScrubPages(0, PageCount(), repair);
}

void MirroredStorageManager::DrainHedges() {
  std::unique_lock<std::mutex> lock(inflight_mu_);
  inflight_cv_.wait(lock, [this] { return hedge_inflight_ == 0; });
}

MirroredStats MirroredStorageManager::mirrored_stats() const {
  MirroredStats s;
  s.logical_reads = logical_reads_.load(std::memory_order_relaxed);
  s.replica_attempts = replica_attempts_.load(std::memory_order_relaxed);
  s.failovers = failovers_.load(std::memory_order_relaxed);
  s.corrupt_reads = corrupt_reads_.load(std::memory_order_relaxed);
  s.repairs = repairs_.load(std::memory_order_relaxed);
  s.repair_failures = repair_failures_.load(std::memory_order_relaxed);
  s.all_replicas_failed =
      all_replicas_failed_.load(std::memory_order_relaxed);
  s.hedges_issued = hedges_issued_.load(std::memory_order_relaxed);
  s.hedge_wins = hedge_wins_.load(std::memory_order_relaxed);
  s.hedge_wasted = hedge_wasted_.load(std::memory_order_relaxed);
  s.breaker_opens = breaker_opens_.load(std::memory_order_relaxed);
  s.breaker_closes = breaker_closes_.load(std::memory_order_relaxed);
  s.breaker_probes = breaker_probes_.load(std::memory_order_relaxed);
  s.breaker_skips = breaker_skips_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace kcpq
