// Replicated storage: N mirrored replicas behind one StorageManager.
//
// MirroredStorageManager is the fault-survival layer of the storage stack
// (docs/robustness.md "Replication, hedging, and repair"): it decorates N
// replica stacks and gives the layers above
//
//   * failover reads — any error on one replica (a checksum Corruption,
//     a permanent kIoError, an exhausted-transient burst) transparently
//     falls over to the next replica in order;
//   * read-repair — when a read found a *corrupt* copy and a later
//     replica served good bytes, the good page is written back to the
//     corrupt replica, healing it in place;
//   * hedged reads — after a fixed delay (--hedge-after-us) a second
//     read is issued to another replica through the shared IoThreadPool;
//     the first completion wins and the loser is accounted hedge_wasted;
//   * a per-replica circuit breaker — closed/open/half-open on an
//     error-rate window with a seeded-deterministic probe schedule, so a
//     dead replica stops eating failover attempts and hedge budget;
//   * a scrubber — ScrubPages/ScrubAll walk the page space, compare all
//     replicas (majority vote on the byte image, ties to the lowest
//     replica index), and repair divergent copies. storage/scrub.h runs
//     it online while the buffer manager is idle; tools/kcpq_scrub.cc is
//     the offline entry point.
//
// Canonical composition (enforced by storage/stack.h, unit-tested in
// tests/mirrored_test.cc):
//
//   file/memory -> fault-injection -> latency -> checksum   (per replica)
//   ... N such stacks -> MirroredStorageManager -> retrying  (logical)
//
// The checksum layer sits *below* the mirror so corruption surfaces as a
// per-replica Status::kCorruption the mirror can fail over and repair;
// RetryingStorageManager sits *above* it so a transient error reaches the
// retry loop only after every replica failed over (and a Corruption is
// never blindly re-read on the same replica — the mirror has already
// moved on). Latency sits below the mirror so a hedge can actually beat a
// slow replica.
//
// Metric identity (the invariant that keeps the paper's numbers honest):
// this layer lives entirely *below* the BufferManager, serves every
// logical read exactly once, and counts exactly one logical read per
// ReadPage like every other decorator — so buffer misses (the paper's
// disk-access metric) and the replacement history are bit-identical to a
// single-replica run no matter which replica served a page, whether a
// hedge fired, or whether a repair happened. tests/mirrored_test.cc
// proves it differentially over 50 seeds.
//
// Thread-safety: inherits the storage contract (concurrent reads/writes
// on distinct pages). Reads of the same page may race with a repair or a
// scrub write to one replica; a striped reader/writer lock keyed by page
// id serializes replica *writes* against replica *reads* of that page, so
// the base stores only ever see the distinct-page pattern they guarantee.
// Hedged submissions block on their completion, so DoReadPage must never
// hedge when called *from* an I/O pool worker (the completion could be
// queued behind the caller itself); IoThreadPool::OnWorkerThread() gates
// this — such reads use plain failover, which is correct and non-blocking
// on the pool. The destructor drains any losing hedge completions still
// in flight, so no task outlives the manager; Allocate and Free drain
// them too, so a loser never reads a replica during structural mutation.

#ifndef KCPQ_STORAGE_MIRRORED_STORAGE_H_
#define KCPQ_STORAGE_MIRRORED_STORAGE_H_

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "storage/storage_manager.h"

namespace kcpq {

/// When a second (hedged) read is issued. docs/robustness.md.
enum class HedgeMode {
  kOff,    // never hedge; failover only
  kStatic  // hedge after a fixed delay (HedgePolicy::static_delay)
};

const char* HedgeModeName(HedgeMode mode);

struct HedgePolicy {
  HedgeMode mode = HedgeMode::kOff;
  /// kStatic: how long the primary read may run before the hedge fires.
  std::chrono::microseconds static_delay{1000};
};

/// Per-replica circuit breaker (closed -> open on error rate, open ->
/// half-open probe on a seeded-deterministic schedule, probe success ->
/// closed). Counted in operations, not wall-clock, so tests and replays
/// are exactly reproducible.
struct BreakerPolicy {
  /// Sliding error window: counts are halved when `window` operations
  /// accumulate, so old history decays geometrically.
  uint64_t window = 32;
  /// No verdict before this many operations are in the window.
  uint64_t min_ops = 8;
  /// Open when window error fraction reaches this.
  double error_threshold = 0.5;
  /// An open replica is probed after this many bypassed reads, plus a
  /// deterministic jitter in [0, probe_jitter] hashed from (seed,
  /// replica, open count) — staggered probes, reproducible schedule.
  uint64_t probe_interval = 16;
  uint64_t probe_jitter = 8;
  uint64_t seed = 0;
};

enum class BreakerState { kClosed, kOpen, kHalfOpen };

const char* BreakerStateName(BreakerState state);

struct MirroredOptions {
  HedgePolicy hedge;
  BreakerPolicy breaker;
};

/// Monotonic counters, snapshot by value. After DrainHedges (or the
/// destructor) the hedge identity holds: hedges_issued == hedge_wins +
/// hedge_wasted — every issued hedge either won or was wasted work.
struct MirroredStats {
  uint64_t logical_reads = 0;      // successful ReadPage calls served
  uint64_t replica_attempts = 0;   // physical per-replica read attempts
  uint64_t failovers = 0;          // attempts beyond the first replica
  uint64_t corrupt_reads = 0;      // per-replica kCorruption observed
  uint64_t repairs = 0;            // corrupt copies healed by read-repair
  uint64_t repair_failures = 0;    // heal writes that themselves failed
  uint64_t all_replicas_failed = 0;
  uint64_t hedges_issued = 0;
  uint64_t hedge_wins = 0;         // secondary completed (well) first
  uint64_t hedge_wasted = 0;       // secondary lost to the primary
  uint64_t breaker_opens = 0;
  uint64_t breaker_closes = 0;     // successful probes
  uint64_t breaker_probes = 0;
  uint64_t breaker_skips = 0;      // open replica bypassed in read order
};

/// One scrub pass's findings; ToJson renders the report the scrub tool
/// and the CLI emit. Merge folds incremental (background) passes.
struct ScrubReport {
  uint64_t pages_scanned = 0;
  uint64_t pages_clean = 0;      // every replica returned identical bytes
  uint64_t pages_divergent = 0;  // at least one replica disagreed/failed
  uint64_t pages_unreadable = 0;  // no replica could serve the page
  uint64_t replica_corruptions = 0;  // per-replica checksum failures seen
  uint64_t replicas_repaired = 0;    // divergent copies rewritten
  uint64_t repair_failures = 0;

  void Merge(const ScrubReport& other);
  std::string ToJson() const;
};

class MirroredStorageManager final : public StorageManager {
 public:
  /// `replicas` (all non-null, same page_size, >= 1) must outlive the
  /// manager. Replica 0 is authoritative on scrub ties.
  MirroredStorageManager(std::vector<StorageManager*> replicas,
                         MirroredOptions options = {});
  ~MirroredStorageManager() override;

  size_t replica_count() const { return replicas_.size(); }
  StorageManager* replica(size_t i) const { return replicas_[i]; }

  uint64_t PageCount() const override { return replicas_[0]->PageCount(); }
  Result<PageId> Allocate() override;
  Status Free(PageId id) override;
  Status WritePage(PageId id, const Page& page) override;
  Status Sync() override;

  /// Scrubs `max_pages` pages starting at `begin` (clamped to PageCount).
  /// Reads every replica's copy of each page, majority-votes the byte
  /// image (ties to the lowest replica index), and — when `repair` —
  /// rewrites the losing copies through their replica stacks.
  ScrubReport ScrubPages(PageId begin, uint64_t max_pages, bool repair);
  ScrubReport ScrubAll(bool repair);

  /// Blocks until every issued hedge completion has run. Losing hedges
  /// finish on I/O threads after their read returned; draining proves
  /// none leaked (chaos tests assert the hedge identity afterwards).
  void DrainHedges();

  MirroredStats mirrored_stats() const;
  BreakerState breaker_state(size_t replica) const;

 protected:
  Status DoReadPage(PageId id, Page* page, const QueryContext* ctx) override;

 private:
  struct Breaker {
    mutable std::mutex mu;
    BreakerState state = BreakerState::kClosed;
    uint64_t window_total = 0;
    uint64_t window_errors = 0;
    uint64_t skips_since_open = 0;
    uint64_t probe_at = 0;
    uint64_t opens = 0;
  };

  /// One read attempt's role in the breaker protocol.
  enum class AttemptKind { kNormal, kProbe };

  struct OrderEntry {
    size_t replica = 0;
    AttemptKind kind = AttemptKind::kNormal;
    /// False for open-breaker replicas appended as a last resort; hedging
    /// only pairs healthy entries.
    bool healthy = true;
  };

  /// Shared state between a hedged read's caller and its (up to two)
  /// pool completions. Heap-allocated via shared_ptr: a losing
  /// completion may run after the caller returned.
  struct HedgeState {
    std::mutex mu;
    std::condition_variable cv;
    int outstanding = 0;
    bool winner_set = false;
    size_t winner_replica = 0;
    bool winner_is_hedge = false;
    Page winner_page;
    std::vector<std::pair<size_t, Status>> failures;  // (replica, error)
  };

  /// Read order for one logical read: closed replicas (and at most one
  /// due probe, placed first) in index order, so replica 0 is the
  /// primary, then open replicas as a last resort. Mutates breaker skip
  /// counters.
  std::vector<OrderEntry> ReadOrder();
  void RecordOutcome(size_t replica, AttemptKind kind, bool ok);
  uint64_t NextProbeAt(size_t replica, uint64_t opens) const;

  /// Synchronous failover over `order[first..]`; used directly when
  /// hedging is off/ineligible and as the fallback when both hedged
  /// submissions fail. Appends per-replica errors to `errors`.
  Status FailoverRead(const std::vector<OrderEntry>& order, size_t first,
                      PageId id, Page* page, const QueryContext* ctx,
                      std::vector<std::pair<size_t, Status>>* errors);
  /// Primary + delayed secondary through the I/O pool; first completion
  /// wins. Falls back to FailoverRead over the untried tail on total
  /// failure. Failures observed by completion time are appended to
  /// `errors` (a loser still in flight reports too late for read-repair;
  /// the scrubber covers that case). Never called from a pool worker.
  Status HedgedRead(const std::vector<OrderEntry>& order, PageId id,
                    Page* page, const QueryContext* ctx,
                    std::vector<std::pair<size_t, Status>>* errors);
  void SubmitHedgeAttempt(const std::shared_ptr<HedgeState>& state,
                          size_t replica, PageId id, bool is_hedge);

  /// Writes `good` back to every replica in `corrupt` (unique stripe
  /// lock); returns how many heals succeeded.
  uint64_t RepairReplicas(PageId id,
                          const std::vector<std::pair<size_t, Status>>& errors,
                          const Page& good, const QueryContext* ctx);

  std::shared_mutex& Stripe(PageId id) {
    return page_stripes_[id % kStripes].mu;
  }

  static constexpr size_t kStripes = 64;
  struct Striped {
    std::shared_mutex mu;
  };

  std::vector<StorageManager*> replicas_;
  MirroredOptions options_;
  std::vector<std::unique_ptr<Breaker>> breakers_;
  std::array<Striped, kStripes> page_stripes_;

  // Outstanding hedge completions (both submissions of a hedged read).
  std::mutex inflight_mu_;
  std::condition_variable inflight_cv_;
  uint64_t hedge_inflight_ = 0;

  std::atomic<uint64_t> logical_reads_{0};
  std::atomic<uint64_t> replica_attempts_{0};
  std::atomic<uint64_t> failovers_{0};
  std::atomic<uint64_t> corrupt_reads_{0};
  std::atomic<uint64_t> repairs_{0};
  std::atomic<uint64_t> repair_failures_{0};
  std::atomic<uint64_t> all_replicas_failed_{0};
  std::atomic<uint64_t> hedges_issued_{0};
  std::atomic<uint64_t> hedge_wins_{0};
  std::atomic<uint64_t> hedge_wasted_{0};
  std::atomic<uint64_t> breaker_opens_{0};
  std::atomic<uint64_t> breaker_closes_{0};
  std::atomic<uint64_t> breaker_probes_{0};
  std::atomic<uint64_t> breaker_skips_{0};
};

}  // namespace kcpq

#endif  // KCPQ_STORAGE_MIRRORED_STORAGE_H_
