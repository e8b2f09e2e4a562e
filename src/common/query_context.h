// Per-query execution context: the one object the whole query path shares,
// and the only carrier of a query's limits. A query without a context has
// no limits and does no accounting (the zero-overhead path). A context
// unifies three things:
//
//   * it owns the QueryControl (limits + cancellation token);
//   * it owns a ResourceAccountant metering *all* per-query memory —
//     engine heaps/candidate lists AND distinct buffer pages read for the
//     query — so `max_candidate_bytes` covers the full footprint and a
//     buffer-storming query is throttled like a heap-hoarding one;
//   * the storage layer reads its deadline to abandon retries that cannot
//     finish in time (storage/retrying_storage.h), surfacing
//     kDeadlineExceeded, which the engines convert back into an ordinary
//     StopCause::kDeadline partial result.
//
// Threading (top-down): the batch executor builds one context per query;
// the engines pass it to RStarTree::ReadNode, which hands it to
// BufferManager::Read (page charging) and on a miss to
// StorageManager::ReadPage (deadline-aware retries). A context belongs to
// exactly one query, which runs single-threaded, so nothing here needs
// locks — and because pages are charged once per *distinct* page (hit or
// miss alike), the accounting is deterministic at any thread count and
// buffer size. docs/architecture.md diagrams the flow.

#ifndef KCPQ_COMMON_QUERY_CONTEXT_H_
#define KCPQ_COMMON_QUERY_CONTEXT_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include "common/query_control.h"
#include "obs/query_observation.h"

namespace kcpq {

namespace obs {
class TraceBuffer;     // obs/trace.h
class PruningProfile;  // obs/explain.h
}  // namespace obs

/// Unified per-query memory meter. Two components:
///
///  * engine bytes — live candidate state (pair heaps, candidate lists,
///    priority queues), set absolutely by the engine at each poll;
///  * buffer bytes — pages read through a BufferManager on the query's
///    behalf, charged page_size once per distinct (buffer, page) pair.
///    Re-reads are free: the query's footprint is the set of pages it
///    needs resident, not its access count.
///
/// Single-threaded by design (one query = one thread); see QueryContext.
class ResourceAccountant {
 public:
  /// Replaces the engine-side byte estimate (absolute, not a delta).
  void SetEngineBytes(uint64_t bytes) {
    engine_bytes_ = bytes;
    NotePeaks();
  }

  /// Charges `page_size` the first time (buffer_instance, page_id) is
  /// seen; later reads of the same page are free.
  void ChargeBufferPage(uint64_t buffer_instance, uint64_t page_id,
                        uint64_t page_size) {
    if (MarkSeen(buffer_instance, page_id)) {
      buffer_bytes_ += page_size;
      ++distinct_pages_;
      NotePeaks();
    }
  }

  /// Credits back a page this query paid for but another query consumed:
  /// when a speculatively staged page is claimed by a *different* query,
  /// the buffer releases the issuer's charge so its footprint reflects
  /// pages it actually holds. The one accountant entry point that is
  /// thread-safe — the claim happens on the claiming query's thread while
  /// the issuer may be mid-poll on its own. Releases are a net credit:
  /// the page stays in the issuer's distinct-page set, so a later re-read
  /// is not re-charged (peaks already recorded are unaffected).
  void ReleaseForeignBufferBytes(uint64_t bytes) {
    foreign_released_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  }

  uint64_t engine_bytes() const { return engine_bytes_; }
  uint64_t buffer_bytes() const {
    const uint64_t released =
        foreign_released_bytes_.load(std::memory_order_relaxed);
    return released >= buffer_bytes_ ? 0 : buffer_bytes_ - released;
  }
  uint64_t distinct_pages() const { return distinct_pages_; }
  /// Current unified footprint: engine + buffer bytes.
  uint64_t total_bytes() const { return engine_bytes_ + buffer_bytes(); }

  /// High-water marks, for observability and the accounting tests.
  uint64_t peak_engine_bytes() const { return peak_engine_bytes_; }
  uint64_t peak_total_bytes() const { return peak_total_bytes_; }

 private:
  void NotePeaks() {
    peak_engine_bytes_ = std::max(peak_engine_bytes_, engine_bytes_);
    peak_total_bytes_ = std::max(peak_total_bytes_, total_bytes());
  }

  /// Pages at or past this id are tracked in `far_pages_`, so a corrupt
  /// child id cannot size a bitmap. 2^24 pages is 16 GiB of 1 KiB pages.
  static constexpr uint64_t kBitmapPages = uint64_t{1} << 24;

  /// Records (buffer_instance, page_id); true the first time it is seen.
  bool MarkSeen(uint64_t buffer_instance, uint64_t page_id) {
    if (page_id >= kBitmapPages) {
      return far_pages_.emplace(buffer_instance, page_id).second;
    }
    std::vector<uint64_t>* bits = nullptr;
    for (auto& [instance, words] : seen_) {
      if (instance == buffer_instance) {
        bits = &words;
        break;
      }
    }
    if (bits == nullptr) {
      seen_.emplace_back(buffer_instance, std::vector<uint64_t>());
      bits = &seen_.back().second;
    }
    const size_t word = page_id / 64;
    const uint64_t mask = uint64_t{1} << (page_id % 64);
    if (word >= bits->size()) bits->resize(word + 1);
    if (((*bits)[word] & mask) != 0) return false;
    (*bits)[word] |= mask;
    return true;
  }

  uint64_t engine_bytes_ = 0;
  uint64_t buffer_bytes_ = 0;
  /// Pages surrendered to other queries (see ReleaseForeignBufferBytes);
  /// atomic because the claiming query's thread writes it.
  std::atomic<uint64_t> foreign_released_bytes_{0};
  uint64_t distinct_pages_ = 0;
  uint64_t peak_engine_bytes_ = 0;
  uint64_t peak_total_bytes_ = 0;
  /// Distinct pages: one bitmap over the dense page ids per buffer
  /// instance (a query touches 2-3 buffers, so a linear scan finds it).
  std::vector<std::pair<uint64_t, std::vector<uint64_t>>> seen_;
  /// (instance, page) pairs past the bitmaps' range (see kBitmapPages).
  std::set<std::pair<uint64_t, uint64_t>> far_pages_;
};

/// Per-query replication outcomes (storage/mirrored_storage.h): how often
/// the mirror had to fail over, repair, or hedge on this query's behalf.
/// Purely observational — none of it feeds back into the result or the
/// paper's disk-access metric — and filled in only when the storage stack
/// is actually mirrored.
struct ReplicationStats {
  uint64_t failover_reads = 0;  // logical reads served past a replica error
  uint64_t read_repairs = 0;    // corrupt replica copies healed inline
  uint64_t hedged_reads = 0;    // speculative second replica reads issued
  uint64_t hedge_wins = 0;      // hedges that finished first
};

/// First-class per-query context: control plane + resource accounting.
/// Owned by whoever issues the query (the batch executor builds one per
/// query; direct engine callers pass their own to set limits or attach
/// sinks, or none to run unlimited and unaccounted). It meters distinct
/// pages, so it serves exactly one query and is never reused. Not
/// thread-safe and not copyable: one context, one query, one thread.
class QueryContext {
 public:
  QueryContext() = default;
  explicit QueryContext(QueryControl control) : control_(std::move(control)) {}

  QueryContext(const QueryContext&) = delete;
  QueryContext& operator=(const QueryContext&) = delete;

  QueryControl& control() { return control_; }
  const QueryControl& control() const { return control_; }
  ResourceAccountant& accountant() { return accountant_; }
  const ResourceAccountant& accountant() const { return accountant_; }

  bool has_deadline() const {
    return control_.deadline != QueryControl::kNoDeadline;
  }
  QueryControl::Clock::time_point deadline() const {
    return control_.deadline;
  }

  /// The engines' stop poll: records the engine-side estimate in the
  /// accountant and checks the control against the *unified* footprint
  /// (engine + buffer bytes), so buffer-heavy queries trip the memory
  /// budget even with tiny candidate state.
  StopCause Check(uint64_t node_accesses, uint64_t engine_bytes) {
    accountant_.SetEngineBytes(engine_bytes);
    if (observation_ != nullptr) {
      observation_->node_accesses.store(node_accesses,
                                        std::memory_order_relaxed);
      observation_->engine_bytes.store(engine_bytes,
                                       std::memory_order_relaxed);
    }
    return control_.Check(node_accesses, accountant_.total_bytes());
  }

  /// Called by BufferManager::Read for every page served to this query.
  void OnPageRead(uint64_t buffer_instance, uint64_t page_id,
                  uint64_t page_size) {
    accountant_.ChargeBufferPage(buffer_instance, page_id, page_size);
    if (observation_ != nullptr) {
      observation_->pages_read.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// Optional observability sinks (obs/trace.h, obs/explain.h). Both are
  /// borrowed, not owned: the caller that wants traces or an EXPLAIN
  /// profile attaches them before running the query and reads them after.
  /// Null (the default) means "don't record" — the engines check for null
  /// before doing any per-event work, so detached queries pay nothing.
  obs::TraceBuffer* trace() const { return trace_; }
  void set_trace(obs::TraceBuffer* trace) { trace_ = trace; }
  obs::PruningProfile* profile() const { return profile_; }
  void set_profile(obs::PruningProfile* profile) { profile_ = profile; }

  /// Live telemetry sink (obs/query_registry.h): borrowed like trace(),
  /// but its fields are relaxed atomics because the HTTP exporter thread
  /// reads them while the query runs. Null (default) = unobserved.
  obs::QueryObservation* observation() const { return observation_; }
  void set_observation(obs::QueryObservation* observation) {
    observation_ = observation;
  }

  /// Replication outcome tallies, mutable through the const context the
  /// storage read path carries (same pattern as trace(): the context is
  /// const below the buffer, but observability sinks are written to).
  /// Single-threaded like the rest of the context — the mirror bumps
  /// these only on the query's own thread, never from pool completions.
  ReplicationStats& replication() const { return replication_; }

 private:
  QueryControl control_;
  ResourceAccountant accountant_;
  obs::TraceBuffer* trace_ = nullptr;
  obs::PruningProfile* profile_ = nullptr;
  obs::QueryObservation* observation_ = nullptr;
  mutable ReplicationStats replication_;
};

/// Saturating multiply for pair-capacity products (two subtree point
/// counts can overflow uint64 on adversarially deep trees).
inline uint64_t SaturatingMul(uint64_t a, uint64_t b) {
  const uint64_t max = std::numeric_limits<uint64_t>::max();
  if (a == 0 || b == 0) return 0;
  return a > max / b ? max : a * b;
}

/// Saturating add for sums of pair capacities.
inline uint64_t SaturatingAdd(uint64_t a, uint64_t b) {
  const uint64_t max = std::numeric_limits<uint64_t>::max();
  return a > max - b ? max : a + b;
}

/// Accumulates the frontier of a stopped branch-and-bound search into the
/// per-rank anytime certificate (QueryQuality::rank_lower_bounds).
///
/// Each Add records one unexpanded node pair: its MINMINDIST (power space)
/// and an upper bound on the point pairs beneath it (its capacity). The
/// sound per-rank bound is: sort entries by MINMINDIST ascending; the bound
/// for rank r is the MINMINDIST of the first entry whose cumulative
/// capacity exceeds r — at most r missing pairs can be closer, because
/// pairs closer than that entry's MINMINDIST must lie beneath the earlier
/// entries, whose capacities sum to at most r. (The naive "i-th smallest
/// frontier MINMINDIST" is unsound: all missing pairs could sit beneath
/// the single closest frontier pair.)
///
/// Memory stays O(ranks): entries with the largest MINMINDIST are pruned
/// once the smaller ones already cover every tracked rank.
class FrontierCertificate {
 public:
  /// `ranks` = how many ranks to certify (the query's K). 0 keeps only the
  /// scalar minimum.
  explicit FrontierCertificate(uint64_t ranks) : ranks_(ranks) {}

  void Add(double minmin_pow, uint64_t max_pairs) {
    min_pow_ = std::min(min_pow_, minmin_pow);
    if (ranks_ == 0 || max_pairs == 0) return;
    entries_.emplace_back(minmin_pow, max_pairs);
    std::push_heap(entries_.begin(), entries_.end());
    total_capacity_ += max_pairs;
    // Drop the largest-MINMINDIST entry while the rest still cover every
    // tracked rank: it can never decide a bound.
    while (!entries_.empty() &&
           total_capacity_ - entries_.front().second >= ranks_) {
      total_capacity_ -= entries_.front().second;
      std::pop_heap(entries_.begin(), entries_.end());
      entries_.pop_back();
    }
  }

  bool empty() const {
    return min_pow_ == std::numeric_limits<double>::infinity();
  }
  /// Scalar frontier minimum (power space); +infinity when nothing was
  /// folded (the search space was exhausted).
  double min_pow() const { return min_pow_; }

  /// Bounds for ranks 0..ranks-1 (power space), ascending. Ranks beyond
  /// the frontier's total capacity get +infinity: fewer missing pairs than
  /// that can exist beneath the frontier at all.
  std::vector<double> RankBoundsPow() const {
    std::vector<std::pair<double, uint64_t>> sorted = entries_;
    std::sort(sorted.begin(), sorted.end());
    std::vector<double> out;
    out.reserve(ranks_);
    uint64_t covered = 0;
    size_t next = 0;
    for (uint64_t r = 0; r < ranks_; ++r) {
      while (next < sorted.size() && covered <= r) {
        covered = SaturatingAdd(covered, sorted[next].second);
        ++next;
      }
      out.push_back(covered > r ? sorted[next - 1].first
                                : std::numeric_limits<double>::infinity());
    }
    return out;
  }

 private:
  uint64_t ranks_;
  double min_pow_ = std::numeric_limits<double>::infinity();
  uint64_t total_capacity_ = 0;
  /// Max-heap by MINMINDIST (std::push_heap default order on pair).
  std::vector<std::pair<double, uint64_t>> entries_;
};

}  // namespace kcpq

#endif  // KCPQ_COMMON_QUERY_CONTEXT_H_
