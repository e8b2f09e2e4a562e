// In-flight query registry + flight recorder: the data model behind the
// exporter's `/queries` endpoints.
//
// Every query registers a QueryObservation (obs/query_observation.h) on
// creation; the query thread updates it with relaxed atomics while the
// exporter renders `/queries` snapshots concurrently. On completion the
// observation is retired into a bounded ring of QuerySummary records (the
// flight recorder), which backs `/queries?state=done`, per-id trace /
// EXPLAIN retrieval, and the structured slow-query log. The registry
// mutex is taken only at register/complete/render time — never on the
// query hot path.

#ifndef KCPQ_OBS_QUERY_REGISTRY_H_
#define KCPQ_OBS_QUERY_REGISTRY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/explain.h"
#include "obs/query_observation.h"

namespace kcpq {
namespace obs {

/// Flight-recorder record of one completed (or rejected) query. Plain
/// value type; everything the slow-query log and `/queries?state=done`
/// render is self-contained here.
struct QuerySummary {
  uint64_t id = 0;
  std::string kind;       // "kcp", "self", "hs", "semi", ...
  std::string family;     // QueryFamilyName()
  std::string scheduler;  // "blocking" | "resumable" | "inline"
  std::string outcome;    // QueryOutcomeName(): "ok", "partial", ...
  double seconds = -1.0;  // < 0: timing was off (metrics disabled)
  uint64_t k = 0;
  uint64_t pairs = 0;  // result pairs returned

  uint64_t node_accesses = 0;
  uint64_t disk_accesses = 0;  // the paper's metric (physical page reads)
  uint64_t pages_read = 0;     // logical buffer reads seen by the context
  uint64_t io_parks = 0;

  /// Final certified bound: the anytime certificate when partial, the
  /// K-th result distance when exact. NaN when neither exists.
  double certified_bound = observation_internal::BitsToDouble(
      observation_internal::kNoBoundBits);
  bool bound_is_upper = false;  // farthest-family certificates
  bool exact = false;
  std::string stop_cause;  // empty when the query ran to completion

  uint64_t admission_estimate_bytes = 0;  // 0: no admission decision
  uint64_t peak_memory_bytes = 0;

  /// EXPLAIN pruning totals (filled when a PruningProfile was attached).
  LevelPruningCounts pruning;
  bool has_pruning = false;

  /// Retrieval blobs (single-query CLI path): the Chrome trace JSON
  /// exactly as `--trace-out` writes it, and the rendered EXPLAIN report.
  std::string trace_json;
  std::string explain_text;
};

/// One flat JSON object for a summary; `include_pruning` nests the
/// EXPLAIN totals (used by the slow-query log, skipped in `/queries`
/// listings so minimal parsers see flat objects only).
std::string SummaryJson(const QuerySummary& summary, bool include_pruning);

class QueryRegistry {
 public:
  /// `recorder_capacity` bounds the completed-query ring.
  explicit QueryRegistry(size_t recorder_capacity = 256);

  /// Process-wide instance the CLI/exporter share.
  static QueryRegistry& Global();

  /// Creates, publishes, and returns a live observation. The string
  /// arguments must be static-storage (the *Name() helpers qualify).
  std::shared_ptr<QueryObservation> Register(const char* kind,
                                             const char* family,
                                             const char* scheduler,
                                             uint64_t k);

  /// Retires a live observation into the flight recorder. `summary.id`
  /// is overwritten with the observation's id, and a pages_read the caller
  /// left at 0 is taken from the observation (the only live-side count
  /// the per-query stats record does not carry).
  void Complete(const std::shared_ptr<QueryObservation>& obs,
                QuerySummary summary);

  /// Records a query that never went live (e.g. admission-rejected).
  /// Assigns and returns an id.
  uint64_t Record(QuerySummary summary);

  /// {"queries":[...]} for state=live|done|all; each entry is one flat
  /// JSON object with a "state" field.
  std::string QueriesJson(const std::string& state) const;

  bool FindSummary(uint64_t id, QuerySummary* out) const;

  size_t live_count() const;
  size_t done_count() const;

  /// Test-only: drops all live observations and recorded summaries.
  void ResetForTest();

 private:
  mutable std::mutex mu_;
  uint64_t next_id_ = 1;
  std::map<uint64_t, std::shared_ptr<QueryObservation>> live_;
  size_t capacity_;
  std::vector<QuerySummary> done_;  // ring, oldest overwritten
  size_t done_next_ = 0;
  uint64_t done_total_ = 0;
};

}  // namespace obs
}  // namespace kcpq

#endif  // KCPQ_OBS_QUERY_REGISTRY_H_
