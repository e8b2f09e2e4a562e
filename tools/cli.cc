#include "tools/cli.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <map>
#include <memory>
#include <thread>

#include "buffer/buffer_manager.h"
#include "common/query_context.h"
#include "common/resumable.h"
#include "common/timer.h"
#include "cpq/cpq.h"
#include "cpq/resumable.h"
#include "cpq/resumable_semi.h"
#include "cpq/distance_join.h"
#include "cpq/multiway.h"
#include "cpq/planner.h"
#include "datagen/datagen.h"
#include "exec/batch.h"
#include "obs/explain.h"
#include "obs/http_exporter.h"
#include "obs/kcpq_metrics.h"
#include "obs/log.h"
#include "obs/metrics_registry.h"
#include "obs/query_registry.h"
#include "obs/trace.h"
#include "rtree/rtree.h"
#include "storage/file_storage.h"
#include "storage/mirrored_storage.h"
#include "storage/retrying_storage.h"
#include "storage/scrub.h"
#include "storage/stack.h"
#include "storage/uring_ring.h"
#include "tools/csv.h"

namespace kcpq {
namespace cli {

namespace {

// The meta page `build` guarantees (first allocation in a fresh store).
constexpr PageId kMetaPage = 0;

struct Flags {
  std::vector<std::string> positional;
  std::map<std::string, std::string> named;
};

// Splits args into positional parameters and --name=value flags.
Status ParseFlags(const std::vector<std::string>& args, Flags* flags) {
  for (const std::string& arg : args) {
    if (arg.rfind("--", 0) == 0) {
      const size_t eq = arg.find('=');
      if (eq == std::string::npos) {
        flags->named[arg.substr(2)] = "true";
      } else {
        flags->named[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
      }
    } else {
      flags->positional.push_back(arg);
    }
  }
  return Status::OK();
}

Status ParseNumber(const std::string& text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size() || text.empty()) {
    return Status::InvalidArgument("not a number: " + text);
  }
  return Status::OK();
}

Status ParseCount(const std::string& text, uint64_t* out) {
  double v;
  KCPQ_RETURN_IF_ERROR(ParseNumber(text, &v));
  if (v < 0 || v != static_cast<uint64_t>(v)) {
    return Status::InvalidArgument("not a non-negative integer: " + text);
  }
  *out = static_cast<uint64_t>(v);
  return Status::OK();
}

Result<CpqAlgorithm> ParseAlgorithm(const std::string& name) {
  if (name == "naive") return CpqAlgorithm::kNaive;
  if (name == "exh") return CpqAlgorithm::kExhaustive;
  if (name == "sim") return CpqAlgorithm::kSimple;
  if (name == "std") return CpqAlgorithm::kSortedDistances;
  if (name == "heap") return CpqAlgorithm::kHeap;
  return Status::InvalidArgument(
      "unknown algorithm '" + name + "' (naive|exh|sim|std|heap)");
}

Result<Metric> ParseMetric(const std::string& name) {
  if (name == "l1") return Metric::kL1;
  if (name == "l2") return Metric::kL2;
  if (name == "linf") return Metric::kLinf;
  return Status::InvalidArgument("unknown metric '" + name +
                                 "' (l1|l2|linf)");
}

Result<LeafKernel> ParseKernel(const std::string& name) {
  if (name == "nested") return LeafKernel::kNestedLoop;
  if (name == "sweep") return LeafKernel::kPlaneSweep;
  return Status::InvalidArgument("unknown leaf kernel '" + name +
                                 "' (nested|sweep)");
}

Result<QueryFamily> ParseFamily(const std::string& name) {
  if (name == "closest") return QueryFamily::kClosest;
  if (name == "farthest") return QueryFamily::kFarthest;
  if (name == "rcp") return QueryFamily::kRangeClosest;
  return Status::InvalidArgument("unknown query family '" + name +
                                 "' (closest|farthest|rcp)");
}

// Parses --rect=x1,y1,x2,y2 (the kRangeClosest restriction rectangle).
Status ParseRectFlag(const std::string& spec, Rect* rect) {
  double v[4];
  size_t pos = 0;
  for (int i = 0; i < 4; ++i) {
    size_t end = spec.find(',', pos);
    if ((i < 3) != (end != std::string::npos)) {
      return Status::InvalidArgument("--rect wants x1,y1,x2,y2: " + spec);
    }
    if (end == std::string::npos) end = spec.size();
    KCPQ_RETURN_IF_ERROR(ParseNumber(spec.substr(pos, end - pos), &v[i]));
    pos = end + 1;
  }
  rect->lo[0] = v[0];
  rect->lo[1] = v[1];
  rect->hi[0] = v[2];
  rect->hi[1] = v[3];
  if (!rect->IsValid()) {
    return Status::InvalidArgument("--rect has x1 > x2 or y1 > y2");
  }
  return Status::OK();
}

Result<AdmissionMode> ParseAdmissionMode(const std::string& name) {
  if (name == "off") return AdmissionMode::kOff;
  if (name == "advisory") return AdmissionMode::kAdvisory;
  if (name == "enforce") return AdmissionMode::kEnforce;
  return Status::InvalidArgument("unknown admission mode '" + name +
                                 "' (off|advisory|enforce)");
}

// Parses the admission-control flags for the batch path.
Status ParseAdmissionFlags(const Flags& flags, AdmissionOptions* admission) {
  if (const auto it = flags.named.find("admission");
      it != flags.named.end()) {
    KCPQ_ASSIGN_OR_RETURN(admission->mode, ParseAdmissionMode(it->second));
  }
  if (const auto it = flags.named.find("memory-pool-bytes");
      it != flags.named.end()) {
    KCPQ_RETURN_IF_ERROR(
        ParseCount(it->second, &admission->memory_pool_bytes));
  }
  if (const auto it = flags.named.find("admission-feedback");
      it != flags.named.end()) {
    double alpha;
    KCPQ_RETURN_IF_ERROR(ParseNumber(it->second, &alpha));
    if (alpha < 0.0 || alpha > 1.0) {
      return Status::InvalidArgument(
          "--admission-feedback must be in [0, 1]");
    }
    admission->feedback_alpha = alpha;
  }
  if (admission->feedback_alpha > 0.0 &&
      admission->mode == AdmissionMode::kOff) {
    return Status::InvalidArgument(
        "--admission-feedback requires --admission=advisory|enforce");
  }
  return Status::OK();
}

// Diagnostics flags shared by the query commands: --explain renders the
// EXPLAIN ANALYZE report, --trace-out dumps per-query spans as Chrome
// trace JSON, --stats-json writes the run's metrics-registry delta.
struct DiagnosticsFlags {
  bool explain = false;
  std::string trace_path;  // empty = no trace
  std::string stats_json_path;  // empty = no export
};

// Parses (and validates up front, like --admission) the diagnostics
// flags. --explain and --trace-out attach single-query instrumentation,
// so they reject the batch paths where many queries would fight over one
// profile/trace buffer.
Status ParseDiagnosticsFlags(const Flags& flags, uint64_t threads,
                             uint64_t repeat, AdmissionMode admission_mode,
                             DiagnosticsFlags* diag) {
  diag->explain = flags.named.count("explain") > 0;
  if (const auto it = flags.named.find("trace-out");
      it != flags.named.end()) {
    if (it->second.empty() || it->second == "true") {
      return Status::InvalidArgument("--trace-out needs a path: "
                                     "--trace-out=trace.json");
    }
    diag->trace_path = it->second;
  }
  if (const auto it = flags.named.find("stats-json");
      it != flags.named.end()) {
    if (it->second.empty() || it->second == "true") {
      return Status::InvalidArgument("--stats-json needs a path: "
                                     "--stats-json=stats.json");
    }
    diag->stats_json_path = it->second;
  }
  if (diag->explain || !diag->trace_path.empty()) {
    const char* flag = diag->explain ? "--explain" : "--trace-out";
    if (threads > 1 || repeat > 1) {
      return Status::InvalidArgument(
          std::string(flag) + " instruments a single query; drop "
          "--threads/--repeat");
    }
    if (admission_mode != AdmissionMode::kOff) {
      return Status::InvalidArgument(
          std::string(flag) +
          " runs outside the batch path; drop --admission");
    }
  }
  return Status::OK();
}

// Live telemetry flags: --obs-port starts the embedded HTTP exporter
// (obs/http_exporter.h; 0 = ephemeral port, printed on stdout so scripts
// can scrape it), --obs-linger-ms keeps it up after the command finishes
// so one-shot scrapers catch the final state, and --slow-query-log /
// --slow-query-ms configure the structured JSONL slow-query log.
struct ObsFlags {
  bool exporter = false;
  uint64_t port = 0;
  uint64_t linger_ms = 0;
  std::string slow_log_path;  // empty = slow-query log off
  double slow_query_ms = 0.0;
};

Status ParseObsFlags(const Flags& flags, ObsFlags* obs_flags) {
  if (const auto it = flags.named.find("obs-port"); it != flags.named.end()) {
    if (it->second.empty() || it->second == "true") {
      return Status::InvalidArgument(
          "--obs-port needs a port number (0 = ephemeral)");
    }
    KCPQ_RETURN_IF_ERROR(ParseCount(it->second, &obs_flags->port));
    if (obs_flags->port > 65535) {
      return Status::InvalidArgument("--obs-port must be in [0, 65535]");
    }
    obs_flags->exporter = true;
  }
  if (const auto it = flags.named.find("obs-linger-ms");
      it != flags.named.end()) {
    KCPQ_RETURN_IF_ERROR(ParseCount(it->second, &obs_flags->linger_ms));
    if (!obs_flags->exporter) {
      return Status::InvalidArgument("--obs-linger-ms requires --obs-port");
    }
  }
  if (const auto it = flags.named.find("slow-query-log");
      it != flags.named.end()) {
    if (it->second.empty() || it->second == "true") {
      return Status::InvalidArgument("--slow-query-log needs a path: "
                                     "--slow-query-log=slow.jsonl");
    }
    obs_flags->slow_log_path = it->second;
  }
  if (const auto it = flags.named.find("slow-query-ms");
      it != flags.named.end()) {
    KCPQ_RETURN_IF_ERROR(ParseNumber(it->second, &obs_flags->slow_query_ms));
    if (obs_flags->slow_query_ms < 0) {
      return Status::InvalidArgument("--slow-query-ms must be >= 0");
    }
    if (obs_flags->slow_log_path.empty()) {
      return Status::InvalidArgument(
          "--slow-query-ms requires --slow-query-log=PATH");
    }
  }
  return Status::OK();
}

Status WriteTextFile(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IoError("cannot open " + path + " for writing");
  }
  const size_t written = std::fwrite(text.data(), 1, text.size(), f);
  const bool closed = std::fclose(f) == 0;
  if (written != text.size() || !closed) {
    return Status::IoError("short write to " + path);
  }
  return Status::OK();
}

// Replication flags shared by the query commands (--replicas and the
// hedging knobs of storage/mirrored_storage.h). Single-replica (the
// default) opens the plain file store, no mirror.
struct ReplicationFlags {
  uint64_t replicas = 1;
  MirroredOptions mirrored;
  bool scrub = false;
};

Status ParseReplicationFlags(const Flags& flags, ReplicationFlags* rep) {
  if (const auto it = flags.named.find("replicas"); it != flags.named.end()) {
    KCPQ_RETURN_IF_ERROR(ParseCount(it->second, &rep->replicas));
    if (rep->replicas == 0 || rep->replicas > 8) {
      return Status::InvalidArgument("--replicas must be in [1, 8]");
    }
  }
  bool hedging = false;
  if (const auto it = flags.named.find("hedge"); it != flags.named.end()) {
    if (it->second == "off") {
      rep->mirrored.hedge.mode = HedgeMode::kOff;
    } else if (it->second == "static") {
      rep->mirrored.hedge.mode = HedgeMode::kStatic;
      hedging = true;
    } else if (it->second == "adaptive") {
      rep->mirrored.hedge.mode = HedgeMode::kAdaptive;
      hedging = true;
    } else {
      return Status::InvalidArgument(
          "--hedge must be off, static, or adaptive");
    }
  }
  if (const auto it = flags.named.find("hedge-after-us");
      it != flags.named.end()) {
    uint64_t us = 0;
    KCPQ_RETURN_IF_ERROR(ParseCount(it->second, &us));
    rep->mirrored.hedge.static_delay = std::chrono::microseconds(us);
    // A delay without a mode means static hedging with that delay.
    if (rep->mirrored.hedge.mode == HedgeMode::kOff) {
      rep->mirrored.hedge.mode = HedgeMode::kStatic;
    }
    hedging = true;
  }
  rep->scrub = flags.named.count("scrub") > 0;
  if ((hedging || rep->scrub) && rep->replicas < 2) {
    return Status::InvalidArgument(
        "--hedge/--hedge-after-us/--scrub need --replicas>=2");
  }
  return Status::OK();
}

// An opened database: file replicas (+ optional mirror and retry
// decorators) + buffer + tree, kept alive together.
struct Database {
  ReplicatedFileStack replicated;
  std::unique_ptr<RetryingStorageManager> retrying;
  std::unique_ptr<BufferManager> buffer;
  std::unique_ptr<RStarTree> tree;

  MirroredStorageManager* mirrored() { return replicated.mirrored.get(); }

  /// What the buffer manager should sit on: the retry decorator when
  /// --io-retries is in play, else the mirror (or the raw file when
  /// --replicas=1).
  StorageManager* top_storage() {
    return retrying != nullptr
               ? static_cast<StorageManager*>(retrying.get())
               : replicated.top();
  }
};

Status OpenDatabase(const std::string& path, size_t buffer_pages,
                    Database* db, uint64_t io_retries = 0,
                    const ReplicationFlags* rep = nullptr) {
  const size_t replicas =
      rep != nullptr ? static_cast<size_t>(rep->replicas) : 1;
  const MirroredOptions mirrored =
      rep != nullptr ? rep->mirrored : MirroredOptions{};
  KCPQ_RETURN_IF_ERROR(
      OpenReplicatedFileStack(path, replicas, mirrored, &db->replicated));
  if (io_retries > 0) {
    RetryPolicy policy;
    policy.max_retries = static_cast<int>(io_retries);
    db->retrying = std::make_unique<RetryingStorageManager>(
        db->replicated.top(), policy);
  }
  db->buffer =
      std::make_unique<BufferManager>(db->top_storage(), buffer_pages);
  KCPQ_ASSIGN_OR_RETURN(db->tree,
                        RStarTree::Open(db->buffer.get(), kMetaPage));
  return Status::OK();
}

// Parses the lifecycle-control flags shared by kcp / join / semi.
Status ParseControlFlags(const Flags& flags, QueryControl* control) {
  if (const auto it = flags.named.find("deadline-ms");
      it != flags.named.end()) {
    double ms;
    KCPQ_RETURN_IF_ERROR(ParseNumber(it->second, &ms));
    if (ms < 0) {
      return Status::InvalidArgument("--deadline-ms must be >= 0");
    }
    control->deadline =
        QueryControl::Clock::now() +
        std::chrono::duration_cast<QueryControl::Clock::duration>(
            std::chrono::duration<double, std::milli>(ms));
  }
  if (const auto it = flags.named.find("max-node-accesses");
      it != flags.named.end()) {
    KCPQ_RETURN_IF_ERROR(ParseCount(it->second, &control->max_node_accesses));
  }
  return Status::OK();
}

/// Window used by a bare `--prefetch=on` (the bench's sweet spot; see
/// bench/bench_prefetch.cc).
constexpr size_t kDefaultPrefetchWindow = 8;

// Parses --prefetch=on|off and --prefetch-window=N into a window size.
// --prefetch-window=N implies on (N = 0 is off); --prefetch=on alone uses
// kDefaultPrefetchWindow. Results are bit-identical either way — the flags
// only trade speculative I/O for wall-clock (docs/io.md).
Status ParsePrefetchFlags(const Flags& flags, size_t* window) {
  *window = 0;
  bool on = false;
  if (const auto it = flags.named.find("prefetch"); it != flags.named.end()) {
    if (it->second == "on" || it->second == "true") {
      on = true;
    } else if (it->second == "off") {
      if (flags.named.count("prefetch-window") > 0) {
        return Status::InvalidArgument(
            "--prefetch=off contradicts --prefetch-window");
      }
      return Status::OK();
    } else {
      return Status::InvalidArgument("--prefetch must be on or off");
    }
  }
  if (const auto it = flags.named.find("prefetch-window");
      it != flags.named.end()) {
    uint64_t w;
    KCPQ_RETURN_IF_ERROR(ParseCount(it->second, &w));
    *window = static_cast<size_t>(w);
    return Status::OK();
  }
  if (on) *window = kDefaultPrefetchWindow;
  return Status::OK();
}

void PrintQuality(std::FILE* out, const QueryQuality& quality) {
  if (!quality.is_partial()) return;
  std::fprintf(out,
               "# partial (%s): %llu pairs, guaranteed %s bound %g, "
               "exact: %s\n",
               StopCauseName(quality.stop_cause),
               static_cast<unsigned long long>(quality.pairs_found),
               quality.bound_is_upper ? "upper" : "lower",
               quality.guaranteed_lower_bound,
               quality.is_exact ? "yes" : "no");
  if (quality.missing_pair_bound > 0) {
    std::fprintf(out, "# quality: at most %llu qualifying pairs missing\n",
                 static_cast<unsigned long long>(
                     quality.missing_pair_bound));
  }
}

void PrintPairs(std::FILE* out, const std::vector<PairResult>& pairs) {
  for (size_t i = 0; i < pairs.size(); ++i) {
    std::fprintf(out, "%zu: (%g, %g) id=%llu <-> (%g, %g) id=%llu dist=%g\n",
                 i + 1, pairs[i].p.x(), pairs[i].p.y(),
                 static_cast<unsigned long long>(pairs[i].p_id),
                 pairs[i].q.x(), pairs[i].q.y(),
                 static_cast<unsigned long long>(pairs[i].q_id),
                 pairs[i].distance);
  }
}

void PrintQueryStats(std::FILE* out, const CpqStats& stats, double seconds,
                     SchedulerMode scheduler = SchedulerMode::kBlocking) {
  std::fprintf(out,
               "# disk accesses: %llu (P: %llu, Q: %llu); node pairs: %llu; "
               "distances: %llu; %.1f ms\n",
               static_cast<unsigned long long>(stats.disk_accesses()),
               static_cast<unsigned long long>(stats.disk_accesses_p),
               static_cast<unsigned long long>(stats.disk_accesses_q),
               static_cast<unsigned long long>(stats.node_pairs_processed),
               static_cast<unsigned long long>(
                   stats.point_distance_computations),
               seconds * 1e3);
  if (stats.prefetch_issued > 0) {
    std::fprintf(out, "# prefetch: issued %llu, hits %llu (%.1f%% hit)\n",
                 static_cast<unsigned long long>(stats.prefetch_issued),
                 static_cast<unsigned long long>(stats.prefetch_hits),
                 100.0 * static_cast<double>(stats.prefetch_hits) /
                     static_cast<double>(stats.prefetch_issued));
  }
  // Printed for every resumable query: zero parks is a result too (every
  // miss was served inline from the page cache).
  if (scheduler == SchedulerMode::kResumable) {
    std::fprintf(out, "# scheduler: %llu io parks, %.1f ms parked\n",
                 static_cast<unsigned long long>(stats.io_parks),
                 static_cast<double>(stats.io_parked_ns) / 1e6);
  }
}

// Parses --scheduler=blocking|resumable and --max-inflight=N (the latter
// implies nothing by itself; it caps concurrent in-flight queries of the
// resumable batch path).
Status ParseSchedulerFlags(const Flags& flags, SchedulerMode* mode,
                           size_t* max_inflight) {
  if (const auto it = flags.named.find("scheduler"); it != flags.named.end()) {
    if (it->second == "blocking") {
      *mode = SchedulerMode::kBlocking;
    } else if (it->second == "resumable") {
      *mode = SchedulerMode::kResumable;
    } else {
      return Status::InvalidArgument(
          "--scheduler must be blocking or resumable");
    }
  }
  if (const auto it = flags.named.find("max-inflight");
      it != flags.named.end()) {
    uint64_t n = 0;
    KCPQ_RETURN_IF_ERROR(ParseCount(it->second, &n));
    if (n == 0) {
      return Status::InvalidArgument("--max-inflight must be positive");
    }
    if (*mode != SchedulerMode::kResumable) {
      return Status::InvalidArgument(
          "--max-inflight requires --scheduler=resumable");
    }
    *max_inflight = static_cast<size_t>(n);
  }
  return Status::OK();
}

// The single-query commands drive one state machine on the calling thread.
// With no waker it reads inline; under --scheduler=resumable it parks on
// each miss and resumes through `gate`.
Waker WakerFor(SchedulerMode scheduler, InlineWakerGate& gate) {
  return scheduler == SchedulerMode::kResumable ? gate.waker() : Waker();
}

// Settles speculation while the query that issued it is still alive.
void DrainBoth(Database& p, Database& q) {
  p.buffer->DrainPrefetches();
  if (q.buffer.get() != p.buffer.get()) q.buffer->DrainPrefetches();
}

Status CmdGenerate(const Flags& flags, std::FILE* out) {
  if (flags.positional.size() != 4) {
    return Status::InvalidArgument(
        "usage: generate <uniform|sequoia> <n> <seed> <out.csv>");
  }
  uint64_t n, seed;
  KCPQ_RETURN_IF_ERROR(ParseCount(flags.positional[1], &n));
  KCPQ_RETURN_IF_ERROR(ParseCount(flags.positional[2], &seed));
  std::vector<Point> points;
  if (flags.positional[0] == "uniform") {
    points = GenerateUniform(n, UnitWorkspace(), seed);
  } else if (flags.positional[0] == "sequoia") {
    points = GenerateSequoiaLike(n, UnitWorkspace(), seed);
  } else {
    return Status::InvalidArgument("unknown distribution: " +
                                   flags.positional[0]);
  }
  std::vector<std::pair<Point, uint64_t>> items;
  items.reserve(points.size());
  for (size_t i = 0; i < points.size(); ++i) items.emplace_back(points[i], i);
  KCPQ_RETURN_IF_ERROR(WriteCsvPointFile(flags.positional[3], items));
  std::fprintf(out, "wrote %zu points to %s\n", items.size(),
               flags.positional[3].c_str());
  return Status::OK();
}

Status CmdBuild(const Flags& flags, std::FILE* out) {
  if (flags.positional.size() != 2) {
    return Status::InvalidArgument(
        "usage: build <in.csv> <out.db> [--bulk] [--page-size=N]");
  }
  KCPQ_ASSIGN_OR_RETURN(auto items, ReadCsvPointFile(flags.positional[0]));
  size_t page_size = kDefaultPageSize;
  if (const auto it = flags.named.find("page-size");
      it != flags.named.end()) {
    uint64_t v;
    KCPQ_RETURN_IF_ERROR(ParseCount(it->second, &v));
    page_size = v;
  }
  KCPQ_ASSIGN_OR_RETURN(
      auto storage, FileStorageManager::Create(flags.positional[1], page_size));
  BufferManager buffer(storage.get(), 0);
  Timer timer;
  std::unique_ptr<RStarTree> tree;
  if (flags.named.count("bulk") > 0) {
    KCPQ_ASSIGN_OR_RETURN(tree,
                          RStarTree::BulkLoad(&buffer, std::move(items)));
  } else {
    KCPQ_ASSIGN_OR_RETURN(tree, RStarTree::Create(&buffer));
    for (const auto& [p, id] : items) {
      KCPQ_RETURN_IF_ERROR(tree->Insert(p, id));
    }
  }
  KCPQ_RETURN_IF_ERROR(tree->Flush());
  if (tree->meta_page() != kMetaPage) {
    return Status::Internal("meta page landed off page 0");
  }
  std::fprintf(out,
               "built %s: %llu points, height %d, %llu pages, %.1f ms\n",
               flags.positional[1].c_str(),
               static_cast<unsigned long long>(tree->size()), tree->height(),
               static_cast<unsigned long long>(storage->PageCount()),
               timer.ElapsedMillis());
  return Status::OK();
}

Status CmdStats(const Flags& flags, std::FILE* out) {
  if (flags.positional.size() != 1) {
    return Status::InvalidArgument("usage: stats <db>");
  }
  Database db;
  KCPQ_RETURN_IF_ERROR(OpenDatabase(flags.positional[0], 0, &db));
  KCPQ_RETURN_IF_ERROR(db.tree->Validate());
  std::fprintf(out, "%s: %llu points, height %d, M=%zu m=%zu, valid\n",
               flags.positional[0].c_str(),
               static_cast<unsigned long long>(db.tree->size()),
               db.tree->height(), db.tree->max_entries(),
               db.tree->min_entries());
  std::vector<RStarTree::LevelStats> levels;
  KCPQ_RETURN_IF_ERROR(db.tree->CollectLevelStats(&levels));
  for (auto it = levels.rbegin(); it != levels.rend(); ++it) {
    std::fprintf(out, "  level %d: %llu nodes, %llu entries (%.1f%% fill)\n",
                 it->level, static_cast<unsigned long long>(it->nodes),
                 static_cast<unsigned long long>(it->entries),
                 100.0 * static_cast<double>(it->entries) /
                     (static_cast<double>(it->nodes) *
                      static_cast<double>(db.tree->max_entries())));
  }
  return Status::OK();
}

/// What --io-backend actually resolved to for the opened pair. `active`
/// differs from `want` (and `reason` is non-empty) when uring degraded to
/// the portable pool — commands print the banner line from this instead of
/// letting the downgrade pass silently.
struct IoBackendReport {
  bool requested = false;  // --io-backend was given at all
  IoBackend want = IoBackend::kThreadPool;
  IoBackend active = IoBackend::kThreadPool;
  std::string reason;

  void Print(std::FILE* out) const {
    if (!requested) return;
    if (reason.empty() && active == want) {
      std::fprintf(out, "# io: backend=%s\n", IoBackendName(active));
    } else {
      std::fprintf(out, "# io: backend=%s (requested %s: %s)\n",
                   IoBackendName(active), IoBackendName(want),
                   reason.c_str());
    }
  }
};

// Shared flag handling for the two-database query commands.
Status OpenPair(const Flags& flags, Database* p, Database* q,
                ReplicationFlags* rep_out = nullptr,
                IoBackendReport* io_out = nullptr) {
  uint64_t buffer_pages = 0;
  if (const auto it = flags.named.find("buffer"); it != flags.named.end()) {
    KCPQ_RETURN_IF_ERROR(ParseCount(it->second, &buffer_pages));
  }
  uint64_t io_retries = 0;
  if (const auto it = flags.named.find("io-retries");
      it != flags.named.end()) {
    KCPQ_RETURN_IF_ERROR(ParseCount(it->second, &io_retries));
  }
  ReplicationFlags rep;
  KCPQ_RETURN_IF_ERROR(ParseReplicationFlags(flags, &rep));
  if (rep_out != nullptr) *rep_out = rep;
  KCPQ_RETURN_IF_ERROR(OpenDatabase(flags.positional[0], buffer_pages / 2, p,
                                    io_retries, &rep));
  KCPQ_RETURN_IF_ERROR(OpenDatabase(flags.positional[1], buffer_pages / 2, q,
                                    io_retries, &rep));
  // Concurrent queries (--threads > 1) want sharded buffers: rebuild the
  // buffer layer with enough shards that workers rarely collide.
  uint64_t threads = 1;
  if (const auto it = flags.named.find("threads"); it != flags.named.end()) {
    KCPQ_RETURN_IF_ERROR(ParseCount(it->second, &threads));
  }
  if (threads > 1) {
    for (Database* db : {p, q}) {
      db->tree.reset();
      db->buffer = std::make_unique<BufferManager>(
          db->top_storage(), buffer_pages / 2, /*shards=*/64,
          [] { return MakeLruPolicy(); });
      KCPQ_ASSIGN_OR_RETURN(db->tree,
                            RStarTree::Open(db->buffer.get(), kMetaPage));
    }
  }
  // Async read backend for prefetching. `uring` degrades gracefully:
  // when the kernel refuses rings, the build lacks KCPQ_IOURING, or a
  // decorator (--io-retries / --replicas) routes async reads through the
  // portable pool, the pair falls back to `pool` and the reason is
  // surfaced via `io_out` (and the kcpq_io_backend_active gauge) instead
  // of silently downgrading or hard-failing.
  if (const auto it = flags.named.find("io-backend");
      it != flags.named.end()) {
    IoBackend backend;
    if (it->second == "sync") {
      backend = IoBackend::kSync;
    } else if (it->second == "pool") {
      backend = IoBackend::kThreadPool;
    } else if (it->second == "uring") {
      backend = IoBackend::kUring;
    } else {
      return Status::InvalidArgument(
          "--io-backend must be sync, pool, or uring");
    }
    std::string fallback_reason;
    if (backend == IoBackend::kUring) {
      // Ring tuning: the SQ depth rides --max-inflight (a deeper ring
      // buys nothing beyond the scheduler's in-flight bound), SQPOLL
      // stays opt-in.
      FileStorageManager::UringOptions uopt;
      if (const auto mi = flags.named.find("max-inflight");
          mi != flags.named.end()) {
        uint64_t inflight = 0;
        KCPQ_RETURN_IF_ERROR(ParseCount(mi->second, &inflight));
        if (inflight > 0) {
          uopt.sq_depth = static_cast<unsigned>(
              std::min<uint64_t>(std::max<uint64_t>(inflight, 8), 1024));
        }
      }
      uopt.sqpoll = flags.named.count("uring-sqpoll") > 0;
      for (Database* db : {p, q}) {
        if (auto* file =
                dynamic_cast<FileStorageManager*>(db->top_storage())) {
          file->ConfigureUring(uopt);
        }
      }
    }
    for (Database* db : {p, q}) {
      StorageManager* top = db->top_storage();
      IoBackend chosen = backend;
      if (backend == IoBackend::kUring &&
          !top->SupportsIoBackend(IoBackend::kUring)) {
        chosen = IoBackend::kThreadPool;
        if (fallback_reason.empty()) {
          fallback_reason =
              UringAvailable()
                  ? "storage stack routes async reads through the portable "
                    "pool (--io-retries / --replicas decorators)"
                  : UringUnavailableReason();
        }
      }
      KCPQ_RETURN_IF_ERROR(top->SetIoBackend(chosen));
      // Ring setup can still fail after the capability probe said yes
      // (e.g. RLIMIT_MEMLOCK); the manager records why and serves the
      // pool loop.
      if (top->ActiveIoBackend() != chosen && fallback_reason.empty()) {
        fallback_reason = top->IoBackendFallbackReason();
      }
    }
    // Both databases sit on identically-shaped stacks, so one report
    // covers the pair.
    const IoBackend active = p->top_storage()->ActiveIoBackend();
    if (io_out != nullptr) {
      io_out->requested = true;
      io_out->want = backend;
      io_out->active = active;
      io_out->reason = fallback_reason;
    }
    KCPQ_METRIC_SET(obs::KcpqMetrics::Get().io_backend_active,
                    static_cast<uint64_t>(active));
  }
  return Status::OK();
}

Status CmdKcp(const Flags& flags, std::FILE* out) {
  if (flags.positional.size() != 3) {
    return Status::InvalidArgument(
        "usage: kcp <p.db> <q.db> <K> [--algorithm=heap] [--metric=l2] "
        "[--query=closest|farthest|rcp] [--rect=x1,y1,x2,y2] "
        "[--buffer=N] [--fix-at-leaves] [--self] [--kernel=nested|sweep] "
        "[--threads=N] [--repeat=N] [--deadline-ms=N] "
        "[--max-node-accesses=N] [--io-retries=N] [--fail-fast] "
        "[--admission=off|advisory|enforce] [--memory-pool-bytes=N] "
        "[--admission-feedback=ALPHA] [--prefetch=on|off] "
        "[--prefetch-window=N] [--io-backend=sync|pool|uring] "
        "[--scheduler=blocking|resumable] [--max-inflight=N] "
        "[--replicas=N] [--hedge=off|static|adaptive] [--hedge-after-us=N] "
        "[--scrub] [--explain] [--trace-out=PATH] [--stats-json=PATH] "
        "[--obs-port=N] [--obs-linger-ms=N] [--slow-query-log=PATH] "
        "[--slow-query-ms=T]");
  }
  Database p, q;
  ReplicationFlags rep;
  IoBackendReport io_report;
  KCPQ_RETURN_IF_ERROR(OpenPair(flags, &p, &q, &rep, &io_report));
  io_report.Print(out);

  // Online scrub: background repair threads that walk the mirrors while
  // the buffers are idle (storage/scrub.h). Started before the query so
  // divergence seeded by earlier runs heals concurrently with it; the
  // summary prints after the scrubbers stop.
  std::vector<std::unique_ptr<BackgroundScrubber>> scrubbers;
  if (rep.scrub) {
    for (Database* db : {&p, &q}) {
      BufferManager* buf = db->buffer.get();
      scrubbers.push_back(std::make_unique<BackgroundScrubber>(
          db->mirrored(),
          [buf] { return buf->AggregateStats().logical_reads(); }));
    }
  }
  const auto finish_scrub = [&](std::FILE* o) {
    if (scrubbers.empty()) return;
    ScrubReport report;
    uint64_t sweeps = 0;
    for (auto& s : scrubbers) {
      s->Stop();
      report.Merge(s->report());
      sweeps += s->sweeps();
    }
    scrubbers.clear();
    std::fprintf(o,
                 "# scrub: scanned %llu pages, %llu divergent, %llu replica "
                 "copies repaired, %llu full sweeps\n",
                 static_cast<unsigned long long>(report.pages_scanned),
                 static_cast<unsigned long long>(report.pages_divergent),
                 static_cast<unsigned long long>(report.replicas_repaired),
                 static_cast<unsigned long long>(sweeps));
  };
  CpqOptions options;
  KCPQ_RETURN_IF_ERROR(ParseCount(flags.positional[2], &options.k));
  if (const auto it = flags.named.find("algorithm"); it != flags.named.end()) {
    KCPQ_ASSIGN_OR_RETURN(options.algorithm, ParseAlgorithm(it->second));
  }
  if (const auto it = flags.named.find("metric"); it != flags.named.end()) {
    KCPQ_ASSIGN_OR_RETURN(options.metric, ParseMetric(it->second));
  }
  if (const auto it = flags.named.find("query"); it != flags.named.end()) {
    KCPQ_ASSIGN_OR_RETURN(options.family, ParseFamily(it->second));
  }
  if (const auto it = flags.named.find("rect"); it != flags.named.end()) {
    KCPQ_RETURN_IF_ERROR(ParseRectFlag(it->second, &options.query_rect));
  }
  if ((options.family == QueryFamily::kRangeClosest) !=
      (flags.named.count("rect") > 0)) {
    return Status::InvalidArgument(
        "--query=rcp and --rect=x1,y1,x2,y2 go together (both or neither)");
  }
  if (const auto it = flags.named.find("kernel"); it != flags.named.end()) {
    KCPQ_ASSIGN_OR_RETURN(options.leaf_kernel, ParseKernel(it->second));
  }
  if (flags.named.count("fix-at-leaves") > 0) {
    options.height_strategy = HeightStrategy::kFixAtLeaves;
  }
  options.self_join = flags.named.count("self") > 0;
  KCPQ_RETURN_IF_ERROR(ParsePrefetchFlags(flags, &options.prefetch_window));

  uint64_t threads = 1;
  uint64_t repeat = 1;
  if (const auto it = flags.named.find("threads"); it != flags.named.end()) {
    KCPQ_RETURN_IF_ERROR(ParseCount(it->second, &threads));
    if (threads == 0) threads = 1;
  }
  if (const auto it = flags.named.find("repeat"); it != flags.named.end()) {
    KCPQ_RETURN_IF_ERROR(ParseCount(it->second, &repeat));
    if (repeat == 0) repeat = 1;
  }

  // Parsed up front so a bad value fails even in single-query mode; a
  // non-off mode routes a single query through the batch path (a batch
  // of one), which is where the controller lives.
  AdmissionOptions admission;
  KCPQ_RETURN_IF_ERROR(ParseAdmissionFlags(flags, &admission));

  SchedulerMode scheduler = SchedulerMode::kBlocking;
  size_t max_inflight = 0;
  KCPQ_RETURN_IF_ERROR(ParseSchedulerFlags(flags, &scheduler, &max_inflight));

  DiagnosticsFlags diag;
  KCPQ_RETURN_IF_ERROR(
      ParseDiagnosticsFlags(flags, threads, repeat, admission.mode, &diag));
  obs::MetricsSnapshot metrics_before;
  if (!diag.stats_json_path.empty()) {
    metrics_before = obs::MetricsRegistry::Global().Snapshot();
  }
  // Deferred so both the batch and single-query paths export on success.
  const auto write_stats_json = [&]() -> Status {
    if (diag.stats_json_path.empty()) return Status::OK();
    const obs::MetricsSnapshot delta = obs::MetricsSnapshot::Delta(
        metrics_before, obs::MetricsRegistry::Global().Snapshot());
    return WriteTextFile(diag.stats_json_path, delta.ToJson() + "\n");
  };

  // Live telemetry: the embedded exporter (scraped while the queries run)
  // and the slow-query log. Both feed off the global QueryRegistry, which
  // every query of this command registers with when either is on.
  ObsFlags obs_flags;
  KCPQ_RETURN_IF_ERROR(ParseObsFlags(flags, &obs_flags));
  std::unique_ptr<obs::SlowQueryLog> slow_log;
  if (!obs_flags.slow_log_path.empty()) {
    slow_log = std::make_unique<obs::SlowQueryLog>(obs_flags.slow_log_path,
                                                   obs_flags.slow_query_ms);
  }
  obs::HttpExporter exporter;
  if (obs_flags.exporter) {
    std::string error;
    if (!exporter.Start(static_cast<uint16_t>(obs_flags.port),
                        &obs::QueryRegistry::Global(), &error)) {
      return Status::IoError("cannot start telemetry exporter: " + error);
    }
    // Scripts (tools/kcpq_top, CI smokes) parse this line for the bound
    // port, so it is flushed before any query work starts.
    std::fprintf(out, "# obs: exporter listening on 127.0.0.1:%u\n",
                 static_cast<unsigned>(exporter.port()));
    std::fflush(out);
  }
  const bool obs_on = obs_flags.exporter || slow_log != nullptr;
  // Keeps the exporter scrapeable after the last query completes, so
  // one-shot scrapers racing the batch still see the final state. The
  // results are flushed first: `kcpq_top --stdin-endpoint` scrapes when
  // the first result line reaches it.
  const auto finish_obs = [&] {
    if (exporter.running() && obs_flags.linger_ms > 0) {
      std::fflush(out);
      std::this_thread::sleep_for(
          std::chrono::milliseconds(obs_flags.linger_ms));
    }
  };

  if (threads > 1 || repeat > 1 || admission.mode != AdmissionMode::kOff) {
    // Batch mode: the same query `repeat` times across `threads` workers —
    // the multi-client throughput scenario (src/exec/batch.h). The
    // deadline / budget flags apply batch-wide here.
    std::vector<BatchQuery> batch(repeat);
    for (BatchQuery& bq : batch) bq.options = options;
    BatchOptions batch_options;
    batch_options.threads = static_cast<size_t>(threads);
    KCPQ_RETURN_IF_ERROR(ParseControlFlags(flags, &batch_options.control));
    batch_options.cancel_batch_on_first_failure =
        flags.named.count("fail-fast") > 0;
    batch_options.admission = admission;
    batch_options.scheduler = scheduler;
    batch_options.max_inflight = max_inflight;
    if (obs_on) batch_options.query_registry = &obs::QueryRegistry::Global();
    batch_options.slow_log = slow_log.get();
    BatchStats batch_stats;
    Timer timer;
    const std::vector<BatchQueryResult> results = BatchKClosestPairs(
        *p.tree, *q.tree, batch, batch_options, &batch_stats);
    const double seconds = timer.ElapsedSeconds();
    // A shed query is an expected outcome under --admission=enforce, not a
    // command failure; any other error Status still fails the command.
    const BatchQueryResult* first_run = nullptr;
    for (const BatchQueryResult& r : results) {
      if (r.outcome == QueryOutcome::kRejected) continue;
      KCPQ_RETURN_IF_ERROR(r.status);
      if (first_run == nullptr) first_run = &r;
    }
    if (first_run != nullptr) {
      PrintPairs(out, first_run->pairs);
      PrintQuality(out, first_run->stats.quality);
      PrintQueryStats(out, first_run->stats, seconds, batch_options.scheduler);
    }
    std::fprintf(out,
                 "batch: %llu queries on %llu threads in %.3f s "
                 "(%.1f queries/s); outcomes: ok=%llu partial=%llu "
                 "cancelled=%llu failed=%llu rejected=%llu\n",
                 static_cast<unsigned long long>(repeat),
                 static_cast<unsigned long long>(threads), seconds,
                 static_cast<double>(repeat) / seconds,
                 static_cast<unsigned long long>(batch_stats.ok),
                 static_cast<unsigned long long>(batch_stats.partial),
                 static_cast<unsigned long long>(batch_stats.cancelled),
                 static_cast<unsigned long long>(batch_stats.failed),
                 static_cast<unsigned long long>(batch_stats.rejected));
    if (batch_options.admission.mode != AdmissionMode::kOff) {
      std::fprintf(out,
                   "admission (%s): pool=%llu B, would-reject=%llu\n",
                   AdmissionModeName(batch_options.admission.mode),
                   static_cast<unsigned long long>(
                       batch_options.admission.memory_pool_bytes),
                   static_cast<unsigned long long>(
                       batch_stats.admission_would_reject));
    }
    if (rep.replicas > 1) {
      std::fprintf(
          out,
          "replication (%llu replicas, hedge=%s): failovers=%llu "
          "repairs=%llu hedged=%llu hedge-wins=%llu\n",
          static_cast<unsigned long long>(rep.replicas),
          HedgeModeName(rep.mirrored.hedge.mode),
          static_cast<unsigned long long>(batch_stats.failover_reads),
          static_cast<unsigned long long>(batch_stats.read_repairs),
          static_cast<unsigned long long>(batch_stats.hedged_reads),
          static_cast<unsigned long long>(batch_stats.hedge_wins));
    }
    finish_scrub(out);
    finish_obs();
    return write_stats_json();
  }

  KCPQ_RETURN_IF_ERROR(ParseControlFlags(flags, &options.control));

  // Single-query instrumentation: a context owning the pruning profile
  // (--explain) and/or the trace ring (--trace-out), plus the buffer
  // counters of this thread before the query so the report can show the
  // query's own hits/misses. With telemetry on, both are attached
  // unconditionally so the flight recorder can serve
  // /queries/<id>/trace and /queries/<id>/explain afterwards.
  QueryContext ctx(options.control);
  obs::PruningProfile profile;
  obs::TraceBuffer trace;
  const bool want_profile = diag.explain || obs_on;
  const bool want_trace = !diag.trace_path.empty() || obs_on;
  if (want_profile || want_trace) {
    if (want_profile) ctx.set_profile(&profile);
    if (want_trace) ctx.set_trace(&trace);
    options.context = &ctx;
  }
  std::shared_ptr<obs::QueryObservation> live;
  if (obs_on) {
    live = obs::QueryRegistry::Global().Register(
        options.self_join ? "self" : "kcp", QueryFamilyName(options.family),
        scheduler == SchedulerMode::kResumable ? "resumable" : "inline",
        options.k);
    ctx.set_observation(live.get());
  }
  const BufferStats buffer_before_p = p.buffer->ThreadStats();
  const BufferStats buffer_before_q = q.buffer->ThreadStats();

  CpqStats stats;
  Timer timer;
  std::vector<PairResult> pairs;
  {
    // The one state machine, read inline under the blocking scheduler or
    // parking through an InlineWakerGate under the resumable one, so
    // --explain/--trace observe exactly what a multiplexed worker would.
    InlineWakerGate gate;
    ResumableCpqQuery task(*p.tree, *q.tree, options, &stats,
                           WakerFor(scheduler, gate));
    gate.RunToCompletion(task);
    DrainBoth(p, q);
    KCPQ_RETURN_IF_ERROR(task.status());
    pairs = task.TakeResults();
  }
  const double seconds = timer.ElapsedSeconds();
  PrintPairs(out, pairs);
  PrintQuality(out, stats.quality);
  PrintQueryStats(out, stats, seconds, scheduler);

  if (rep.replicas > 1) {
    // Store-level replication tallies (covers the whole command, tree
    // open included). Drain first so in-flight hedge losers are counted.
    MirroredStats rstats;
    for (Database* db : {&p, &q}) {
      db->mirrored()->DrainHedges();
      const MirroredStats& s = db->mirrored()->mirrored_stats();
      rstats.failovers += s.failovers;
      rstats.repairs += s.repairs;
      rstats.hedges_issued += s.hedges_issued;
      rstats.hedge_wins += s.hedge_wins;
    }
    std::fprintf(out,
                 "# replication (%llu replicas, hedge=%s): failovers=%llu "
                 "repairs=%llu hedged=%llu hedge-wins=%llu\n",
                 static_cast<unsigned long long>(rep.replicas),
                 HedgeModeName(rep.mirrored.hedge.mode),
                 static_cast<unsigned long long>(rstats.failovers),
                 static_cast<unsigned long long>(rstats.repairs),
                 static_cast<unsigned long long>(rstats.hedges_issued),
                 static_cast<unsigned long long>(rstats.hedge_wins));
  }

  std::string explain_text;
  uint64_t admission_estimate_bytes = 0;
  if (want_profile) {
    const BufferStats after_p = p.buffer->ThreadStats();
    const BufferStats after_q = q.buffer->ThreadStats();

    // The cost model's view of this query, for the estimate-vs-measured
    // line (an advisory controller is just the estimator).
    AdmissionOptions estimate_options;
    estimate_options.mode = AdmissionMode::kAdvisory;
    AdmissionController estimator(
        estimate_options, p.tree->size(), q.tree->size(),
        p.tree->max_entries(), p.tree->buffer()->storage()->page_size());
    BatchQuery query;
    query.kind = options.self_join ? BatchQueryKind::kSelfClosestPairs
                                   : BatchQueryKind::kClosestPairs;
    query.options = options;

    const QueryObjective objective(options.family, options.metric,
                                   options.query_rect);
    obs::ExplainInputs inputs;
    inputs.algorithm = CpqAlgorithmName(options.algorithm);
    inputs.leaf_kernel = options.leaf_kernel == LeafKernel::kPlaneSweep
                             ? "plane-sweep"
                             : "nested-loop";
    inputs.family = QueryFamilyName(options.family);
    inputs.bound_is_upper = objective.BoundIsUpper();
    switch (options.family) {
      case QueryFamily::kClosest:
        break;  // keep the default caption (and the pre-policy goldens)
      case QueryFamily::kFarthest:
        inputs.prune_rule =
            "Inequality 1 = MAXMAXDIST < T; order = worst-first cutoff";
        break;
      case QueryFamily::kRangeClosest:
        inputs.prune_rule =
            "Inequality 1 = MINMINDIST > T; order = best-first cutoff; "
            "rect-ineligible subtrees skipped before candidacy";
        break;
    }
    // The objective's prefetch pop order, so the wasted count is read
    // against the right speculation order (closest keeps the legacy
    // unlabelled rendering).
    if (options.family != QueryFamily::kClosest) {
      inputs.prefetch_pop_order = objective.minimizing()
                                      ? "MINMINDIST ascending"
                                      : "MAXMAXDIST descending";
    }
    inputs.k = options.k;
    inputs.results_returned = pairs.size();
    inputs.result_max_distance =
        pairs.empty() ? -1.0 : pairs.back().distance;
    inputs.node_pairs_processed = stats.node_pairs_processed;
    inputs.candidate_pairs_generated = stats.candidate_pairs_generated;
    inputs.candidate_pairs_pruned = stats.candidate_pairs_pruned;
    inputs.point_distance_computations = stats.point_distance_computations;
    inputs.leaf_pairs_skipped = stats.leaf_pairs_skipped;
    inputs.max_heap_size = stats.max_heap_size;
    inputs.node_accesses = stats.node_accesses;
    inputs.disk_accesses = stats.disk_accesses();
    inputs.buffer_hits =
        (after_p.hits - buffer_before_p.hits) +
        (after_q.hits - buffer_before_q.hits);
    inputs.buffer_misses =
        (after_p.misses - buffer_before_p.misses) +
        (after_q.misses - buffer_before_q.misses);
    inputs.prefetch_issued = stats.prefetch_issued;
    inputs.prefetch_hits = stats.prefetch_hits;
    // The engine drained speculation before returning, so pending should
    // be 0 and wasted == issued - hits; pending is surfaced as a leak
    // indicator rather than asserted.
    inputs.prefetch_pending =
        p.buffer->prefetch_inflight() + p.buffer->prefetch_staged();
    if (q.buffer.get() != p.buffer.get()) {
      inputs.prefetch_pending +=
          q.buffer->prefetch_inflight() + q.buffer->prefetch_staged();
    }
    const uint64_t prefetch_claimed =
        stats.prefetch_hits + inputs.prefetch_pending;
    inputs.prefetch_wasted = stats.prefetch_issued > prefetch_claimed
                                 ? stats.prefetch_issued - prefetch_claimed
                                 : 0;
    inputs.admission_estimate_bytes = estimator.EstimateQueryBytes(query);
    inputs.measured_peak_bytes = ctx.accountant().peak_total_bytes();
    if (rep.replicas > 1) {
      const ReplicationStats& r = ctx.replication();
      inputs.replicas = rep.replicas;
      inputs.hedge_mode = HedgeModeName(rep.mirrored.hedge.mode);
      inputs.failover_reads = r.failover_reads;
      inputs.read_repairs = r.read_repairs;
      inputs.hedged_reads = r.hedged_reads;
      inputs.hedge_wins = r.hedge_wins;
    }
    if (scheduler == SchedulerMode::kResumable) {
      inputs.scheduler = "resumable";
      inputs.io_parks = stats.io_parks;
      inputs.io_parked_seconds =
          static_cast<double>(stats.io_parked_ns) / 1e9;
    }
    if (io_report.requested) {
      inputs.io_backend = IoBackendName(io_report.active);
      inputs.io_fallback_reason = io_report.reason;
      if (io_report.active == IoBackend::kUring) {
        IoEventLoopStats uring{};
        for (Database* db : {&p, &q}) {
          if (auto* file =
                  dynamic_cast<FileStorageManager*>(db->top_storage())) {
            const IoEventLoopStats s = file->UringStats();
            uring.batches_submitted += s.batches_submitted;
            uring.reads_submitted += s.reads_submitted;
            uring.cqe_wakes += s.cqe_wakes;
            uring.sq_full_stalls += s.sq_full_stalls;
            inputs.inline_reads += file->inline_reads();
            if (const IoEventLoop* loop = file->uring_loop()) {
#if defined(__linux__) && KCPQ_HAVE_IOURING
              const auto* ul = static_cast<const UringEventLoop*>(loop);
              inputs.uring_sqpoll = inputs.uring_sqpoll || ul->sqpoll_active();
              inputs.uring_fixed_buffers =
                  inputs.uring_fixed_buffers || ul->fixed_buffers_active();
#endif
            }
          }
        }
        inputs.uring_batches = uring.batches_submitted;
        inputs.uring_reads = uring.reads_submitted;
        inputs.uring_cqe_wakes = uring.cqe_wakes;
        inputs.uring_sq_full_stalls = uring.sq_full_stalls;
      }
    }
    inputs.complete = !stats.quality.is_partial();
    if (!inputs.complete) {
      inputs.stop_cause = StopCauseName(stats.quality.stop_cause);
      inputs.quality_bound = stats.quality.guaranteed_lower_bound;
    }
    inputs.seconds = seconds;
    admission_estimate_bytes = inputs.admission_estimate_bytes;
    explain_text = RenderExplainReport(inputs, profile);
    if (diag.explain) std::fputs(explain_text.c_str(), out);
  }

  // Rendered once so the --trace-out file and the exporter's
  // /queries/<id>/trace body come from the same bytes.
  std::string trace_json;
  if (want_trace) trace_json = obs::ChromeTraceJson(trace);
  if (!diag.trace_path.empty()) {
    KCPQ_RETURN_IF_ERROR(WriteTextFile(diag.trace_path, trace_json + "\n"));
    std::fprintf(out, "# trace: %llu events (%llu dropped) -> %s\n",
                 static_cast<unsigned long long>(trace.total_recorded()),
                 static_cast<unsigned long long>(trace.dropped()),
                 diag.trace_path.c_str());
  }

  if (obs_on) {
    obs::QuerySummary s;
    s.kind = options.self_join ? "self" : "kcp";
    s.family = QueryFamilyName(options.family);
    s.scheduler =
        scheduler == SchedulerMode::kResumable ? "resumable" : "inline";
    QueryOutcome outcome = QueryOutcome::kOk;
    if (stats.quality.stop_cause == StopCause::kCancelled) {
      outcome = QueryOutcome::kCancelled;
    } else if (stats.quality.is_partial()) {
      outcome = QueryOutcome::kPartial;
    }
    s.outcome = QueryOutcomeName(outcome);
    s.seconds = seconds;
    s.k = options.k;
    s.pairs = pairs.size();
    s.node_accesses = stats.node_accesses;
    s.disk_accesses = stats.disk_accesses();
    s.io_parks = stats.io_parks;
    s.bound_is_upper = stats.quality.bound_is_upper;
    if (stats.quality.is_partial()) {
      s.stop_cause = StopCauseName(stats.quality.stop_cause);
      s.certified_bound = stats.quality.guaranteed_lower_bound;
      s.exact = stats.quality.is_exact;
    } else if (!pairs.empty()) {
      s.certified_bound = pairs.back().distance;
      s.exact = true;
    } else {
      s.exact = true;
    }
    s.admission_estimate_bytes = admission_estimate_bytes;
    s.peak_memory_bytes = ctx.accountant().peak_total_bytes();
    s.pruning = profile.Totals();
    s.has_pruning = true;
    s.trace_json = trace_json;
    s.explain_text = explain_text;
    s.id = live->id;
    s.pages_read = live->pages_read.load(std::memory_order_relaxed);
    if (slow_log != nullptr) slow_log->MaybeRecord(s);
    obs::QueryRegistry::Global().Complete(live, std::move(s));
  }
  finish_scrub(out);
  finish_obs();
  return write_stats_json();
}

Status CmdJoin(const Flags& flags, std::FILE* out) {
  if (flags.positional.size() != 3) {
    return Status::InvalidArgument(
        "usage: join <p.db> <q.db> <epsilon> [--metric=l2] [--buffer=N] "
        "[--max-results=N] [--self] [--deadline-ms=N] "
        "[--max-node-accesses=N] [--io-retries=N]");
  }
  Database p, q;
  KCPQ_RETURN_IF_ERROR(OpenPair(flags, &p, &q));
  double epsilon;
  KCPQ_RETURN_IF_ERROR(ParseNumber(flags.positional[2], &epsilon));
  DistanceJoinOptions options;
  if (const auto it = flags.named.find("metric"); it != flags.named.end()) {
    KCPQ_ASSIGN_OR_RETURN(options.metric, ParseMetric(it->second));
  }
  if (const auto it = flags.named.find("max-results");
      it != flags.named.end()) {
    KCPQ_RETURN_IF_ERROR(ParseCount(it->second, &options.max_results));
  }
  options.self_join = flags.named.count("self") > 0;
  KCPQ_RETURN_IF_ERROR(ParseControlFlags(flags, &options.control));
  CpqStats stats;
  Timer timer;
  KCPQ_ASSIGN_OR_RETURN(
      const std::vector<PairResult> pairs,
      DistanceRangeJoin(*p.tree, *q.tree, epsilon, options, &stats));
  PrintPairs(out, pairs);
  PrintQuality(out, stats.quality);
  PrintQueryStats(out, stats, timer.ElapsedSeconds());
  return Status::OK();
}

Status CmdMultiway(const Flags& flags, std::FILE* out) {
  if (flags.positional.size() < 3) {
    return Status::InvalidArgument(
        "usage: multiway <db1> <db2> [<db3> ...] <K> "
        "[--edges=0-1,1-2] — closest tuples over m trees; edges default "
        "to a chain");
  }
  const size_t m = flags.positional.size() - 1;
  uint64_t k;
  KCPQ_RETURN_IF_ERROR(ParseCount(flags.positional.back(), &k));

  std::vector<std::unique_ptr<Database>> databases;
  std::vector<const RStarTree*> trees;
  for (size_t i = 0; i < m; ++i) {
    auto db = std::make_unique<Database>();
    KCPQ_RETURN_IF_ERROR(OpenDatabase(flags.positional[i], 0, db.get()));
    trees.push_back(db->tree.get());
    databases.push_back(std::move(db));
  }

  std::vector<MultiwayEdge> graph;
  if (const auto it = flags.named.find("edges"); it != flags.named.end()) {
    // "0-1,1-2" -> {{0,1},{1,2}}.
    size_t pos = 0;
    const std::string& spec = it->second;
    while (pos < spec.size()) {
      size_t end = spec.find(',', pos);
      if (end == std::string::npos) end = spec.size();
      const std::string edge = spec.substr(pos, end - pos);
      const size_t dash = edge.find('-');
      if (dash == std::string::npos) {
        return Status::InvalidArgument("bad edge '" + edge +
                                       "' (want a-b)");
      }
      uint64_t a, b;
      KCPQ_RETURN_IF_ERROR(ParseCount(edge.substr(0, dash), &a));
      KCPQ_RETURN_IF_ERROR(ParseCount(edge.substr(dash + 1), &b));
      graph.push_back({static_cast<int>(a), static_cast<int>(b)});
      pos = end + 1;
    }
  } else {
    for (size_t i = 0; i + 1 < m; ++i) {
      graph.push_back({static_cast<int>(i), static_cast<int>(i) + 1});
    }
  }

  MultiwayOptions options;
  options.k = k;
  CpqStats stats;
  Timer timer;
  KCPQ_ASSIGN_OR_RETURN(const std::vector<TupleResult> tuples,
                        MultiwayKClosestTuples(trees, graph, options, &stats));
  for (size_t i = 0; i < tuples.size(); ++i) {
    std::fprintf(out, "%zu:", i + 1);
    for (size_t j = 0; j < tuples[i].ids.size(); ++j) {
      std::fprintf(out, " (%g, %g) id=%llu", tuples[i].points[j].x(),
                   tuples[i].points[j].y(),
                   static_cast<unsigned long long>(tuples[i].ids[j]));
    }
    std::fprintf(out, " aggregate=%g\n", tuples[i].aggregate_distance);
  }
  std::fprintf(out, "# disk accesses: %llu; tuple heap max: %llu; %.1f ms\n",
               static_cast<unsigned long long>(stats.disk_accesses()),
               static_cast<unsigned long long>(stats.max_heap_size),
               timer.ElapsedMillis());
  return Status::OK();
}

Status CmdPlan(const Flags& flags, std::FILE* out) {
  if (flags.positional.size() != 3) {
    return Status::InvalidArgument(
        "usage: plan <p.db> <q.db> <K> [--buffer=N] — explain the "
        "optimizer's choice without running the query");
  }
  Database p, q;
  KCPQ_RETURN_IF_ERROR(OpenPair(flags, &p, &q));
  uint64_t k;
  KCPQ_RETURN_IF_ERROR(ParseCount(flags.positional[2], &k));
  uint64_t buffer_pages = 0;
  if (const auto it = flags.named.find("buffer"); it != flags.named.end()) {
    KCPQ_RETURN_IF_ERROR(ParseCount(it->second, &buffer_pages));
  }
  KCPQ_ASSIGN_OR_RETURN(const CpqPlan plan,
                        PlanKClosestPairs(*p.tree, *q.tree, k, buffer_pages));
  std::fprintf(out,
               "plan: algorithm=%s height=%s k=%llu\n"
               "estimated overlap: %.1f%%\n"
               "estimated disk accesses: %.0f\n"
               "rationale: %s\n",
               CpqAlgorithmName(plan.options.algorithm),
               plan.options.height_strategy == HeightStrategy::kFixAtRoot
                   ? "fix-at-root"
                   : "fix-at-leaves",
               static_cast<unsigned long long>(k),
               plan.estimated_overlap * 100, plan.estimated_disk_accesses,
               plan.rationale.c_str());
  return Status::OK();
}

Status CmdSemi(const Flags& flags, std::FILE* out) {
  if (flags.positional.size() != 2) {
    return Status::InvalidArgument(
        "usage: semi <p.db> <q.db> [--buffer=N] [--deadline-ms=N] "
        "[--max-node-accesses=N] [--io-retries=N] "
        "[--io-backend=sync|pool|uring] [--scheduler=blocking|resumable] "
        "— nearest Q point for every P point");
  }
  Database p, q;
  IoBackendReport io_report;
  KCPQ_RETURN_IF_ERROR(OpenPair(flags, &p, &q, nullptr, &io_report));
  io_report.Print(out);
  QueryControl control;
  KCPQ_RETURN_IF_ERROR(ParseControlFlags(flags, &control));
  SchedulerMode scheduler = SchedulerMode::kBlocking;
  size_t max_inflight = 0;
  KCPQ_RETURN_IF_ERROR(ParseSchedulerFlags(flags, &scheduler, &max_inflight));
  CpqStats stats;
  Timer timer;
  std::vector<PairResult> pairs;
  {
    // Same single-query shape as kcp.
    InlineWakerGate gate;
    ResumableSemiQuery task(*p.tree, *q.tree, &stats, control, nullptr,
                            WakerFor(scheduler, gate));
    gate.RunToCompletion(task);
    DrainBoth(p, q);
    KCPQ_RETURN_IF_ERROR(task.status());
    pairs = task.TakeResults();
  }
  PrintPairs(out, pairs);
  PrintQuality(out, stats.quality);
  PrintQueryStats(out, stats, timer.ElapsedSeconds(), scheduler);
  return Status::OK();
}

Status CmdKnn(const Flags& flags, std::FILE* out) {
  if (flags.positional.size() != 4) {
    return Status::InvalidArgument("usage: knn <db> <x> <y> <k>");
  }
  Database db;
  KCPQ_RETURN_IF_ERROR(OpenDatabase(flags.positional[0], 0, &db));
  Point query;
  uint64_t k;
  KCPQ_RETURN_IF_ERROR(ParseNumber(flags.positional[1], &query.coord[0]));
  KCPQ_RETURN_IF_ERROR(ParseNumber(flags.positional[2], &query.coord[1]));
  KCPQ_RETURN_IF_ERROR(ParseCount(flags.positional[3], &k));
  std::vector<Neighbor> neighbors;
  KCPQ_RETURN_IF_ERROR(db.tree->NearestNeighbors(query, k, &neighbors));
  for (size_t i = 0; i < neighbors.size(); ++i) {
    std::fprintf(out, "%zu: (%g, %g) id=%llu dist=%g\n", i + 1,
                 neighbors[i].entry.AsPoint().x(),
                 neighbors[i].entry.AsPoint().y(),
                 static_cast<unsigned long long>(neighbors[i].entry.id),
                 neighbors[i].distance);
  }
  return Status::OK();
}

Status CmdRange(const Flags& flags, std::FILE* out) {
  if (flags.positional.size() != 5) {
    return Status::InvalidArgument("usage: range <db> <xlo> <ylo> <xhi> <yhi>");
  }
  Database db;
  KCPQ_RETURN_IF_ERROR(OpenDatabase(flags.positional[0], 0, &db));
  Rect range;
  KCPQ_RETURN_IF_ERROR(ParseNumber(flags.positional[1], &range.lo[0]));
  KCPQ_RETURN_IF_ERROR(ParseNumber(flags.positional[2], &range.lo[1]));
  KCPQ_RETURN_IF_ERROR(ParseNumber(flags.positional[3], &range.hi[0]));
  KCPQ_RETURN_IF_ERROR(ParseNumber(flags.positional[4], &range.hi[1]));
  if (!range.IsValid()) {
    return Status::InvalidArgument("range has lo > hi");
  }
  std::vector<Entry> hits;
  KCPQ_RETURN_IF_ERROR(db.tree->RangeQuery(range, &hits));
  for (const Entry& e : hits) {
    std::fprintf(out, "(%g, %g) id=%llu\n", e.AsPoint().x(), e.AsPoint().y(),
                 static_cast<unsigned long long>(e.id));
  }
  std::fprintf(out, "# %zu points\n", hits.size());
  return Status::OK();
}

}  // namespace

void PrintUsage(std::FILE* out) {
  std::fputs(
      "kcpq — closest pair queries over R*-tree database files\n"
      "\n"
      "  kcpq generate <uniform|sequoia> <n> <seed> <out.csv>\n"
      "  kcpq build <in.csv> <out.db> [--bulk] [--page-size=N]\n"
      "  kcpq stats <db>\n"
      "  kcpq kcp <p.db> <q.db> <K> [--algorithm=naive|exh|sim|std|heap]\n"
      "       [--metric=l1|l2|linf] [--query=closest|farthest|rcp]\n"
      "       [--rect=x1,y1,x2,y2]\n"
      "       [--buffer=N] [--fix-at-leaves] [--self]\n"
      "       [--kernel=nested|sweep] [--threads=N] [--repeat=N]\n"
      "       [--deadline-ms=N] [--max-node-accesses=N] [--io-retries=N]\n"
      "       [--fail-fast] [--admission=off|advisory|enforce]\n"
      "       [--memory-pool-bytes=N] [--admission-feedback=ALPHA]\n"
      "       [--prefetch=on|off] [--prefetch-window=N]\n"
      "       [--io-backend=sync|pool|uring] [--uring-sqpoll]\n"
      "       [--scheduler=blocking|resumable] [--max-inflight=N]\n"
      "       [--replicas=N] [--hedge=off|static|adaptive]\n"
      "       [--hedge-after-us=N] [--scrub]\n"
      "       [--explain] [--trace-out=PATH] [--stats-json=PATH]\n"
      "       [--obs-port=N] [--obs-linger-ms=N]\n"
      "       [--slow-query-log=PATH] [--slow-query-ms=T]\n"
      "  kcpq join <p.db> <q.db> <epsilon> [--metric=...] [--buffer=N]\n"
      "       [--max-results=N] [--self] [--deadline-ms=N]\n"
      "       [--max-node-accesses=N] [--io-retries=N]\n"
      "  kcpq semi <p.db> <q.db> [--buffer=N] [--deadline-ms=N]\n"
      "       [--max-node-accesses=N] [--io-retries=N]\n"
      "       [--io-backend=sync|pool|uring]\n"
      "       [--scheduler=blocking|resumable] [--max-inflight=N]\n"
      "  kcpq plan <p.db> <q.db> <K> [--buffer=N]\n"
      "  kcpq multiway <db1> <db2> [<db3> ...] <K> [--edges=0-1,1-2]\n"
      "  kcpq knn <db> <x> <y> <k>\n"
      "  kcpq range <db> <xlo> <ylo> <xhi> <yhi>\n",
      out);
}

Status Run(const std::vector<std::string>& args, std::FILE* out) {
  if (args.empty()) {
    return Status::InvalidArgument("no command; try 'help'");
  }
  const std::string& command = args[0];
  Flags flags;
  KCPQ_RETURN_IF_ERROR(
      ParseFlags({args.begin() + 1, args.end()}, &flags));
  if (command == "help") {
    PrintUsage(out);
    return Status::OK();
  }
  if (command == "generate") return CmdGenerate(flags, out);
  if (command == "build") return CmdBuild(flags, out);
  if (command == "stats") return CmdStats(flags, out);
  if (command == "kcp") return CmdKcp(flags, out);
  if (command == "join") return CmdJoin(flags, out);
  if (command == "semi") return CmdSemi(flags, out);
  if (command == "plan") return CmdPlan(flags, out);
  if (command == "multiway") return CmdMultiway(flags, out);
  if (command == "knn") return CmdKnn(flags, out);
  if (command == "range") return CmdRange(flags, out);
  return Status::InvalidArgument("unknown command: " + command);
}

}  // namespace cli
}  // namespace kcpq
