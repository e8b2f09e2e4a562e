// bench_e2e: paper-scale, file-backed end-to-end benchmark of kcpq.
//
// Runs one workload per process (see run.py for the whole suite) through
// the same path the CLI takes for `kcp --threads>1`: FileStorageManager
// -> BufferManager (64 shards, LRU) -> RStarTree::Open ->
// BatchKClosestPairs. Every layer is measured from outside only: public
// functions, the metrics registry, getrusage, and a bench-owned storage
// decorator (--trace).
//
// Setup (timed as setup_s, median of --setups repetitions): R =
// GenerateSequoiaLike(62,536, 1) and U = GenerateUniform(80,000, 2) in the
// unit workspace are inserted one point at a time into their own
// FileStorageManager files, flushed and synced — the paper's construction
// (R*-tree, one-by-one insertion, 1 KiB pages), and the write path of the
// rtree/buffer/storage layers. The data sets are fixed, like the paper's:
// one-by-one insertion makes the trees, and with them every query's cost,
// vary by 5-18% between data seeds, far more than the run-to-run noise a
// regression bound must see through. --seed draws the query order: of
// the mix9 stream and of each interactive deck.
//
// Workloads (why each was chosen: README.md):
//   warm                     closed batches of mix9 queries, blocking
//                            scheduler, 8,192-page buffers pre-warmed so
//                            both trees are resident. All compute.
//   zero-buffer              closed batches of mix9, blocking, the paper's
//                            zero-capacity buffer, page cache dropped
//                            before the timed phase. Synchronous
//                            pread+decode on the workers.
//   zero-buffer-async        the same, under the resumable scheduler over
//                            the native io_uring backend (64 in flight).
//   slow-device-interactive  one client, one query per call from a deck
//                            of 100 rcp/HS windows, B=256 LRU, 100 us per
//                            read, prefetch window 8. Latency-bound.
//
// Batches (decks, for the interactive workload) repeat until --seconds of
// timed work have run; the timings are medians over batches and peak RSS
// covers the first two. Latency is from submission to completion: every
// query of a batch is submitted at the BatchKClosestPairs call and
// completions are observed by polling a bench-owned QueryRegistry every
// millisecond.
//
// Correctness: every outcome must be kOk; the warm workload must perform
// no disk access; every batch query's pair ids must equal a reference run
// (one thread, blocking, zero buffer) of its template — and so must its
// disk accesses under a zero buffer; the reference itself must match the
// committed golden digests (golden.txt); every interactive query's
// distances must equal BruteForceKClosestPairs on the in-window points.
//
// Output: one `workload metric value unit` line per metric, then (last
// line) {"correct":..,"attempted":..,"failed":..,"metrics":{..}} holding
// the end-to-end metrics, or with --trace the per-layer ones.

#include <fcntl.h>
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "buffer/buffer_manager.h"
#include "common/random.h"
#include "cpq/brute.h"
#include "cpq/cpq.h"
#include "datagen/datagen.h"
#include "exec/batch.h"
#include "obs/kcpq_metrics.h"
#include "obs/metrics_registry.h"
#include "obs/query_registry.h"
#include "rtree/node.h"
#include "rtree/rtree.h"
#include "storage/file_storage.h"
#include "storage/latency_storage.h"

namespace kcpq {
namespace bench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr PageId kMetaPage = 0;
constexpr size_t kShards = 64;
constexpr size_t kMaxWorkers = 4;
constexpr size_t kUniformSize = 80000;
constexpr uint64_t kSequoiaSeed = 1;
constexpr uint64_t kUniformSeed = 2;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ReproScale() {
  const char* env = std::getenv("REPRO_SCALE");
  return env != nullptr && *env != '\0' ? std::atof(env) : 1.0;
}

size_t Scaled(size_t n) {
  return std::max<size_t>(
      16, static_cast<size_t>(std::llround(static_cast<double>(n) *
                                           ReproScale())));
}

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "bench_e2e: %s\n", message.c_str());
  std::exit(2);
}

// ---------------------------------------------------------------- workloads

struct Workload {
  const char* name;
  bool interactive;  // one client, one query per call
  SchedulerMode scheduler;
  size_t buffer_pages;  // per tree
  bool prewarm;         // read every page into the buffer first
  bool cold;            // drop the page cache before the timed phase
  bool uring;           // native io_uring backend
  size_t batch_queries;  // interactive: calls per deck
};

constexpr size_t kMaxInflight = 64;
constexpr unsigned kUringSqDepth = 64;
constexpr size_t kInteractiveBufferPages = 128;  // B = 256 over two trees
constexpr std::chrono::microseconds kInteractiveReadLatency(100);
constexpr size_t kInteractivePrefetchWindow = 8;
constexpr size_t kDeckSize = 100;  // interactive calls per deck

const Workload kWorkloads[] = {
    {"warm", false, SchedulerMode::kBlocking, 8192, true, false, false, 90},
    {"zero-buffer", false, SchedulerMode::kBlocking, 0, false, true, false,
     72},
    {"zero-buffer-async", false, SchedulerMode::kResumable, 0, false, true,
     true, 36},
    {"slow-device-interactive", true, SchedulerMode::kBlocking,
     kInteractiveBufferPages, false, true, false, kDeckSize},
};

/// The nine query templates of the mix9 batch mix, all on R x U.
struct Template {
  const char* name;
  BatchQueryKind kind;
  CpqAlgorithm algorithm;
  size_t k;
  QueryFamily family;
};

const Template kTemplates[] = {
    {"heap-k1", BatchQueryKind::kClosestPairs, CpqAlgorithm::kHeap, 1,
     QueryFamily::kClosest},
    {"heap-k100", BatchQueryKind::kClosestPairs, CpqAlgorithm::kHeap, 100,
     QueryFamily::kClosest},
    {"heap-k10000", BatchQueryKind::kClosestPairs, CpqAlgorithm::kHeap, 10000,
     QueryFamily::kClosest},
    {"std-k100", BatchQueryKind::kClosestPairs,
     CpqAlgorithm::kSortedDistances, 100, QueryFamily::kClosest},
    {"heap-farthest-k100", BatchQueryKind::kClosestPairs, CpqAlgorithm::kHeap,
     100, QueryFamily::kFarthest},
    {"rcp-k100", BatchQueryKind::kClosestPairs, CpqAlgorithm::kHeap, 100,
     QueryFamily::kRangeClosest},
    {"self-k100", BatchQueryKind::kSelfClosestPairs, CpqAlgorithm::kHeap, 100,
     QueryFamily::kClosest},
    {"semi", BatchQueryKind::kSemiClosestPairs, CpqAlgorithm::kHeap, 1,
     QueryFamily::kClosest},
    {"hs-k100", BatchQueryKind::kHsClosestPairs, CpqAlgorithm::kHeap, 100,
     QueryFamily::kClosest},
};
constexpr size_t kNumTemplates = std::size(kTemplates);

BatchQuery MakeQuery(const Template& t) {
  BatchQuery q;
  q.kind = t.kind;
  q.options.algorithm = t.algorithm;
  q.options.k = t.k;
  q.options.family = t.family;
  if (t.family == QueryFamily::kRangeClosest) {
    q.options.query_rect.lo[0] = q.options.query_rect.lo[1] = 0.2;
    q.options.query_rect.hi[0] = q.options.query_rect.hi[1] = 0.5;
  }
  return q;
}

/// The interactive client's deck of 100 calls: rcp on windows of side in
/// [0.05, 0.15], one centred in each cell of a 10x10 grid over the
/// workspace, with K in {1, 10, 100}; every fourth call runs the HS join
/// instead of the HEAP engine. The deck is fixed (like the mix9
/// templates) and the seed only orders it: random windows over the
/// clustered R made the work per call vary ~5% between seeds.
std::vector<BatchQuery> InteractiveDeck() {
  constexpr size_t kGrid = 10;
  static_assert(kGrid * kGrid == kDeckSize);
  constexpr size_t kKs[] = {1, 10, 100};
  Xoshiro256pp rng(0x6465636bULL);
  std::vector<BatchQuery> deck(kDeckSize);
  for (size_t i = 0; i < deck.size(); ++i) {
    BatchQuery& q = deck[i];
    q.kind = i % 4 == 3 ? BatchQueryKind::kHsClosestPairs
                        : BatchQueryKind::kClosestPairs;
    q.options.algorithm = CpqAlgorithm::kHeap;
    q.options.family = QueryFamily::kRangeClosest;
    q.options.k = kKs[i % 3];
    const double side = rng.NextDouble(0.05, 0.15);
    const size_t cell[kDims] = {i % kGrid, i / kGrid};
    for (int d = 0; d < kDims; ++d) {
      const double centre =
          (static_cast<double>(cell[d]) + rng.NextDouble()) / kGrid;
      q.options.query_rect.lo[d] =
          std::clamp(centre - side / 2, 0.0, 1.0 - side);
      q.options.query_rect.hi[d] = q.options.query_rect.lo[d] + side;
    }
  }
  return deck;
}

/// Template indices of the mix9 stream: consecutive blocks of nine, each
/// a seeded shuffle of all templates, so every batch of a multiple of
/// nine queries has the same composition.
std::vector<size_t> Mix9(uint64_t seed, size_t count) {
  Xoshiro256pp rng(seed ^ 0x6d69783900000000ULL);
  std::vector<size_t> out;
  while (out.size() < count) {
    size_t block[kNumTemplates];
    for (size_t i = 0; i < kNumTemplates; ++i) block[i] = i;
    for (size_t i = kNumTemplates - 1; i > 0; --i) {
      std::swap(block[i], block[rng.NextBounded(i + 1)]);
    }
    out.insert(out.end(), block, block + kNumTemplates);
  }
  out.resize(count);
  return out;
}

// --------------------------------------------------------------- tracing

/// Spans the traced run records around the calls into each layer, kept in
/// memory and written at exit. Each thread appends to its own shard (no
/// lock on the hot path). Read durations also feed per-shard log-scale
/// histograms (1/64-octave buckets), so percentiles and sums cover every
/// read while only the first 200,000 read spans are kept as records.
class SpanLog {
 public:
  enum Kind : uint8_t { kSyncRead, kAsyncRead, kBatch, kCompletion, kMicro };
  static constexpr int kHistKinds = 2;  // kSyncRead, kAsyncRead

  struct Summary {
    uint64_t count = 0;
    double sum_ns = 0.0;
    double p50_ns = 0.0;
    double p99_ns = 0.0;
  };

  SpanLog() : epoch_(Clock::now()) {}

  uint64_t NowNs() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             epoch_)
            .count());
  }

  void Record(Kind kind, uint64_t start_ns, uint64_t end_ns, uint64_t arg) {
    Shard& shard = Local();
    const uint64_t dur = end_ns > start_ns ? end_ns - start_ns : 0;
    if (kind < kHistKinds) {
      ++shard.hist[kind][Bucket(dur)];
      shard.sum_ns[kind] += dur;
      // Past the cap only a shared load: no cache-line ping-pong per read.
      if (stored_reads_.load(std::memory_order_relaxed) >= kMaxStoredReads ||
          stored_reads_.fetch_add(1, std::memory_order_relaxed) >=
              kMaxStoredReads) {
        return;
      }
    }
    shard.spans.push_back(Span{start_ns, dur, arg, kind});
  }

  /// Aggregate over every shard; call after the recording threads are
  /// quiescent.
  Summary Summarize(Kind kind) const {
    std::array<uint64_t, kBuckets> hist{};
    Summary s;
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& shard : shards_) {
      for (size_t b = 0; b < kBuckets; ++b) hist[b] += shard->hist[kind][b];
      s.sum_ns += static_cast<double>(shard->sum_ns[kind]);
    }
    for (uint64_t c : hist) s.count += c;
    s.p50_ns = Quantile(hist, s.count, 0.50);
    s.p99_ns = Quantile(hist, s.count, 0.99);
    return s;
  }

  /// Chrome trace_event JSON (chrome://tracing, Perfetto).
  bool WriteChromeTrace(const std::string& path) const {
    static const char* const kNames[] = {"storage.read", "storage.read_async",
                                         "exec.batch", "query.done",
                                         "micro"};
    std::ofstream out(path);
    out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    bool first = true;
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t t = 0; t < shards_.size(); ++t) {
      for (const Span& s : shards_[t]->spans) {
        out << (first ? "" : ",") << "\n{\"name\":\"" << kNames[s.kind]
            << "\",\"pid\":1,\"tid\":" << t << ",\"ts\":"
            << static_cast<double>(s.start_ns) / 1e3;
        if (s.kind == kCompletion) {
          out << ",\"ph\":\"i\",\"s\":\"p\"";
        } else {
          out << ",\"ph\":\"X\",\"dur\":"
              << static_cast<double>(s.dur_ns) / 1e3;
        }
        out << ",\"args\":{\"arg\":" << s.arg << "}}";
        first = false;
      }
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  static constexpr size_t kSubBits = 6;
  static constexpr size_t kBuckets = (64 - kSubBits + 1) << kSubBits;
  static constexpr uint64_t kMaxStoredReads = 200000;

  struct Span {
    uint64_t start_ns;
    uint64_t dur_ns;
    uint64_t arg;
    Kind kind;
  };
  struct Shard {
    std::vector<Span> spans;
    std::array<std::array<uint64_t, kBuckets>, kHistKinds> hist{};
    std::array<uint64_t, kHistKinds> sum_ns{};
  };

  static size_t Bucket(uint64_t v) {
    if (v < (uint64_t{1} << kSubBits)) return static_cast<size_t>(v);
    const int e = 63 - __builtin_clzll(v);  // e >= kSubBits
    const uint64_t sub = (v >> (e - kSubBits)) & ((1u << kSubBits) - 1);
    return static_cast<size_t>((e - kSubBits + 1) << kSubBits) + sub;
  }
  static double BucketMid(size_t b) {
    if (b < (size_t{1} << kSubBits)) return static_cast<double>(b);
    const size_t e = (b >> kSubBits) + kSubBits - 1;
    const double sub = static_cast<double>(b & ((1u << kSubBits) - 1));
    return std::ldexp(1.0 + (sub + 0.5) / (1u << kSubBits),
                      static_cast<int>(e));
  }
  static double Quantile(const std::array<uint64_t, kBuckets>& hist,
                         uint64_t count, double q) {
    if (count == 0) return 0.0;
    const uint64_t rank =
        std::max<uint64_t>(1, static_cast<uint64_t>(std::ceil(q * count)));
    uint64_t seen = 0;
    for (size_t b = 0; b < kBuckets; ++b) {
      seen += hist[b];
      if (seen >= rank) return BucketMid(b);
    }
    return BucketMid(kBuckets - 1);
  }

  // One SpanLog per process (the traced run owns it for its lifetime), so
  // a plain thread_local shard pointer is unambiguous.
  Shard& Local() {
    thread_local Shard* shard = nullptr;
    if (shard == nullptr) {
      std::lock_guard<std::mutex> lock(mu_);
      shards_.push_back(std::make_unique<Shard>());
      shard = shards_.back().get();
    }
    return *shard;
  }

  const Clock::time_point epoch_;
  mutable std::mutex mu_;  // guards shards_ (the vector, not the shards)
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<uint64_t> stored_reads_{0};
};

/// Pass-through decorator between a FileStorageManager and its buffer:
/// records a span around each synchronous ReadPage and one from
/// submission to completion callback for each ReadPagesAsync page. The
/// I/O backend calls are forwarded so io_uring stays live beneath it.
class TracingStorage final : public StorageManager {
 public:
  /// `base` and `log` must outlive the decorator.
  TracingStorage(StorageManager* base, SpanLog* log)
      : StorageManager(base->page_size()), base_(base), log_(log) {}

  uint64_t PageCount() const override { return base_->PageCount(); }
  Result<PageId> Allocate() override { return base_->Allocate(); }
  Status Free(PageId id) override { return base_->Free(id); }
  Status WritePage(PageId id, const Page& page) override {
    CountWrite();
    return base_->WritePage(id, page);
  }
  Status Sync() override { return base_->Sync(); }
  bool SupportsIoBackend(IoBackend backend) const override {
    return base_->SupportsIoBackend(backend);
  }
  IoBackend ActiveIoBackend() const override {
    return base_->ActiveIoBackend();
  }
  std::string IoBackendFallbackReason() const override {
    return base_->IoBackendFallbackReason();
  }

 protected:
  Status DoReadPage(PageId id, Page* page, const QueryContext* ctx) override {
    const uint64_t start = log_->NowNs();
    CountRead();
    Status status = base_->ReadPage(id, page, ctx);
    log_->Record(SpanLog::kSyncRead, start, log_->NowNs(), id);
    return status;
  }

  Status DoSetIoBackend(IoBackend backend) override {
    return base_->SetIoBackend(backend);
  }

  void DoReadPagesAsync(const PageId* ids, size_t count,
                        const AsyncReadCallback& callback) override {
    const uint64_t start = log_->NowNs();
    base_->ReadPagesAsync(
        ids, count, [this, start, callback](AsyncPageRead done) {
          CountRead();
          log_->Record(SpanLog::kAsyncRead, start, log_->NowNs(), done.id);
          callback(std::move(done));
        });
  }

 private:
  StorageManager* base_;
  SpanLog* log_;
};

// ------------------------------------------------------------------ data

struct DataSet {
  std::string path;
  std::vector<std::pair<Point, uint64_t>> items;
};

struct SetupTimes {
  double generate_s = 0.0;
  double insert_s = 0.0;
  double sync_s = 0.0;
  double total_s = 0.0;
  uint64_t writes = 0;
};

std::vector<std::pair<Point, uint64_t>> WithIds(std::vector<Point> points) {
  std::vector<std::pair<Point, uint64_t>> items;
  items.reserve(points.size());
  for (size_t i = 0; i < points.size(); ++i) items.emplace_back(points[i], i);
  return items;
}

/// Generates R and U and builds both files the way `kcpq build` does
/// (one-by-one insertion through a zero-capacity buffer), then syncs.
SetupTimes BuildData(DataSet* r, DataSet* u) {
  SetupTimes t;
  const Clock::time_point t0 = Clock::now();
  r->items = WithIds(GenerateSequoiaLike(Scaled(kSequoiaCardinality),
                                         UnitWorkspace(), kSequoiaSeed));
  u->items = WithIds(
      GenerateUniform(Scaled(kUniformSize), UnitWorkspace(), kUniformSeed));
  t.generate_s = SecondsSince(t0);

  std::vector<std::unique_ptr<FileStorageManager>> files;
  const Clock::time_point t1 = Clock::now();
  for (DataSet* d : {r, u}) {
    auto created = FileStorageManager::Create(d->path);
    KCPQ_CHECK_OK(created.status());
    files.push_back(std::move(created).value());
    BufferManager buffer(files.back().get(), 0);
    auto tree = RStarTree::Create(&buffer);
    KCPQ_CHECK_OK(tree.status());
    for (const auto& [p, id] : d->items) {
      KCPQ_CHECK_OK(tree.value()->Insert(p, id));
    }
    KCPQ_CHECK_OK(tree.value()->Flush());
    if (tree.value()->meta_page() != kMetaPage) Die("meta page not page 0");
  }
  t.insert_s = SecondsSince(t1);

  const Clock::time_point t2 = Clock::now();
  for (auto& f : files) {
    KCPQ_CHECK_OK(f->Sync());
    t.writes += f->stats().writes;
  }
  t.sync_s = SecondsSince(t2);
  t.total_s = SecondsSince(t0);
  return t;
}

/// Evicts a file's pages from the OS page cache so the next reads go to
/// the device.
void DropPageCache(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) Die("cannot open " + path);
  ::posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED);
  ::close(fd);
}

/// One tree's storage stack, bottom to top: file -> [latency] -> [trace]
/// -> buffer -> tree. Member order is destruction order in reverse, so
/// the buffer (which flushes through the stack) goes first.
struct Stack {
  std::unique_ptr<FileStorageManager> file;
  std::unique_ptr<LatencyStorageManager> slow;
  std::unique_ptr<TracingStorage> traced;
  std::unique_ptr<BufferManager> buffer;
  std::unique_ptr<RStarTree> tree;

  StorageManager* top() const {
    if (traced != nullptr) return traced.get();
    if (slow != nullptr) return slow.get();
    return file.get();
  }
};

struct StackOptions {
  size_t buffer_pages = 0;
  size_t shards = kShards;
  std::chrono::microseconds read_latency{0};
  bool uring = false;
  SpanLog* trace = nullptr;
};

Stack OpenStack(const std::string& path, const StackOptions& o) {
  Stack s;
  auto opened = FileStorageManager::Open(path);
  KCPQ_CHECK_OK(opened.status());
  s.file = std::move(opened).value();
  if (o.read_latency.count() > 0) {
    s.slow = std::make_unique<LatencyStorageManager>(s.file.get(),
                                                     o.read_latency);
  }
  if (o.trace != nullptr) {
    StorageManager* below =
        s.slow != nullptr ? static_cast<StorageManager*>(s.slow.get())
                          : s.file.get();
    s.traced = std::make_unique<TracingStorage>(below, o.trace);
  }
  if (o.uring) {
    // As the CLI does for --io-backend=uring --max-inflight=64.
    FileStorageManager::UringOptions uopt;
    uopt.sq_depth = kUringSqDepth;
    s.file->ConfigureUring(uopt);
    const IoBackend want = s.top()->SupportsIoBackend(IoBackend::kUring)
                               ? IoBackend::kUring
                               : IoBackend::kThreadPool;
    KCPQ_CHECK_OK(s.top()->SetIoBackend(want));
  }
  s.buffer = std::make_unique<BufferManager>(
      s.top(), o.buffer_pages, o.shards, [] { return MakeLruPolicy(); });
  auto tree = RStarTree::Open(s.buffer.get(), kMetaPage);
  KCPQ_CHECK_OK(tree.status());
  s.tree = std::move(tree).value();
  return s;
}

void Prewarm(Stack& s) {
  Page page;
  for (PageId id = 0; id < s.file->PageCount(); ++id) {
    KCPQ_CHECK_OK(s.buffer->Read(id, &page));
  }
}

// ------------------------------------------------------------ correctness

/// What identifies a query's answer: pair ids in order (FNV-1a), their
/// count, and the query's disk and node accesses.
struct Digest {
  uint64_t pairs = 0;
  uint64_t hash = 0;
  uint64_t disk_accesses = 0;
  uint64_t node_accesses = 0;
};

Digest DigestOf(const BatchQueryResult& r) {
  uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (const PairResult& p : r.pairs) {
    mix(p.p_id);
    mix(p.q_id);
  }
  return Digest{r.pairs.size(), h, r.stats.disk_accesses(),
                r.stats.node_accesses};
}

/// Golden reference digests, one line per template: `template pairs hash
/// disk_accesses node_accesses` (the --emit-golden output at full scale).
std::vector<std::pair<std::string, Digest>> LoadGolden(
    const std::string& path) {
  std::vector<std::pair<std::string, Digest>> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name;
    Digest d;
    if (!(fields >> name >> d.pairs >> std::hex >> d.hash >> std::dec >>
          d.disk_accesses >> d.node_accesses)) {
      Die("malformed golden line: " + line);
    }
    out.emplace_back(name, d);
  }
  return out;
}

/// Failed correctness checks; the run reports correct=false (and exits
/// non-zero) when any were recorded.
struct Checks {
  std::vector<std::string> failures;  // the first 20, for the log
  uint64_t failed = 0;

  void Expect(bool ok, const std::string& what) {
    if (ok) return;
    if (failures.size() < 20) failures.push_back(what);
    ++failed;
  }
  bool ok() const { return failed == 0; }
};

bool SameDistances(const std::vector<PairResult>& a,
                   const std::vector<PairResult>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    const double tol = 1e-12 * std::max(1.0, std::fabs(a[i].distance));
    if (std::fabs(a[i].distance - b[i].distance) > tol) return false;
  }
  return true;
}

// --------------------------------------------------------------- metrics

struct MetricValue {
  std::string name;
  double value;
  std::string unit;
};

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<size_t>(rank, 1)) - 1];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double Mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Usage {
  double cpu_s = 0.0;
  double ctx_switches = 0.0;
};

Usage ProcessUsage() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return Usage{static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
                   1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                              ru.ru_stime.tv_usec),
               static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw)};
}

/// The kernel's resident-set high-water mark (VmHWM) in MB. ResetPeakRss
/// lowers it to the current RSS, so the timed phase is not charged for
/// set-up's peak. (getrusage's ru_maxrss cannot be reset: exiting threads
/// fold the mark into it.)
double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB
    }
  }
  return 0.0;
}

void ResetPeakRss() { std::ofstream("/proc/self/clear_refs") << "5"; }

double CurrentRssMb() {
  std::ifstream in("/proc/self/statm");
  double pages = 0, resident = 0;
  in >> pages >> resident;
  return resident * static_cast<double>(::sysconf(_SC_PAGESIZE)) / 1048576.0;
}

/// Observes completions from outside the executor: polls the bench-owned
/// registry every millisecond and stamps each newly retired query with
/// its time since submission. Also tracks the peak number of live
/// queries and its own context switches (subtracted from the process's).
class CompletionPoller {
 public:
  CompletionPoller(const obs::QueryRegistry* registry, Clock::time_point t0,
                   SpanLog* trace)
      : registry_(registry), t0_(t0), trace_(trace),
        thread_([this] { Loop(); }) {}

  ~CompletionPoller() { Stop(); }
  CompletionPoller(const CompletionPoller&) = delete;
  CompletionPoller& operator=(const CompletionPoller&) = delete;

  void Stop() {
    if (!thread_.joinable()) return;
    stop_.store(true, std::memory_order_relaxed);
    thread_.join();
  }

  const std::vector<double>& sojourn_s() const { return sojourn_s_; }
  size_t peak_live() const { return peak_live_; }
  double ctx_switches() const { return ctx_switches_; }

 private:
  void Poll() {
    const size_t done = registry_->done_count();
    const double now = SecondsSince(t0_);
    peak_live_ = std::max(peak_live_, registry_->live_count());
    for (; seen_ < done; ++seen_) {
      sojourn_s_.push_back(now);
      if (trace_ != nullptr) {
        const uint64_t ns = trace_->NowNs();
        trace_->Record(SpanLog::kCompletion, ns, ns, seen_);
      }
    }
  }

  void Loop() {
    while (!stop_.load(std::memory_order_relaxed)) {
      Poll();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    Poll();
    rusage ru{};
    ::getrusage(RUSAGE_THREAD, &ru);
    ctx_switches_ = static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw);
  }

  const obs::QueryRegistry* registry_;
  const Clock::time_point t0_;
  SpanLog* trace_;
  std::atomic<bool> stop_{false};
  size_t seen_ = 0;
  size_t peak_live_ = 0;
  double ctx_switches_ = 0.0;
  std::vector<double> sojourn_s_;
  std::thread thread_;  // last: starts after the members it uses
};

/// Everything a timed phase accumulates, summed over its batches/calls.
struct Totals {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double wall_s = 0.0;
  std::vector<double> latency_ms;  // submission to completion
  // One entry per batch (per deck of interactive calls). The end-to-end
  // timings are medians over these, so a disturbance of the host during
  // one batch cannot move them.
  std::vector<double> batch_qps;
  std::vector<double> batch_p50_ms;
  std::vector<double> batch_p95_ms;
  // Peak RSS from the start of the timed phase to the end of its second
  // batch: a fixed amount of work. Reading it later would make it depend
  // on how many batches fit in the run, since the resumable path leaks.
  // RSS after each batch against the queries run so far gives the growth
  // rate reported (per-layer) as a leak detector.
  double peak_rss_mb = 0.0;
  std::vector<double> batch_end_queries;
  std::vector<double> batch_end_rss_mb;
  std::vector<double> service_ms;  // BatchQueryResult::seconds
  std::vector<double> max_heap;
  size_t inflight_peak = 0;
  Usage usage;
  uint64_t node_accesses = 0;
  uint64_t disk_accesses = 0;
  uint64_t node_pairs = 0;
  uint64_t distances = 0;
  uint64_t leaf_skipped = 0;
  uint64_t generated = 0;
  uint64_t pruned = 0;
  uint64_t parks = 0;
  uint64_t parked_ns = 0;
  uint64_t hs_queries = 0;
  uint64_t hs_popped = 0;

  void Add(const BatchQuery& q, const BatchQueryResult& r) {
    ++attempted;
    if (r.outcome != QueryOutcome::kOk) ++failed;
    if (r.seconds >= 0.0) service_ms.push_back(r.seconds * 1e3);
    const CpqStats& s = r.stats;
    max_heap.push_back(static_cast<double>(s.max_heap_size));
    node_accesses += s.node_accesses;
    disk_accesses += s.disk_accesses();
    parks += s.io_parks;
    parked_ns += s.io_parked_ns;
    if (q.kind == BatchQueryKind::kHsClosestPairs) {
      ++hs_queries;
      hs_popped += s.node_pairs_processed;  // items popped (MapHsStats)
      return;
    }
    node_pairs += s.node_pairs_processed;
    distances += s.point_distance_computations;
    leaf_skipped += s.leaf_pairs_skipped;
    generated += s.candidate_pairs_generated;
    pruned += s.candidate_pairs_pruned;
  }

  void EndBatch(size_t queries, double wall, const std::vector<double>& ms) {
    batch_qps.push_back(static_cast<double>(queries) / wall);
    batch_p50_ms.push_back(Quantile(ms, 0.50));
    batch_p95_ms.push_back(Quantile(ms, 0.95));
    if (batch_qps.size() <= 2) peak_rss_mb = PeakRssMb();
    batch_end_queries.push_back(static_cast<double>(attempted));
    batch_end_rss_mb.push_back(CurrentRssMb());
    std::printf("# batch %zu queries %.4f s p50 %.2f ms p95 %.2f ms rss "
                "%.1f MB\n",
                queries, wall, batch_p50_ms.back(), batch_p95_ms.back(),
                batch_end_rss_mb.back());
  }

  /// Least-squares slope of RSS over queries run, in MB per 1,000 queries.
  double RssGrowthPerKQuery() const {
    const double mx = Mean(batch_end_queries);
    const double my = Mean(batch_end_rss_mb);
    double sxy = 0.0;
    double sxx = 0.0;
    for (size_t i = 0; i < batch_end_queries.size(); ++i) {
      sxy += (batch_end_queries[i] - mx) * (batch_end_rss_mb[i] - my);
      sxx += (batch_end_queries[i] - mx) * (batch_end_queries[i] - mx);
    }
    return 1e3 * Ratio(sxy, sxx);
  }
};

/// Layer counters read before and after the timed phase (deltas).
struct LayerCounters {
  BufferStats buffer;
  uint64_t storage_reads = 0;
  IoEventLoopStats uring;
  uint64_t scheduler_steps = 0;
  double sync_read_ns = 0.0;  // traced runs only

  static LayerCounters Read(const Stack& r, const Stack& u,
                            const SpanLog* trace) {
    LayerCounters c;
    if (trace != nullptr) {
      c.sync_read_ns = trace->Summarize(SpanLog::kSyncRead).sum_ns;
    }
    for (const Stack* s : {&r, &u}) {
      const BufferStats b = s->buffer->AggregateStats();
      c.buffer.hits += b.hits;
      c.buffer.misses += b.misses;
      c.buffer.evictions += b.evictions;
      c.buffer.prefetch_issued += b.prefetch_issued;
      c.buffer.prefetch_hits += b.prefetch_hits;
      c.buffer.prefetch_wasted += b.prefetch_wasted;
      c.storage_reads += s->file->stats().reads;
      const IoEventLoopStats x = s->file->UringStats();
      c.uring.batches_submitted += x.batches_submitted;
      c.uring.reads_submitted += x.reads_submitted;
      c.uring.cqe_wakes += x.cqe_wakes;
      c.uring.cqes_reaped += x.cqes_reaped;
      c.uring.sq_full_stalls += x.sq_full_stalls;
      c.uring.deferred_batches += x.deferred_batches;
    }
    c.scheduler_steps = obs::MetricsRegistry::Global().Snapshot().CounterValue(
        "kcpq_scheduler_steps_total");
    return c;
  }
};

// ----------------------------------------------------------- micro loops

/// ns per BufferManager::Read of a resident page, each of `threads`
/// threads reading `reads` pages (distinct rotations over all pages).
double HitReadNs(const std::string& path, size_t threads, size_t reads,
                 SpanLog* trace) {
  StackOptions o;
  o.buffer_pages = 8192;
  Stack s = OpenStack(path, o);
  Prewarm(s);
  const PageId pages = s.file->PageCount();
  const uint64_t span_start = trace->NowNs();
  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&s, pages, reads, t] {
      Page page;
      PageId id = (t * 7919) % pages;
      for (size_t i = 0; i < reads; ++i) {
        KCPQ_CHECK_OK(s.buffer->Read(id, &page));
        id = id + 1 == pages ? 0 : id + 1;
      }
    });
  }
  for (std::thread& th : pool) th.join();
  const double ns = SecondsSince(t0) * 1e9 / static_cast<double>(reads);
  trace->Record(SpanLog::kMicro, span_start, trace->NowNs(), threads);
  return ns;
}

/// ns per DeserializeNode over every node page of both files.
double DecodeNsPerNode(const std::vector<std::string>& paths,
                       SpanLog* trace) {
  std::vector<Page> pages;
  for (const std::string& path : paths) {
    auto opened = FileStorageManager::Open(path);
    KCPQ_CHECK_OK(opened.status());
    auto& file = *opened.value();
    for (PageId id = kMetaPage + 1; id < file.PageCount(); ++id) {
      pages.emplace_back();
      KCPQ_CHECK_OK(file.ReadPage(id, &pages.back()));
    }
  }
  constexpr int kPasses = 20;
  Node node;
  const uint64_t span_start = trace->NowNs();
  const Clock::time_point t0 = Clock::now();
  for (int pass = 0; pass < kPasses; ++pass) {
    for (const Page& page : pages) KCPQ_CHECK_OK(DeserializeNode(page, &node));
  }
  const double ns =
      SecondsSince(t0) * 1e9 / static_cast<double>(kPasses * pages.size());
  trace->Record(SpanLog::kMicro, span_start, trace->NowNs(), pages.size());
  return ns;
}

// ------------------------------------------------------------------- run

/// An interactive call awaiting its oracle check.
struct InteractiveCall {
  BatchQuery query;
  std::vector<PairResult> pairs;
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int setups = 3;
  std::string work_dir = ".bench_build/run";
  std::string golden;
  bool emit_golden = false;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&arg](const char* flag) -> const char* {
      const size_t n = std::strlen(flag);
      return arg.compare(0, n, flag) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = value("--workload=")) {
      a.workload = v;
    } else if (const char* v = value("--seed=")) {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--seconds=")) {
      a.seconds = std::atof(v);
    } else if (const char* v = value("--setups=")) {
      a.setups = std::max(1, std::atoi(v));
    } else if (const char* v = value("--work-dir=")) {
      a.work_dir = v;
    } else if (const char* v = value("--golden=")) {
      a.golden = v;
    } else if (arg == "--trace") {
      a.trace = true;
    } else if (arg == "--emit-golden") {
      a.emit_golden = true;
    } else {
      Die("unknown argument " + arg +
          " (usage: bench_e2e --workload=NAME [--seed=N] [--seconds=S] "
          "[--trace] [--setups=N] [--work-dir=DIR] [--golden=FILE] "
          "[--emit-golden])");
    }
  }
  return a;
}

const Workload& FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return w;
  }
  Die("unknown workload '" + name + "'");
}

/// Runs each template once — one thread, blocking, zero buffer, a
/// single-shard buffer: the CLI's default single-query stack — and
/// returns its digest. Under a zero buffer the disk accesses of a query
/// do not depend on interleaving, so every batch run must reproduce them.
std::vector<Digest> ReferenceDigests(const DataSet& r, const DataSet& u) {
  StackOptions o;
  o.shards = 1;
  Stack sr = OpenStack(r.path, o);
  Stack su = OpenStack(u.path, o);
  std::vector<BatchQuery> batch;
  for (const Template& t : kTemplates) batch.push_back(MakeQuery(t));
  BatchOptions options;
  options.threads = 1;
  const std::vector<BatchQueryResult> results =
      BatchKClosestPairs(*sr.tree, *su.tree, batch, options);
  std::vector<Digest> out;
  for (const BatchQueryResult& res : results) {
    KCPQ_CHECK_OK(res.status);
    out.push_back(DigestOf(res));
  }
  return out;
}

class Runner {
 public:
  Runner(const Args& args, const Workload& w)
      : args_(args), w_(w),
        workers_(std::min<size_t>(
            kMaxWorkers,
            std::max<unsigned>(1, std::thread::hardware_concurrency()))) {}

  int Run() {
    namespace fs = std::filesystem;
    const fs::path dir = fs::path(args_.work_dir) /
                         (std::string(w_.name) + "-" +
                          std::to_string(::getpid()));
    fs::create_directories(dir);
    r_.path = (dir / "r.db").string();
    u_.path = (dir / "u.db").string();
    Setup();
    const int rc = args_.emit_golden ? EmitGolden() : Measure();
    fs::remove_all(dir);
    return rc;
  }

 private:
  void Setup() {
    std::vector<SetupTimes> runs;
    for (int i = 0; i < args_.setups; ++i) {
      runs.push_back(BuildData(&r_, &u_));
    }
    const auto median = [&runs](double SetupTimes::*field) {
      std::vector<double> v;
      for (const SetupTimes& t : runs) v.push_back(t.*field);
      return Median(v);
    };
    setup_ = runs.back();
    setup_.total_s = median(&SetupTimes::total_s);
    setup_.generate_s = median(&SetupTimes::generate_s);
    setup_.insert_s = median(&SetupTimes::insert_s);
    setup_.sync_s = median(&SetupTimes::sync_s);
  }

  int EmitGolden() {
    const std::vector<Digest> ref = ReferenceDigests(r_, u_);
    for (size_t t = 0; t < kNumTemplates; ++t) {
      std::printf("%s %llu %016llx %llu %llu\n", kTemplates[t].name,
                  static_cast<unsigned long long>(ref[t].pairs),
                  static_cast<unsigned long long>(ref[t].hash),
                  static_cast<unsigned long long>(ref[t].disk_accesses),
                  static_cast<unsigned long long>(ref[t].node_accesses));
    }
    return 0;
  }

  int Measure() {
    if (!w_.interactive) CheckReference();
    if (args_.trace) trace_ = std::make_unique<SpanLog>();

    StackOptions o;
    o.buffer_pages = w_.buffer_pages;
    o.uring = w_.uring;
    o.trace = trace_.get();
    if (w_.interactive) {
      o.shards = 1;  // the CLI's --threads=1 stack
      o.read_latency = kInteractiveReadLatency;
    }
    Stack sr = OpenStack(r_.path, o);
    Stack su = OpenStack(u_.path, o);
    backend_ = IoBackendName(sr.top()->ActiveIoBackend());
    if (w_.prewarm) {
      Prewarm(sr);
      Prewarm(su);
    }

    if (w_.cold) {
      DropPageCache(r_.path);
      DropPageCache(u_.path);
    }
    // Hand set-up's freed heap back to the OS, so every run starts the
    // timed phase from the same resident baseline.
    ::malloc_trim(0);
    ResetPeakRss();
    const LayerCounters before = LayerCounters::Read(sr, su, trace_.get());
    if (w_.interactive) {
      RunInteractive(sr, su);
    } else {
      RunBatches(sr, su);
    }
    // Settle in-flight prefetches so the buffer counters (and read spans)
    // are final: issued == hits + wasted.
    sr.buffer->DrainPrefetches();
    su.buffer->DrainPrefetches();
    const LayerCounters after = LayerCounters::Read(sr, su, trace_.get());
    if (w_.prewarm) {
      checks_.Expect(totals_.disk_accesses == 0 &&
                         after.storage_reads == before.storage_reads,
                     "warm workload performed disk accesses");
    }
    checks_.Expect(totals_.failed == 0, "queries ended with non-ok outcomes");

    std::vector<MetricValue> metrics = EndToEnd();
    if (args_.trace) {
      metrics = PerLayer(before, after);
      const std::string path = args_.work_dir + "/bench_e2e_trace_" +
                               w_.name + ".json";
      if (!trace_->WriteChromeTrace(path)) Die("cannot write " + path);
    }
    Report(metrics);
    return checks_.ok() ? 0 : 1;
  }

  void CheckReference() {
    reference_ = ReferenceDigests(r_, u_);
    if (args_.golden.empty() || ReproScale() != 1.0) return;
    const auto golden = LoadGolden(args_.golden);
    checks_.Expect(golden.size() == kNumTemplates, "golden file incomplete");
    for (size_t t = 0; t < std::min(golden.size(), kNumTemplates); ++t) {
      const Digest& g = golden[t].second;
      const Digest& ref = reference_[t];
      checks_.Expect(golden[t].first == kTemplates[t].name &&
                         g.pairs == ref.pairs && g.hash == ref.hash &&
                         g.disk_accesses == ref.disk_accesses &&
                         g.node_accesses == ref.node_accesses,
                     std::string("reference differs from golden: ") +
                         kTemplates[t].name);
    }
  }

  void RunBatches(Stack& sr, Stack& su) {
    const std::vector<size_t> order = Mix9(args_.seed, 1 << 16);
    size_t next = 0;
    while (totals_.wall_s < args_.seconds || totals_.attempted == 0) {
      if (next + w_.batch_queries > order.size()) next = 0;
      std::vector<BatchQuery> batch;
      std::vector<size_t> templates(order.begin() + next,
                                    order.begin() + next + w_.batch_queries);
      next += w_.batch_queries;
      for (size_t t : templates) batch.push_back(MakeQuery(kTemplates[t]));

      obs::QueryRegistry registry(batch.size());
      BatchOptions options;
      options.threads = workers_;
      options.scheduler = w_.scheduler;
      options.max_inflight = kMaxInflight;
      options.query_registry = &registry;
      const Usage u0 = ProcessUsage();
      const Clock::time_point t0 = Clock::now();
      const uint64_t trace_t0 = trace_ != nullptr ? trace_->NowNs() : 0;
      CompletionPoller poller(&registry, t0, trace_.get());
      const std::vector<BatchQueryResult> results =
          BatchKClosestPairs(*sr.tree, *su.tree, batch, options);
      poller.Stop();
      const double wall = SecondsSince(t0);
      totals_.wall_s += wall;
      const Usage u1 = ProcessUsage();
      if (trace_ != nullptr) {
        trace_->Record(SpanLog::kBatch, trace_t0, trace_->NowNs(),
                       batch.size());
      }
      totals_.usage.cpu_s += u1.cpu_s - u0.cpu_s;
      totals_.usage.ctx_switches +=
          u1.ctx_switches - u0.ctx_switches - poller.ctx_switches();
      totals_.inflight_peak =
          std::max(totals_.inflight_peak, poller.peak_live());
      checks_.Expect(poller.sojourn_s().size() == batch.size(),
                     "registry missed completions");
      std::vector<double> latency_ms;
      for (double s : poller.sojourn_s()) latency_ms.push_back(s * 1e3);
      totals_.latency_ms.insert(totals_.latency_ms.end(), latency_ms.begin(),
                                latency_ms.end());
      for (size_t i = 0; i < batch.size(); ++i) {
        totals_.Add(batch[i], results[i]);
        CheckAgainstReference(templates[i], results[i]);
      }
      totals_.EndBatch(batch.size(), wall, latency_ms);
    }
  }

  void CheckAgainstReference(size_t t, const BatchQueryResult& r) {
    const Digest d = DigestOf(r);
    const Digest& ref = reference_[t];
    checks_.Expect(d.pairs == ref.pairs && d.hash == ref.hash,
                   std::string("pairs differ from reference: ") +
                       kTemplates[t].name);
    checks_.Expect(d.node_accesses == ref.node_accesses,
                   std::string("node accesses differ from reference: ") +
                       kTemplates[t].name);
    if (w_.buffer_pages == 0) {
      checks_.Expect(d.disk_accesses == ref.disk_accesses,
                     std::string("disk accesses differ from reference: ") +
                         kTemplates[t].name);
    }
  }

  /// One client in a closed loop over decks of InteractiveDeck() calls,
  /// each deck in a seeded order. Each deck is checked against the
  /// brute-force oracle once it has run.
  void RunInteractive(Stack& sr, Stack& su) {
    const std::vector<BatchQuery> deck = InteractiveDeck();
    Xoshiro256pp rng(args_.seed ^ 0x696e746572ULL);
    std::vector<size_t> order(deck.size());
    std::vector<InteractiveCall> calls;
    BatchOptions options;
    options.threads = 1;
    options.prefetch_window = kInteractivePrefetchWindow;
    Usage u0 = ProcessUsage();
    std::vector<double> deck_ms;
    double deck_s = 0.0;
    while (totals_.wall_s < args_.seconds || !deck_ms.empty() ||
           totals_.batch_qps.empty()) {
      if (calls.empty()) {
        for (size_t i = 0; i < order.size(); ++i) order[i] = i;
        for (size_t i = order.size() - 1; i > 0; --i) {
          std::swap(order[i], order[rng.NextBounded(i + 1)]);
        }
      }
      const BatchQuery& q = deck[order[calls.size()]];
      const Clock::time_point t0 = Clock::now();
      std::vector<BatchQueryResult> results =
          BatchKClosestPairs(*sr.tree, *su.tree, {q}, options);
      const double wall = SecondsSince(t0);
      totals_.wall_s += wall;
      totals_.latency_ms.push_back(wall * 1e3);
      totals_.Add(q, results[0]);
      calls.push_back(InteractiveCall{q, std::move(results[0].pairs)});
      deck_ms.push_back(wall * 1e3);
      deck_s += wall;
      if (deck_ms.size() == deck.size()) {
        totals_.EndBatch(deck_ms.size(), deck_s, deck_ms);
        deck_ms.clear();
        deck_s = 0.0;
        const Usage pause = ProcessUsage();
        CheckInteractive(calls);
        calls.clear();
        const Usage resume = ProcessUsage();
        u0.cpu_s += resume.cpu_s - pause.cpu_s;
        u0.ctx_switches += resume.ctx_switches - pause.ctx_switches;
      }
    }
    const Usage u1 = ProcessUsage();
    totals_.usage = Usage{u1.cpu_s - u0.cpu_s,
                          u1.ctx_switches - u0.ctx_switches};
    totals_.inflight_peak = 1;
  }

  /// Oracle: the plane-sweep brute force over the in-window points.
  void CheckInteractive(const std::vector<InteractiveCall>& calls) {
    for (const InteractiveCall& c : calls) {
      const Rect& w = c.query.options.query_rect;
      std::vector<std::pair<Point, uint64_t>> pw, qw;
      for (const auto& it : r_.items) {
        if (w.Contains(it.first)) pw.push_back(it);
      }
      for (const auto& it : u_.items) {
        if (w.Contains(it.first)) qw.push_back(it);
      }
      const std::vector<PairResult> brute = BruteForceKClosestPairs(
          pw, qw, c.query.options.k, false, Metric::kL2,
          LeafKernel::kPlaneSweep);
      checks_.Expect(SameDistances(c.pairs, brute),
                     "interactive query differs from brute force");
    }
  }

  std::vector<MetricValue> EndToEnd() const {
    const double n = static_cast<double>(totals_.attempted);
    return {
        {"setup_s", setup_.total_s, "s"},
        {"throughput_qps", Median(totals_.batch_qps), "1/s"},
        {"latency_p50_ms", Median(totals_.batch_p50_ms), "ms"},
        {"latency_p95_ms", Median(totals_.batch_p95_ms), "ms"},
        {"node_accesses_per_query",
         Ratio(static_cast<double>(totals_.node_accesses), n), "count"},
        {"peak_rss_mb", totals_.peak_rss_mb, "MB"},
    };
  }

  std::vector<MetricValue> PerLayer(const LayerCounters& b,
                               const LayerCounters& a) const {
    const double n = static_cast<double>(totals_.attempted);
    const double cpq_n = n - static_cast<double>(totals_.hs_queries);
    const double wall = totals_.wall_s;
    const double workers =
        static_cast<double>(w_.interactive ? 1 : workers_);
    const auto d = [](uint64_t after, uint64_t before) {
      return static_cast<double>(after - before);
    };
    const double hits = d(a.buffer.hits, b.buffer.hits);
    const double misses = d(a.buffer.misses, b.buffer.misses);
    const double issued = d(a.buffer.prefetch_issued, b.buffer.prefetch_issued);
    const double batches =
        d(a.uring.batches_submitted, b.uring.batches_submitted);
    const double deferred =
        d(a.uring.deferred_batches, b.uring.deferred_batches);
    const double wakes = d(a.uring.cqe_wakes, b.uring.cqe_wakes);
    SpanLog* trace = trace_.get();
    const SpanLog::Summary sync = trace->Summarize(SpanLog::kSyncRead);
    const SpanLog::Summary async = trace->Summarize(SpanLog::kAsyncRead);
    // Percentiles over the read path the workload mostly uses: synchronous
    // ReadPage spans (the warm workload's come from its pre-warm pass), or
    // async submission-to-completion spans.
    const SpanLog::Summary& reads = sync.count >= async.count ? sync : async;
    const size_t hit_reads = 200000;

    const double service_ms = std::accumulate(
        totals_.service_ms.begin(), totals_.service_ms.end(), 0.0);
    return {
        {"exec.queue_wait_ms_mean",
         Mean(totals_.latency_ms) - Mean(totals_.service_ms), "ms"},
        {"exec.service_ms_p50", Quantile(totals_.service_ms, 0.50), "ms"},
        {"exec.service_ms_p95", Quantile(totals_.service_ms, 0.95), "ms"},
        {"exec.inflight_peak", static_cast<double>(totals_.inflight_peak),
         "count"},
        {"exec.parks_per_query", Ratio(static_cast<double>(totals_.parks), n),
         "count"},
        {"exec.steps_per_query",
         Ratio(d(a.scheduler_steps, b.scheduler_steps), n), "count"},
        {"exec.parked_share",
         Ratio(static_cast<double>(totals_.parked_ns) / 1e6, service_ms),
         "ratio"},
        {"exec.ctx_switches_per_query", Ratio(totals_.usage.ctx_switches, n),
         "count"},
        {"exec.cpu_util", Ratio(totals_.usage.cpu_s, wall * workers), "ratio"},
        {"exec.rss_growth_mb_per_kquery", totals_.RssGrowthPerKQuery(),
         "MB"},
        {"buffer.hit_ratio", Ratio(hits, hits + misses), "ratio"},
        {"buffer.evictions_per_query",
         Ratio(d(a.buffer.evictions, b.buffer.evictions), n), "count"},
        {"buffer.prefetch_issued_per_query", Ratio(issued, n), "count"},
        {"buffer.prefetch_hit_ratio",
         Ratio(d(a.buffer.prefetch_hits, b.buffer.prefetch_hits), issued),
         "ratio"},
        {"buffer.prefetch_wasted_per_query",
         Ratio(d(a.buffer.prefetch_wasted, b.buffer.prefetch_wasted), n),
         "count"},
        {"buffer.hit_read_ns_1t", HitReadNs(r_.path, 1, hit_reads, trace),
         "ns"},
        {"buffer.hit_read_ns_4t",
         HitReadNs(r_.path, workers_, hit_reads, trace), "ns"},
        {"storage.reads_per_query",
         Ratio(d(a.storage_reads, b.storage_reads), n), "count"},
        {"storage.read_us_p50", reads.p50_ns / 1e3, "us"},
        {"storage.read_us_p99", reads.p99_ns / 1e3, "us"},
        {"storage.read_time_share",
         Ratio((a.sync_read_ns - b.sync_read_ns) / 1e9, workers * wall),
         "ratio"},
        {"storage.uring_reads_per_enter",
         Ratio(d(a.uring.reads_submitted, b.uring.reads_submitted),
               batches - deferred + wakes),
         "count"},
        {"storage.uring_cqes_per_wake",
         Ratio(d(a.uring.cqes_reaped, b.uring.cqes_reaped), wakes), "count"},
        {"storage.uring_deferred_share", Ratio(deferred, batches), "ratio"},
        {"storage.uring_sq_full_stalls",
         d(a.uring.sq_full_stalls, b.uring.sq_full_stalls), "count"},
        {"storage.setup_writes", static_cast<double>(setup_.writes), "count"},
        {"rtree.decode_ns_per_node",
         DecodeNsPerNode({r_.path, u_.path}, trace), "ns"},
        {"rtree.insert_us_per_point",
         setup_.insert_s * 1e6 /
             static_cast<double>(r_.items.size() + u_.items.size()),
         "us"},
        {"cpq.node_pairs_per_query",
         Ratio(static_cast<double>(totals_.node_pairs), cpq_n),
         "count"},
        {"cpq.distance_computations_per_query",
         Ratio(static_cast<double>(totals_.distances), cpq_n),
         "count"},
        {"cpq.leaf_pairs_skipped_per_query",
         Ratio(static_cast<double>(totals_.leaf_skipped), cpq_n),
         "count"},
        {"cpq.pruned_ratio",
         Ratio(static_cast<double>(totals_.pruned),
               static_cast<double>(totals_.generated)),
         "ratio"},
        {"cpq.max_heap_size_p95", Quantile(totals_.max_heap, 0.95), "count"},
        {"hs.items_popped_per_query",
         Ratio(static_cast<double>(totals_.hs_popped),
               static_cast<double>(totals_.hs_queries)),
         "count"},
        {"setup.generate_s", setup_.generate_s, "s"},
        {"setup.insert_s", setup_.insert_s, "s"},
        {"setup.sync_s", setup_.sync_s, "s"},
        {"trace.throughput_qps", Median(totals_.batch_qps), "1/s"},
    };
  }

  void Report(const std::vector<MetricValue>& metrics) const {
    for (const std::string& f : checks_.failures) {
      std::fprintf(stderr, "bench_e2e: CHECK FAILED: %s\n", f.c_str());
    }
#if defined(__clang__)
    const char* compiler = "clang";
    const int version[] = {__clang_major__, __clang_minor__,
                           __clang_patchlevel__};
#else
    const char* compiler = "gcc";
    const int version[] = {__GNUC__, __GNUC_MINOR__, __GNUC_PATCHLEVEL__};
#endif
    std::printf("# host nproc=%u compiler=%s-%d.%d.%d build=%s io_backend=%s "
                "repro_scale=%g seed=%llu workers=%zu\n",
                std::thread::hardware_concurrency(), compiler, version[0],
                version[1], version[2], KCPQ_BENCH_BUILD_TYPE,
                backend_.c_str(), ReproScale(),
                static_cast<unsigned long long>(args_.seed), workers_);
    std::printf("# %s: %llu queries in %.3f s of timed work\n", w_.name,
                static_cast<unsigned long long>(totals_.attempted),
                totals_.wall_s);
    for (const MetricValue& m : metrics) {
      std::printf("%s %s %.17g %s\n", w_.name, m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                checks_.ok() ? "true" : "false",
                static_cast<unsigned long long>(totals_.attempted),
                static_cast<unsigned long long>(totals_.failed));
    for (size_t i = 0; i < metrics.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit.c_str());
    }
    std::printf("}}\n");
  }

  const Args& args_;
  const Workload& w_;
  const size_t workers_;
  DataSet r_;
  DataSet u_;
  SetupTimes setup_;
  std::vector<Digest> reference_;
  std::unique_ptr<SpanLog> trace_;
  std::string backend_;
  Totals totals_;
  Checks checks_;
};

}  // namespace
}  // namespace bench
}  // namespace kcpq

int main(int argc, char** argv) {
  using namespace kcpq::bench;
  const Args args = ParseArgs(argc, argv);
  if (args.workload.empty()) Die("--workload=NAME is required");
  Runner runner(args, FindWorkload(args.workload));
  return runner.Run();
}
