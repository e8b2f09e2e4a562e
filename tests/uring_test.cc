// Tests for the native io_uring completion event loop (docs/io.md,
// "Native completion event loop"): the uring-vs-pool differential over
// file-backed trees (bit-identical results AND per-query disk accesses,
// 50 seeds x 5 algorithms x blocking/resumable), mid-flight cancellation
// and deadline expiry with CQEs outstanding, SQ-depth backpressure when
// the ring is smaller than the in-flight bound, and graceful degradation
// to the portable pool loop (never a silent downgrade). The ring tests run
// on files dropped from the page cache, since resident pages are copied
// inline and never reach the ring; the ResumableInlineReads tests cover
// that fast path itself.
//
// Every ring test hard-skips — visibly, with the probe's reason — when the
// running kernel refuses io_uring, so a CI lane without ring support
// reports SKIPPED rather than a hollow PASS.

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "buffer/buffer_manager.h"
#include "common/query_context.h"
#include "cpq/cpq.h"
#include "exec/batch.h"
#include "gtest/gtest.h"
#include "rtree/rtree.h"
#include "storage/file_storage.h"
#include "storage/retrying_storage.h"
#include "storage/uring_ring.h"
#include "tests/differential_mix.h"
#include "tests/test_util.h"

namespace kcpq {
namespace {

using testing::MakeClusteredItems;
using testing::MakeUniformItems;

#define KCPQ_SKIP_WITHOUT_URING()                                        \
  do {                                                                   \
    if (!UringAvailable()) {                                             \
      GTEST_SKIP() << "io_uring unavailable: " << UringUnavailableReason(); \
    }                                                                    \
  } while (0)

/// A real on-disk tree: FileStorageManager under a BufferManager, built in
/// a per-fixture temp file so rings operate on genuine file descriptors.
class FileTreeFixture {
 public:
  explicit FileTreeFixture(size_t buffer_pages = 0) {
    char tmpl[] = "/tmp/kcpq_uring_XXXXXX";
    const int fd = ::mkstemp(tmpl);
    KCPQ_CHECK_OK(fd >= 0 ? Status::OK() : Status::IoError("mkstemp"));
    ::close(fd);
    path_ = tmpl;
    auto created = FileStorageManager::Create(path_);
    KCPQ_CHECK_OK(created.status());
    storage_ = std::move(created).value();
    buffer_ = std::make_unique<BufferManager>(storage_.get(), buffer_pages);
    auto tree = RStarTree::Create(buffer_.get());
    KCPQ_CHECK_OK(tree.status());
    tree_ = std::move(tree).value();
  }

  ~FileTreeFixture() {
    tree_.reset();
    buffer_.reset();
    storage_.reset();
    ::unlink(path_.c_str());
  }

  Status Build(const std::vector<std::pair<Point, uint64_t>>& items) {
    for (const auto& [p, id] : items) {
      KCPQ_RETURN_IF_ERROR(tree_->Insert(p, id));
    }
    return tree_->Flush();
  }

  RStarTree& tree() { return *tree_; }
  BufferManager& buffer() { return *buffer_; }
  FileStorageManager& storage() { return *storage_; }

  /// Syncs the file and evicts it from the OS page cache, so the next
  /// reads must go to the device. False when the file system kept its
  /// first block resident anyway (tmpfs, say), as mincore reports.
  bool DropPageCache() {
    KCPQ_CHECK_OK(storage_->Sync());
    const int fd = ::open(path_.c_str(), O_RDONLY);
    KCPQ_CHECK_OK(fd >= 0 ? Status::OK() : Status::IoError("open"));
    ::posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED);
    const auto block = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
    unsigned char resident = 1;
    void* map = ::mmap(nullptr, block, PROT_READ, MAP_SHARED, fd, 0);
    if (map != MAP_FAILED) {
      ::mincore(map, block, &resident);
      ::munmap(map, block);
    }
    ::close(fd);
    return (resident & 1) == 0;
  }

 private:
  std::string path_;
  std::unique_ptr<FileStorageManager> storage_;
  std::unique_ptr<BufferManager> buffer_;
  std::unique_ptr<RStarTree> tree_;
};

void ExpectSameResults(const std::vector<BatchQueryResult>& got,
                       const std::vector<BatchQueryResult>& want,
                       const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    const std::string q = label + " query " + std::to_string(i);
    ASSERT_TRUE(want[i].status.ok()) << q << want[i].status.ToString();
    ASSERT_TRUE(got[i].status.ok()) << q << got[i].status.ToString();
    ASSERT_EQ(got[i].pairs.size(), want[i].pairs.size()) << q;
    for (size_t r = 0; r < got[i].pairs.size(); ++r) {
      ASSERT_NEAR(got[i].pairs[r].distance, want[i].pairs[r].distance, 1e-12)
          << q << " rank " << r;
    }
    // The disk-access metric is the paper's headline number: the native
    // completion path must not change what counts as a read.
    EXPECT_EQ(got[i].stats.disk_accesses_p, want[i].stats.disk_accesses_p)
        << q;
    EXPECT_EQ(got[i].stats.disk_accesses_q, want[i].stats.disk_accesses_q)
        << q;
    EXPECT_EQ(got[i].stats.node_accesses, want[i].stats.node_accesses) << q;
    EXPECT_EQ(got[i].stats.quality.stop_cause, want[i].stats.quality.stop_cause)
        << q;
    EXPECT_EQ(got[i].stats.quality.pairs_found,
              want[i].stats.quality.pairs_found)
        << q;
  }
}

// 50 seeded workloads on file-backed, zero-buffer trees: for both the
// inline (blocking scheduler) and the multiplexed (resumable) executor,
// the portable pool and the native ring must each reproduce the golden
// digest of tests/differential_mix.h, agree with each other bit for bit,
// and match the brute-force oracle. Prefetch rides along on every third
// seed so the async path is exercised under the blocking scheduler too.
TEST(UringDifferential, FiftySeedsPoolVsUringMatchExactly) {
  KCPQ_SKIP_WITHOUT_URING();
  const std::vector<std::string> golden = testing::LoadDifferentialGolden();
  ASSERT_FALSE(golden.empty())
      << "missing golden file " << testing::DifferentialGoldenPath();
  for (int seed = 0; seed < testing::kDifferentialSeeds; ++seed) {
    const testing::DifferentialData data = testing::MakeDifferentialData(seed);
    FileTreeFixture fp(0), fq(0);
    KCPQ_ASSERT_OK(fp.Build(data.p));
    KCPQ_ASSERT_OK(fq.Build(data.q));
    const std::vector<BatchQuery> queries =
        testing::MakeDifferentialMix(seed);

    for (const SchedulerMode mode :
         {SchedulerMode::kBlocking, SchedulerMode::kResumable}) {
      const BatchOptions options =
          testing::DifferentialBatchOptions(seed, mode, queries.size());
      const std::string label =
          "seed " + std::to_string(seed) +
          (mode == SchedulerMode::kResumable ? " multiplexed" : " inline");

      KCPQ_ASSERT_OK(fp.storage().SetIoBackend(IoBackend::kThreadPool));
      KCPQ_ASSERT_OK(fq.storage().SetIoBackend(IoBackend::kThreadPool));
      const std::vector<BatchQueryResult> want =
          BatchKClosestPairs(fp.tree(), fq.tree(), queries, options);

      KCPQ_ASSERT_OK(fp.storage().SetIoBackend(IoBackend::kUring));
      KCPQ_ASSERT_OK(fq.storage().SetIoBackend(IoBackend::kUring));
      ASSERT_EQ(fp.storage().ActiveIoBackend(), IoBackend::kUring)
          << fp.storage().IoBackendFallbackReason();
      // Cold files, so resumable misses reach the ring instead of being
      // copied inline from the page cache the pool run left warm.
      fp.DropPageCache();
      fq.DropPageCache();
      const std::vector<BatchQueryResult> got =
          BatchKClosestPairs(fp.tree(), fq.tree(), queries, options);

      ExpectSameResults(got, want, label);
      testing::ExpectMatchesBruteForce(data, queries, got, label);
      for (size_t i = 0; i < queries.size(); ++i) {
        const size_t row = static_cast<size_t>(seed) * queries.size() + i;
        ASSERT_LT(row, golden.size()) << label << ": golden file too short";
        const std::string q = label + " query " + std::to_string(i);
        testing::ExpectMatchesGolden(
            testing::DifferentialDigestLine(seed, i, want[i]), golden[row],
            q + " pool");
        testing::ExpectMatchesGolden(
            testing::DifferentialDigestLine(seed, i, got[i]), golden[row],
            q + " uring");
      }
    }
  }
}

// An SQ ring much smaller than the in-flight bound: submissions must stall
// (counted, visible) rather than drop reads or deadlock, and the answers
// must be identical to the pool loop's. The prefetch window alone exceeds
// the ring's whole completion capacity, so at least one SubmitReads call
// is forced to wait for slots.
TEST(UringBackpressure, SqDepthSmallerThanMaxInflight) {
  KCPQ_SKIP_WITHOUT_URING();
  FileTreeFixture fp(0), fq(0);
  KCPQ_ASSERT_OK(fp.Build(MakeUniformItems(2000, 41)));
  KCPQ_ASSERT_OK(fq.Build(MakeClusteredItems(2000, 42)));

  std::vector<BatchQuery> queries;
  for (int i = 0; i < 48; ++i) {
    BatchQuery q;
    q.options.algorithm = CpqAlgorithm::kHeap;
    q.options.k = 1 + static_cast<size_t>(i % 10);
    queries.push_back(q);
  }
  BatchOptions options;
  options.threads = 4;
  options.scheduler = SchedulerMode::kResumable;
  options.max_inflight = queries.size();
  options.prefetch_window = 32;  // one batch submission > cq capacity

  KCPQ_ASSERT_OK(fp.storage().SetIoBackend(IoBackend::kThreadPool));
  KCPQ_ASSERT_OK(fq.storage().SetIoBackend(IoBackend::kThreadPool));
  const std::vector<BatchQueryResult> want =
      BatchKClosestPairs(fp.tree(), fq.tree(), queries, options);

  FileStorageManager::UringOptions tiny;
  tiny.sq_depth = 4;  // 8 completion slots, far below 48 in-flight queries
  fp.storage().ConfigureUring(tiny);
  fq.storage().ConfigureUring(tiny);
  KCPQ_ASSERT_OK(fp.storage().SetIoBackend(IoBackend::kUring));
  KCPQ_ASSERT_OK(fq.storage().SetIoBackend(IoBackend::kUring));
  ASSERT_EQ(fp.storage().ActiveIoBackend(), IoBackend::kUring)
      << fp.storage().IoBackendFallbackReason();
  // The pool run left the files in the page cache; drop them so demand
  // misses go through the ring rather than the inline fast path.
  fp.DropPageCache();
  fq.DropPageCache();
  const std::vector<BatchQueryResult> got =
      BatchKClosestPairs(fp.tree(), fq.tree(), queries, options);

  ExpectSameResults(got, want, "backpressure");
  const uint64_t stalls = fp.storage().UringStats().sq_full_stalls +
                          fq.storage().UringStats().sq_full_stalls;
  EXPECT_GT(stalls, 0u) << "a 32-page prefetch batch into an 8-slot ring "
                           "must stall at least once";
  const IoEventLoopStats totals = fp.storage().UringStats();
  EXPECT_GT(totals.reads_submitted, 0u) << "the ring served no reads";
  EXPECT_EQ(totals.reads_submitted,
            totals.fixed_buffer_reads + totals.unfixed_reads);
}

// Deadlines expiring and a batch-wide cancel firing while CQEs are still
// in flight: every query must settle (no hangs, no use-after-free in the
// reaper), with only OK / partial / cancelled outcomes, and the loop must
// stay usable for a follow-up run that completes exactly.
TEST(UringCancellation, MidFlightDeadlineAndCancelWithCqesOutstanding) {
  KCPQ_SKIP_WITHOUT_URING();
  FileTreeFixture fp(0), fq(0);
  KCPQ_ASSERT_OK(fp.Build(MakeUniformItems(1500, 51)));
  KCPQ_ASSERT_OK(fq.Build(MakeUniformItems(1500, 52)));
  KCPQ_ASSERT_OK(fp.storage().SetIoBackend(IoBackend::kUring));
  KCPQ_ASSERT_OK(fq.storage().SetIoBackend(IoBackend::kUring));
  ASSERT_EQ(fp.storage().ActiveIoBackend(), IoBackend::kUring)
      << fp.storage().IoBackendFallbackReason();

  std::vector<BatchQuery> queries;
  for (int i = 0; i < 32; ++i) {
    BatchQuery q;
    q.options.algorithm = CpqAlgorithm::kHeap;
    q.options.k = 10;
    if (i % 3 == 1) q.options.control.max_node_accesses = 4;  // early stop
    if (i % 3 == 2) {
      q.options.control.deadline = std::chrono::steady_clock::now();
    }
    queries.push_back(q);
  }
  CancellationSource cancel;
  BatchOptions options;
  options.threads = 4;
  options.scheduler = SchedulerMode::kResumable;
  options.max_inflight = queries.size();
  options.prefetch_window = 16;
  options.control.cancel = cancel.token();

  // Cold files: the reads must be in the ring, not copied inline from the
  // page cache the build left warm, when deadlines and the cancel land.
  fp.DropPageCache();
  fq.DropPageCache();
  std::thread canceller([&cancel] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    cancel.Cancel();
  });
  const std::vector<BatchQueryResult> results =
      BatchKClosestPairs(fp.tree(), fq.tree(), queries, options);
  canceller.join();
  EXPECT_GT(fp.storage().UringStats().reads_submitted +
                fq.storage().UringStats().reads_submitted,
            0u)
      << "the ring served no reads";

  ASSERT_EQ(results.size(), queries.size());
  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].status.ok())
        << "query " << i << ": " << results[i].status.ToString();
    EXPECT_TRUE(results[i].outcome == QueryOutcome::kOk ||
                results[i].outcome == QueryOutcome::kPartial ||
                results[i].outcome == QueryOutcome::kCancelled)
        << "query " << i;
  }

  // The ring survived the churn: a clean query still matches blocking.
  CpqOptions clean;
  clean.algorithm = CpqAlgorithm::kHeap;
  clean.k = 5;
  CpqStats stats;
  auto after = KClosestPairs(fp.tree(), fq.tree(), clean, &stats);
  KCPQ_ASSERT_OK(after.status());
  EXPECT_EQ(after.value().size(), 5u);
}

// Graceful degradation, storage level: a decorator refuses kUring up
// front, and a ring whose setup fails after the capability probe (an
// absurd SQ depth) records a visible reason and serves reads through the
// pool loop — SetIoBackend never silently downgrades without a trace.
TEST(UringFallback, DecoratedAndBrokenRingsDegradeVisibly) {
  KCPQ_SKIP_WITHOUT_URING();
  FileTreeFixture fx(0);
  KCPQ_ASSERT_OK(fx.Build(MakeUniformItems(300, 61)));

  // Bare file store: supported, active, no reason.
  EXPECT_TRUE(fx.storage().SupportsIoBackend(IoBackend::kUring));
  KCPQ_ASSERT_OK(fx.storage().SetIoBackend(IoBackend::kUring));
  EXPECT_EQ(fx.storage().ActiveIoBackend(), IoBackend::kUring);
  EXPECT_TRUE(fx.storage().IoBackendFallbackReason().empty());

  // Decorated stack: the retry wrapper routes async reads through the
  // portable pool, so it must refuse kUring instead of bypassing itself.
  RetryingStorageManager retrying(&fx.storage());
  EXPECT_FALSE(retrying.SupportsIoBackend(IoBackend::kUring));
  EXPECT_FALSE(retrying.SetIoBackend(IoBackend::kUring).ok());
  KCPQ_ASSERT_OK(retrying.SetIoBackend(IoBackend::kThreadPool));

  // Ring setup failure after the probe said yes: SetIoBackend still
  // succeeds, the manager reports the degradation, and reads work.
  FileStorageManager::UringOptions absurd;
  absurd.sq_depth = 1u << 30;  // far beyond IORING_MAX_ENTRIES
  fx.storage().ConfigureUring(absurd);
  KCPQ_ASSERT_OK(fx.storage().SetIoBackend(IoBackend::kUring));
  EXPECT_EQ(fx.storage().ActiveIoBackend(), IoBackend::kThreadPool);
  EXPECT_FALSE(fx.storage().IoBackendFallbackReason().empty());
  CpqOptions options;
  options.k = 3;
  CpqStats stats;
  auto pairs = KClosestPairs(fx.tree(), fx.tree(), options, &stats);
  KCPQ_ASSERT_OK(pairs.status());

  // Back to a sane ring: the fallback state fully clears.
  fx.storage().ConfigureUring(FileStorageManager::UringOptions{});
  KCPQ_ASSERT_OK(fx.storage().SetIoBackend(IoBackend::kUring));
  EXPECT_EQ(fx.storage().ActiveIoBackend(), IoBackend::kUring);
  EXPECT_TRUE(fx.storage().IoBackendFallbackReason().empty());
}

// ---------------------------------------------------------------------------
// Page-cache-resident misses served inline (StorageManager::TryReadPageNow).
// The fast path sits above the backend choice, so these run on the pool
// backend where the kernel refuses rings.

IoBackend RingOrPool() {
  return UringAvailable() ? IoBackend::kUring : IoBackend::kThreadPool;
}

/// True when the file system serves nowait buffered reads (page 0 was just
/// read, so it is resident).
bool InlineReadsWork(FileStorageManager& storage) {
  Page page;
  KCPQ_CHECK_OK(storage.ReadPage(0, &page));
  return storage.TryReadPageNow(0, &page);
}

struct InlineRun {
  std::vector<BatchQueryResult> blocking;
  std::vector<BatchQueryResult> resumable;
};

/// The query mix under the blocking executor, then under the resumable
/// one — after dropping the files from the page cache when `cold`.
InlineRun RunBlockingThenResumable(FileTreeFixture& fp, FileTreeFixture& fq,
                                   bool cold) {
  const std::vector<BatchQuery> queries = testing::MakeDifferentialMix(3);
  KCPQ_CHECK_OK(fp.storage().SetIoBackend(RingOrPool()));
  KCPQ_CHECK_OK(fq.storage().SetIoBackend(RingOrPool()));
  BatchOptions options;
  options.threads = 2;
  InlineRun run;
  run.blocking = BatchKClosestPairs(fp.tree(), fq.tree(), queries, options);
  if (cold) {
    fp.DropPageCache();
    fq.DropPageCache();
  }
  options.scheduler = SchedulerMode::kResumable;
  options.max_inflight = queries.size();
  run.resumable = BatchKClosestPairs(fp.tree(), fq.tree(), queries, options);
  return run;
}

// A warm page cache: every resumable miss is copied inline, so no query
// ever parks, and pairs and disk accesses equal the blocking run's.
TEST(ResumableInlineReads, WarmPageCacheNeverParks) {
  FileTreeFixture fp(0), fq(0);
  KCPQ_ASSERT_OK(fp.Build(MakeUniformItems(600, 71)));
  KCPQ_ASSERT_OK(fq.Build(MakeClusteredItems(600, 72)));
  if (!InlineReadsWork(fp.storage())) {
    GTEST_SKIP() << "file system refuses RWF_NOWAIT buffered reads";
  }
  const uint64_t inline_before =
      fp.storage().inline_reads() + fq.storage().inline_reads();
  const InlineRun run = RunBlockingThenResumable(fp, fq, /*cold=*/false);

  ExpectSameResults(run.resumable, run.blocking, "warm");
  uint64_t disk_accesses = 0;
  for (size_t i = 0; i < run.resumable.size(); ++i) {
    EXPECT_EQ(run.resumable[i].stats.io_parks, 0u) << "query " << i;
    disk_accesses += run.resumable[i].stats.disk_accesses();
  }
  // The misses TryRead served were inline reads (a few engine steps still
  // read synchronously through Read, which the fast path leaves alone).
  const uint64_t inline_reads =
      fp.storage().inline_reads() + fq.storage().inline_reads() -
      inline_before;
  EXPECT_GT(inline_reads, disk_accesses / 2);
  EXPECT_LE(inline_reads, disk_accesses);
}

// A cold page cache: genuinely uncached pages still park on the async
// backend, and the answers and disk accesses do not change.
TEST(ResumableInlineReads, ColdPageCacheParksAndMatches) {
  FileTreeFixture fp(0), fq(0);
  KCPQ_ASSERT_OK(fp.Build(MakeUniformItems(600, 73)));
  KCPQ_ASSERT_OK(fq.Build(MakeClusteredItems(600, 74)));
  if (!fp.DropPageCache()) {
    GTEST_SKIP() << "file system keeps dropped pages resident";
  }
  const InlineRun run = RunBlockingThenResumable(fp, fq, /*cold=*/true);

  ExpectSameResults(run.resumable, run.blocking, "cold");
  uint64_t parks = 0;
  for (const BatchQueryResult& r : run.resumable) parks += r.stats.io_parks;
  EXPECT_GT(parks, 0u);
}

// The probe itself: on a kernel with rings the reason string is empty; on
// one without, it names the cause. Either way the two functions agree.
TEST(UringProbe, AvailabilityAndReasonAgree) {
  if (UringAvailable()) {
    EXPECT_STREQ(UringUnavailableReason(), "");
  } else {
    EXPECT_STRNE(UringUnavailableReason(), "");
  }
}

}  // namespace
}  // namespace kcpq
