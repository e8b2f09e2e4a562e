// Storage manager: the "disk" under the buffer manager.
//
// Every physical read/write is counted; the paper's cost metric ("disk
// accesses") is exactly the number of ReadPage calls issued while a query
// runs (writes occur only during tree construction). MemoryStorageManager
// simulates the disk in RAM — the counts are identical to a real disk's and
// the experiments run fast; FileStorageManager persists to a real file and
// backs the durability tests and the examples that save/load trees.

#ifndef KCPQ_STORAGE_STORAGE_MANAGER_H_
#define KCPQ_STORAGE_STORAGE_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>

#include "common/status.h"
#include "storage/page.h"

namespace kcpq {

class QueryContext;

/// How ReadPagesAsync services a batch (docs/io.md). The values are
/// explicit because the `kcpq_io_backend_active` gauge exports them.
enum class IoBackend {
  /// Each page is read by the shared IoThreadPool (storage/async_io.h)
  /// through the full virtual ReadPage stack, so every decorator
  /// (latency/retry/fault-injection/checksum) composes. Portable default.
  kThreadPool = 1,
  /// Native io_uring completion event loop (FileStorageManager on Linux,
  /// built with -DKCPQ_IOURING=ON; no liburing needed — raw syscalls).
  /// Bypasses decorators: only valid on a bare file store.
  kUring = 2,
};

/// Stable lower-case tag for CLI / stats-json / EXPLAIN output.
inline const char* IoBackendName(IoBackend backend) {
  switch (backend) {
    case IoBackend::kThreadPool:
      return "pool";
    case IoBackend::kUring:
      return "uring";
  }
  return "unknown";
}

/// One completed asynchronous page read.
struct AsyncPageRead {
  PageId id = kInvalidPageId;
  Page page;
  Status status;
};

/// Completion callback for ReadPagesAsync. Invoked exactly once per
/// submitted page, possibly concurrently from I/O threads and in any
/// order; it must be thread-safe and must not block on storage.
using AsyncReadCallback = std::function<void(AsyncPageRead)>;

/// Physical I/O counters (a snapshot; see StorageManager::stats). Reset
/// between experiment phases to isolate the cost of one query from
/// tree-construction cost.
struct IoStats {
  uint64_t reads = 0;
  uint64_t writes = 0;

  void Reset() { *this = IoStats{}; }
};

/// Abstract page store.
///
/// Thread-safety contract (since the parallel batch executor): concurrent
/// ReadPage / WritePage calls on *distinct* pages must be safe on every
/// implementation — that is all the sharded buffer manager above ever
/// issues concurrently, and the async read path (ReadPagesAsync with the
/// thread-pool backend) multiplies such concurrent DoReadPage calls by
/// running them on shared I/O threads. Allocate / Free / structural
/// mutation remain single-threaded (trees are built before queries run
/// against them). I/O counters are atomic, so mixed-thread counts are
/// exact.
class StorageManager {
 public:
  virtual ~StorageManager() = default;

  StorageManager(const StorageManager&) = delete;
  StorageManager& operator=(const StorageManager&) = delete;

  /// Page size in bytes; constant over the manager's lifetime.
  size_t page_size() const { return page_size_; }

  /// Number of pages ever allocated (allocation is append-only; a freed
  /// page id is recycled by Allocate).
  virtual uint64_t PageCount() const = 0;

  /// Allocates a new (zeroed) page and returns its id.
  virtual Result<PageId> Allocate() = 0;

  /// Returns `id` to the free list. Reading a freed page is an error.
  virtual Status Free(PageId id) = 0;

  /// Reads page `id` into `*page` (resized to page_size). Counts one read.
  ///
  /// `ctx` optionally identifies the query the read serves (non-virtual
  /// interface so existing two-argument call sites keep compiling across
  /// every implementation). Decorators forward it down the stack; the
  /// RetryingStorageManager consults its deadline to abandon retries that
  /// cannot finish in time (returning kDeadlineExceeded). Plain stores
  /// ignore it.
  Status ReadPage(PageId id, Page* page, const QueryContext* ctx = nullptr) {
    return DoReadPage(id, page, ctx);
  }

  /// Non-blocking synchronous read: fills `*page` and returns true only
  /// when the whole page can be copied without waiting for the device
  /// (on a file store: the page is resident in the OS page cache). A
  /// served page counts one read, same as ReadPage. False means "not now"
  /// — nothing was counted and the caller takes the ordinary read path,
  /// which reports any error. The default (every decorator and the memory
  /// store) always says false, so a decorated stack still sees every read.
  bool TryReadPageNow(PageId id, Page* page) {
    return DoTryReadPageNow(id, page);
  }

  /// Batched asynchronous read: issues `count` page reads and invokes
  /// `callback` exactly once per page as each completes (possibly
  /// concurrently, in any order). Each completed page counts one read,
  /// same as ReadPage. Per-page failures are reported through the
  /// completion's Status; the call itself never fails.
  ///
  /// Asynchronous completions never receive a QueryContext: contexts are
  /// single-threaded by contract (common/query_context.h), so callers
  /// charge accounting on their own thread at submission time instead.
  void ReadPagesAsync(const PageId* ids, size_t count,
                      const AsyncReadCallback& callback) {
    if (count == 0) return;
    DoReadPagesAsync(ids, count, callback);
  }

  /// True when this implementation (including anything it decorates) can
  /// service ReadPagesAsync with `backend`. Every store supports
  /// kThreadPool; kUring requires a bare FileStorageManager built with
  /// KCPQ_IOURING on a kernel whose io_uring probe passes.
  virtual bool SupportsIoBackend(IoBackend backend) const {
    return backend == IoBackend::kThreadPool;
  }

  /// Selects the backend for subsequent ReadPagesAsync calls. Rejects
  /// (InvalidArgument) backends SupportsIoBackend is false for. Not
  /// thread-safe against in-flight async reads; configure before querying.
  Status SetIoBackend(IoBackend backend) {
    if (!SupportsIoBackend(backend)) {
      return Status::InvalidArgument(
          "io backend not supported by this storage stack");
    }
    KCPQ_RETURN_IF_ERROR(DoSetIoBackend(backend));
    io_backend_.store(backend, std::memory_order_relaxed);
    return Status::OK();
  }
  IoBackend io_backend() const {
    return io_backend_.load(std::memory_order_relaxed);
  }

  /// The backend actually servicing async reads. Differs from
  /// io_backend() only when an implementation degraded after accepting
  /// the request (e.g. kUring was configured but the ring could not be
  /// built at runtime); the CLI surfaces the difference instead of
  /// downgrading silently.
  virtual IoBackend ActiveIoBackend() const { return io_backend(); }

  /// Why ActiveIoBackend() != io_backend(); empty when they match.
  virtual std::string IoBackendFallbackReason() const { return std::string(); }

  /// Writes `page` (must be exactly page_size bytes) to `id`. Counts one
  /// write.
  virtual Status WritePage(PageId id, const Page& page) = 0;

  /// Flushes any implementation buffering to durable storage.
  virtual Status Sync() = 0;

  /// Snapshot of the I/O counters (by value: the counters are atomics).
  IoStats stats() const {
    IoStats s;
    s.reads = reads_.load(std::memory_order_relaxed);
    s.writes = writes_.load(std::memory_order_relaxed);
    return s;
  }
  void ResetStats() {
    reads_.store(0, std::memory_order_relaxed);
    writes_.store(0, std::memory_order_relaxed);
  }

 protected:
  explicit StorageManager(size_t page_size) : page_size_(page_size) {}

  /// ReadPage implementation hook. `ctx` may be null.
  virtual Status DoReadPage(PageId id, Page* page,
                            const QueryContext* ctx) = 0;

  /// TryReadPageNow implementation hook; the default never serves.
  virtual bool DoTryReadPageNow(PageId /*id*/, Page* /*page*/) {
    return false;
  }

  /// SetIoBackend hook, invoked after the SupportsIoBackend check and
  /// before the new backend takes effect — implementations build or tear
  /// down backend state here (FileStorageManager constructs its uring
  /// event loop). Returning an error leaves the previous backend active.
  virtual Status DoSetIoBackend(IoBackend /*backend*/) {
    return Status::OK();
  }

  /// ReadPagesAsync implementation hook (`count` >= 1). The default
  /// dispatches one task per page to IoThreadPool::Shared(), each going
  /// through the virtual ReadPage so decorators compose
  /// (storage_manager.cc).
  virtual void DoReadPagesAsync(const PageId* ids, size_t count,
                                const AsyncReadCallback& callback);

  /// Implementations call these from ReadPage / WritePage.
  void CountRead() { reads_.fetch_add(1, std::memory_order_relaxed); }
  void CountWrite() { writes_.fetch_add(1, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> reads_{0};
  std::atomic<uint64_t> writes_{0};
  std::atomic<IoBackend> io_backend_{IoBackend::kThreadPool};
  size_t page_size_;
};

}  // namespace kcpq

#endif  // KCPQ_STORAGE_STORAGE_MANAGER_H_
