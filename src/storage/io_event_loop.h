// Storage-to-scheduler completion event loops.
//
// The resumable engine core parks a task when BufferManager::TryRead
// misses; the miss turns into an async page read whose completion fires
// the task's Waker. This header owns the path between those two points:
//
//   IoEventLoop           interface: batch submit -> per-page callback
//   ThreadPoolEventLoop   portable backend (one IoThreadPool task/page)
//   UringEventLoop        native backend: a single persistent io_uring
//                         instance (registered file, registered fixed
//                         buffers where the kernel allows) plus one
//                         reaper thread that drains CQEs in batches and
//                         invokes the callbacks directly — no
//                         IoThreadPool hop, no per-read dispatch
//                         allocation.
//
// FileStorageManager routes DoReadPagesAsync through whichever loop the
// active --io-backend selects; BufferManager completion callbacks (and
// through them the parked Wakers) therefore run on the reaper thread
// under kUring and must stay non-blocking, which they are by
// construction (see docs/io.md, "Native completion event loop").

#ifndef KCPQ_STORAGE_IO_EVENT_LOOP_H_
#define KCPQ_STORAGE_IO_EVENT_LOOP_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "storage/storage_manager.h"
#include "storage/uring_ring.h"

namespace kcpq {

/// Counters a completion loop maintains about itself. Snapshot is
/// monotonic; the pool loop only fills the first two fields.
struct IoEventLoopStats {
  uint64_t batches_submitted = 0;   ///< SubmitReads calls
  uint64_t reads_submitted = 0;     ///< pages across all batches
  uint64_t cqe_wakes = 0;           ///< reaper wakeups that saw >= 1 CQE
  uint64_t cqes_reaped = 0;         ///< completions drained
  uint64_t sq_full_stalls = 0;      ///< submit-side waits (SQ or slots full)
  uint64_t fixed_buffer_reads = 0;  ///< served via IORING_OP_READ_FIXED
  uint64_t unfixed_reads = 0;       ///< served via plain IORING_OP_READ
  uint64_t deferred_batches = 0;    ///< batches staged for the reaper's enter
};

/// A completion path for page reads. SubmitReads queues `count` pages and
/// returns; `callback` fires exactly once per page, from the loop's
/// completion context (pool worker or uring reaper), in any order.
/// Implementations are thread-safe for concurrent SubmitReads.
class IoEventLoop {
 public:
  virtual ~IoEventLoop() = default;

  /// Backend tag for the CLI's active-backend report ("pool", "uring").
  virtual const char* name() const = 0;

  virtual void SubmitReads(const PageId* ids, size_t count,
                           AsyncReadCallback callback) = 0;

  virtual IoEventLoopStats stats() const { return {}; }
};

/// Portable loop: one IoThreadPool task per page through a caller-supplied
/// read function (the storage manager's counted ReadPage). Keeps
/// `--io-backend=pool` semantics bit-for-bit with the pre-loop code path.
class ThreadPoolEventLoop : public IoEventLoop {
 public:
  using ReadPageFn = std::function<Status(PageId, Page*)>;

  explicit ThreadPoolEventLoop(ReadPageFn read_page)
      : read_page_(std::move(read_page)) {}

  const char* name() const override { return "pool"; }
  void SubmitReads(const PageId* ids, size_t count,
                   AsyncReadCallback callback) override;
  IoEventLoopStats stats() const override;

 private:
  ReadPageFn read_page_;
  mutable std::mutex mu_;
  IoEventLoopStats stats_;
};

#if defined(__linux__) && KCPQ_HAVE_IOURING

/// Native loop over one persistent io_uring instance.
///
/// In-flight reads are bounded by a free-slot list sized to the CQ
/// (cq_entries = 2x the SQ depth), which both prevents CQ overflow and is
/// the submit-side backpressure: when every slot is in flight,
/// SubmitReads blocks until the reaper frees one, counted as a
/// sq_full_stall. Each slot owns a page-sized frame in one contiguous
/// 4 KiB-aligned arena; when the kernel accepts RegisterBuffers the
/// frames become fixed buffers and reads use IORING_OP_READ_FIXED
/// (registration is best-effort: an RLIMIT_MEMLOCK refusal leaves plain
/// reads into the same frames).
/// Completion copies the frame into the callback's Page (the Page
/// contract is ownership-by-value, so frames never escape the loop).
///
/// Submission is completion-driven on a busy ring: when reads are
/// already in flight, SubmitReads only stages SQEs (a tail store, no
/// syscall) — the reaper, which is then guaranteed to wake, claims the
/// staged entries and publishes them inside its own submit-and-wait
/// enter. One syscall per completion wave replaces one per batch; only
/// an idle ring pays a submit-side enter, so a lone sequential query
/// keeps the latency of the eager path.
class UringEventLoop : public IoEventLoop {
 public:
  /// Builds a ring of `sq_depth` SQEs (0 -> 64) against `file_fd`
  /// (registered as fixed file 0). Page `id` lives at byte offset
  /// `base_offset + id * page_size`.
  /// Returns nullptr with `*error` set when the kernel rejects the ring —
  /// callers fall back to ThreadPoolEventLoop and surface the reason.
  static std::unique_ptr<UringEventLoop> Create(int file_fd,
                                                uint64_t base_offset,
                                                size_t page_size,
                                                unsigned sq_depth,
                                                std::string* error);

  ~UringEventLoop() override;
  UringEventLoop(const UringEventLoop&) = delete;
  UringEventLoop& operator=(const UringEventLoop&) = delete;

  const char* name() const override { return "uring"; }
  void SubmitReads(const PageId* ids, size_t count,
                   AsyncReadCallback callback) override;
  IoEventLoopStats stats() const override;

  bool fixed_buffers_active() const { return ring_.buffers_registered(); }
  unsigned sq_depth() const { return ring_.sq_entries(); }
  /// In-flight bound (== cq_entries == slot count).
  unsigned max_inflight() const { return static_cast<unsigned>(slots_.size()); }

 private:
  // One submitted batch: the shared callback, alive until every slot that
  // references it has completed (shared_ptr refcount is the lifetime).
  struct Batch {
    explicit Batch(AsyncReadCallback cb) : callback(std::move(cb)) {}
    AsyncReadCallback callback;
  };

  // A single-read submission (the demand-fetch common case) moves the
  // callback straight into the slot instead: no refcount allocation on
  // the per-miss hot path.
  struct Slot {
    PageId id = 0;
    std::shared_ptr<Batch> batch;
    AsyncReadCallback solo;
  };

  UringEventLoop(uint64_t base_offset, size_t page_size);
  bool InitRing(int file_fd, unsigned sq_depth, std::string* error);
  void Reap();
  uint8_t* Frame(size_t slot) {
    return arena_ + slot * page_size_;
  }

  const uint64_t base_offset_;
  const size_t page_size_;
  UringRing ring_;
  uint8_t* arena_ = nullptr;  // slot frames, 4 KiB-aligned, freed in dtor
  size_t arena_size_ = 0;
  std::vector<Slot> slots_;

  // Submission side: slot free-list + SQ tail are single-writer under mu_.
  mutable std::mutex mu_;
  std::condition_variable slot_available_;
  std::vector<uint32_t> free_slots_;
  bool stop_ = false;

  std::thread reaper_;

  // Stats are written by both sides; plain counters under mu_ for the
  // submit fields, reaper-private for the reap fields, merged in stats().
  IoEventLoopStats submit_stats_;        // guarded by mu_
  IoEventLoopStats reap_stats_;          // reaper thread only
  mutable std::mutex reap_stats_mu_;     // guards snapshots of reap_stats_
};

#endif  // __linux__ && KCPQ_HAVE_IOURING

}  // namespace kcpq

#endif  // KCPQ_STORAGE_IO_EVENT_LOOP_H_
