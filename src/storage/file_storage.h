// File-backed storage manager (real disk pages via POSIX pread/pwrite).
//
// On-disk layout: a fixed 4 KiB superblock (magic, page size, page count,
// free-list head) followed by the pages. Freed pages are chained through
// their first 8 bytes. A tree saved by one process can be reopened by
// another; examples/persistence.cc demonstrates the round trip.

#ifndef KCPQ_STORAGE_FILE_STORAGE_H_
#define KCPQ_STORAGE_FILE_STORAGE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "storage/io_event_loop.h"
#include "storage/storage_manager.h"

namespace kcpq {

class FileStorageManager final : public StorageManager {
 public:
  /// Tuning for the native uring event loop; applied the next time
  /// SetIoBackend(kUring) runs (docs/io.md, "Native completion event
  /// loop").
  struct UringOptions {
    unsigned sq_depth = 64;  ///< SQ entries; in-flight bound is 2x this
  };

  /// Creates a new store at `path` (truncating any existing file).
  static Result<std::unique_ptr<FileStorageManager>> Create(
      const std::string& path, size_t page_size = kDefaultPageSize);

  /// Opens an existing store; fails on a bad magic or size mismatch.
  static Result<std::unique_ptr<FileStorageManager>> Open(
      const std::string& path);

  ~FileStorageManager() override;

  uint64_t PageCount() const override;
  Result<PageId> Allocate() override;
  Status Free(PageId id) override;
  Status WritePage(PageId id, const Page& page) override;
  Status Sync() override;

  /// Additionally reports kUring when the io_uring backend is compiled in
  /// (KCPQ_IOURING) and the running kernel accepts ring setup.
  bool SupportsIoBackend(IoBackend backend) const override;

  /// Stores uring tuning; takes effect on the next SetIoBackend(kUring)
  /// (configure before selecting the backend).
  void ConfigureUring(const UringOptions& options) { uring_options_ = options; }

  /// kUring when the persistent ring is live, otherwise what io_backend()
  /// says (kUring degrades to the pool loop when ring setup failed).
  IoBackend ActiveIoBackend() const override;
  std::string IoBackendFallbackReason() const override {
    return uring_fallback_reason_;
  }

  /// The uring loop's counters (zeroes when the ring never came up).
  IoEventLoopStats UringStats() const;
  /// Null unless the uring loop is live. Exposes fixed-buffer status for
  /// the CLI's active-backend report.
  const IoEventLoop* uring_loop() const { return uring_loop_.get(); }

  /// Reads served by TryReadPageNow (page-cache resident, no wait).
  uint64_t inline_reads() const {
    return inline_reads_.load(std::memory_order_relaxed);
  }

 protected:
  Status DoReadPage(PageId id, Page* page, const QueryContext* ctx) override;

  /// preadv2(RWF_NOWAIT) on Linux: serves a page only when the kernel can
  /// copy all of it from the page cache without blocking. EAGAIN or a
  /// short read says "not now"; EOPNOTSUPP / EINVAL (a kernel or file
  /// system without nowait buffered reads) switches the fast path off for
  /// this file. Always false elsewhere.
  bool DoTryReadPageNow(PageId id, Page* page) override;

  /// kUring submits the batch into the persistent uring event loop (the
  /// reaper thread invokes `callback` directly — no IoThreadPool hop);
  /// kThreadPool goes through the portable ThreadPoolEventLoop. A uring
  /// loop that failed to come up degrades to the pool loop (see
  /// IoBackendFallbackReason).
  void DoReadPagesAsync(const PageId* ids, size_t count,
                        const AsyncReadCallback& callback) override;

  /// Builds (kUring) or tears down the persistent ring. Ring-setup
  /// failure is not an error: the manager records the fallback reason and
  /// serves kUring through the pool loop so callers can surface the
  /// degradation instead of dying.
  Status DoSetIoBackend(IoBackend backend) override;

 private:
  FileStorageManager(int fd, std::string path, size_t page_size);

  Status WriteSuperblock();
  Status ReadRaw(uint64_t offset, void* buf, size_t len) const;
  Status WriteRaw(uint64_t offset, const void* buf, size_t len);
  uint64_t PageOffset(PageId id) const;

  int fd_;
  std::string path_;
  uint64_t page_count_ = 0;
  PageId free_head_ = kInvalidPageId;

  UringOptions uring_options_;
  std::unique_ptr<ThreadPoolEventLoop> pool_loop_;
  std::unique_ptr<IoEventLoop> uring_loop_;
  std::string uring_fallback_reason_;

  std::atomic<bool> nowait_reads_{true};
  std::atomic<uint64_t> inline_reads_{0};
};

}  // namespace kcpq

#endif  // KCPQ_STORAGE_FILE_STORAGE_H_
