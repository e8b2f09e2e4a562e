#include "storage/file_storage.h"

#include <fcntl.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>
#include <vector>

#include "obs/kcpq_metrics.h"
#include "storage/uring_ring.h"

namespace kcpq {

namespace {

constexpr uint64_t kMagic = 0x6b637071'70616765ULL;  // "kcpqpage"
constexpr uint64_t kSuperblockSize = 4096;

struct Superblock {
  uint64_t magic;
  uint64_t page_size;
  uint64_t page_count;
  PageId free_head;
};

std::string Errno(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

}  // namespace

FileStorageManager::FileStorageManager(int fd, std::string path,
                                       size_t page_size)
    : StorageManager(page_size), fd_(fd), path_(std::move(path)) {
  // The portable completion loop serves kThreadPool (and a degraded
  // kUring); it routes through the virtual ReadPage so counting and any
  // future decoration stay identical to the base async path.
  pool_loop_ = std::make_unique<ThreadPoolEventLoop>(
      [this](PageId id, Page* page) { return ReadPage(id, page, nullptr); });
}

FileStorageManager::~FileStorageManager() {
  if (fd_ >= 0) {
    // Best effort: persist metadata before closing.
    WriteSuperblock();
    ::close(fd_);
  }
}

Result<std::unique_ptr<FileStorageManager>> FileStorageManager::Create(
    const std::string& path, size_t page_size) {
  if (page_size < 64) {
    return Status::InvalidArgument("page size too small");
  }
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Status::IoError(Errno("open " + path));
  auto mgr = std::unique_ptr<FileStorageManager>(
      new FileStorageManager(fd, path, page_size));
  KCPQ_RETURN_IF_ERROR(mgr->WriteSuperblock());
  return mgr;
}

Result<std::unique_ptr<FileStorageManager>> FileStorageManager::Open(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDWR);
  if (fd < 0) return Status::IoError(Errno("open " + path));
  Superblock sb{};
  const ssize_t n = ::pread(fd, &sb, sizeof(sb), 0);
  if (n != static_cast<ssize_t>(sizeof(sb))) {
    ::close(fd);
    return Status::Corruption("short superblock in " + path);
  }
  if (sb.magic != kMagic) {
    ::close(fd);
    return Status::Corruption("bad magic in " + path);
  }
  auto mgr = std::unique_ptr<FileStorageManager>(
      new FileStorageManager(fd, path, sb.page_size));
  mgr->page_count_ = sb.page_count;
  mgr->free_head_ = sb.free_head;
  return mgr;
}

uint64_t FileStorageManager::PageCount() const { return page_count_; }

uint64_t FileStorageManager::PageOffset(PageId id) const {
  return kSuperblockSize + id * page_size();
}

Status FileStorageManager::ReadRaw(uint64_t offset, void* buf,
                                   size_t len) const {
  const ssize_t n = ::pread(fd_, buf, len, static_cast<off_t>(offset));
  if (n != static_cast<ssize_t>(len)) return Status::IoError(Errno("pread"));
  return Status::OK();
}

Status FileStorageManager::WriteRaw(uint64_t offset, const void* buf,
                                    size_t len) {
  const ssize_t n = ::pwrite(fd_, buf, len, static_cast<off_t>(offset));
  if (n != static_cast<ssize_t>(len)) return Status::IoError(Errno("pwrite"));
  return Status::OK();
}

Status FileStorageManager::WriteSuperblock() {
  Superblock sb{kMagic, page_size(), page_count_, free_head_};
  return WriteRaw(0, &sb, sizeof(sb));
}

Result<PageId> FileStorageManager::Allocate() {
  if (free_head_ != kInvalidPageId) {
    const PageId id = free_head_;
    PageId next = kInvalidPageId;
    KCPQ_RETURN_IF_ERROR(ReadRaw(PageOffset(id), &next, sizeof(next)));
    free_head_ = next;
    Page zero(page_size());
    KCPQ_RETURN_IF_ERROR(WriteRaw(PageOffset(id), zero.data(), zero.size()));
    KCPQ_RETURN_IF_ERROR(WriteSuperblock());
    return id;
  }
  const PageId id = page_count_;
  Page zero(page_size());
  KCPQ_RETURN_IF_ERROR(WriteRaw(PageOffset(id), zero.data(), zero.size()));
  ++page_count_;
  KCPQ_RETURN_IF_ERROR(WriteSuperblock());
  return id;
}

Status FileStorageManager::Free(PageId id) {
  if (id >= page_count_) return Status::OutOfRange("free of unknown page");
  KCPQ_RETURN_IF_ERROR(
      WriteRaw(PageOffset(id), &free_head_, sizeof(free_head_)));
  free_head_ = id;
  return WriteSuperblock();
}

bool FileStorageManager::SupportsIoBackend(IoBackend backend) const {
  if (backend == IoBackend::kUring) return UringAvailable();
  return StorageManager::SupportsIoBackend(backend);
}

Status FileStorageManager::DoSetIoBackend(IoBackend backend) {
  // Rebuilt (not reused) on every kUring selection so ConfigureUring
  // changes take effect; the backend contract forbids switching with
  // async reads in flight, so tearing the old loop down here is safe.
  uring_loop_.reset();
  uring_fallback_reason_.clear();
  if (backend != IoBackend::kUring) return Status::OK();
#if defined(__linux__) && KCPQ_HAVE_IOURING
  std::string error;
  uring_loop_ = UringEventLoop::Create(fd_, kSuperblockSize, page_size(),
                                       uring_options_.sq_depth, &error);
  if (uring_loop_ == nullptr) uring_fallback_reason_ = error;
#else
  uring_fallback_reason_ = UringUnavailableReason();
#endif
  // Ring-setup failure degrades to the pool loop instead of failing the
  // call: SupportsIoBackend already said yes, and callers surface the
  // recorded reason (ActiveIoBackend != io_backend).
  return Status::OK();
}

IoBackend FileStorageManager::ActiveIoBackend() const {
  if (io_backend() == IoBackend::kUring && uring_loop_ == nullptr) {
    return IoBackend::kThreadPool;
  }
  return io_backend();
}

IoEventLoopStats FileStorageManager::UringStats() const {
  return uring_loop_ != nullptr ? uring_loop_->stats() : IoEventLoopStats{};
}

void FileStorageManager::DoReadPagesAsync(const PageId* ids, size_t count,
                                          const AsyncReadCallback& callback) {
  IoEventLoop* loop =
      io_backend() == IoBackend::kUring ? uring_loop_.get() : nullptr;
  if (loop == nullptr) {
    pool_loop_->SubmitReads(ids, count, callback);
    return;
  }
  // Native path: SQEs go straight into the persistent ring from this
  // thread (no dispatch task) and the reaper invokes `callback` directly.
  // Out-of-range ids fail up front — the ring never sees them.
  std::vector<PageId> valid;
  valid.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    if (ids[i] >= page_count_) {
      AsyncPageRead done;
      done.id = ids[i];
      done.status = Status::OutOfRange("read of unknown page");
      callback(std::move(done));
    } else {
      valid.push_back(ids[i]);
    }
  }
  if (valid.empty()) return;
  // The ring bypasses DoReadPage, so count here at completion, matching
  // the attempt-not-success semantics of the synchronous path.
  AsyncReadCallback counted = [this, callback](AsyncPageRead done) {
    CountRead();
    KCPQ_METRIC_INC(obs::KcpqMetrics::Get().storage_reads_total);
    callback(std::move(done));
  };
  loop->SubmitReads(valid.data(), valid.size(), std::move(counted));
}

Status FileStorageManager::DoReadPage(PageId id, Page* page,
                                      const QueryContext* /*ctx*/) {
  if (id >= page_count_) return Status::OutOfRange("read of unknown page");
  CountRead();
  KCPQ_METRIC_INC(obs::KcpqMetrics::Get().storage_reads_total);
  page->Resize(page_size());
  return ReadRaw(PageOffset(id), page->data(), page->size());
}

bool FileStorageManager::DoTryReadPageNow(PageId id, Page* page) {
#if defined(__linux__) && defined(RWF_NOWAIT)
  // Out-of-range ids take the ordinary path, which reports the error.
  if (id >= page_count_ || !nowait_reads_.load(std::memory_order_relaxed)) {
    return false;
  }
  page->Resize(page_size());
  iovec iov{page->data(), page->size()};
  const ssize_t n = ::preadv2(fd_, &iov, 1, static_cast<off_t>(PageOffset(id)),
                              RWF_NOWAIT);
  if (n == static_cast<ssize_t>(page->size())) {
    CountRead();
    inline_reads_.fetch_add(1, std::memory_order_relaxed);
    KCPQ_METRIC_INC(obs::KcpqMetrics::Get().storage_reads_total);
    KCPQ_METRIC_INC(obs::KcpqMetrics::Get().storage_inline_reads_total);
    return true;
  }
  if (n < 0 && (errno == EOPNOTSUPP || errno == EINVAL)) {
    nowait_reads_.store(false, std::memory_order_relaxed);
  }
  return false;
#else
  (void)id;
  (void)page;
  return false;
#endif
}

Status FileStorageManager::WritePage(PageId id, const Page& page) {
  if (id >= page_count_) return Status::OutOfRange("write of unknown page");
  if (page.size() != page_size()) {
    return Status::InvalidArgument("page size mismatch on write");
  }
  CountWrite();
  KCPQ_METRIC_INC(obs::KcpqMetrics::Get().storage_writes_total);
  return WriteRaw(PageOffset(id), page.data(), page.size());
}

Status FileStorageManager::Sync() {
  KCPQ_RETURN_IF_ERROR(WriteSuperblock());
  if (::fsync(fd_) != 0) return Status::IoError(Errno("fsync"));
  return Status::OK();
}

}  // namespace kcpq
