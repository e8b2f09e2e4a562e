#include "storage/uring_ring.h"

#if defined(__linux__) && KCPQ_HAVE_IOURING

#include <sys/mman.h>
#include <sys/syscall.h>
#include <sys/uio.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <vector>

namespace kcpq {

namespace {

int SysSetup(unsigned entries, io_uring_params* p) {
  return static_cast<int>(::syscall(__NR_io_uring_setup, entries, p));
}

int SysEnter(int fd, unsigned to_submit, unsigned min_complete,
             unsigned flags) {
  return static_cast<int>(::syscall(__NR_io_uring_enter, fd, to_submit,
                                    min_complete, flags, nullptr, 0));
}

int SysRegister(int fd, unsigned opcode, const void* arg, unsigned nr_args) {
  return static_cast<int>(::syscall(__NR_io_uring_register, fd, opcode, arg,
                                    nr_args));
}

// The ring indices are plain __u32 in kernel-shared memory; both sides
// use acquire/release pairs on them (the liburing smp_load_acquire /
// smp_store_release protocol). Compiler builtins rather than
// std::atomic_ref: the C++20 atomic_ref rejects const-qualified views and
// this file is Linux/GCC/Clang-only anyway.
unsigned LoadAcquire(const unsigned* p) {
  return __atomic_load_n(p, __ATOMIC_ACQUIRE);
}

void StoreRelease(unsigned* p, unsigned v) {
  __atomic_store_n(p, v, __ATOMIC_RELEASE);
}

}  // namespace

unsigned* UringRing::SqAtomic(size_t offset) const {
  return reinterpret_cast<unsigned*>(static_cast<char*>(sq_ring_) + offset);
}

unsigned* UringRing::CqAtomic(size_t offset) const {
  return reinterpret_cast<unsigned*>(static_cast<char*>(cq_ring_) + offset);
}

bool UringRing::Init(int file_fd, unsigned sq_entries) {
  Close();
  io_uring_params params;
  std::memset(&params, 0, sizeof(params));
  const int fd = SysSetup(sq_entries, &params);
  if (fd < 0) return false;
  ring_fd_ = fd;
  sq_entries_ = params.sq_entries;
  cq_entries_ = params.cq_entries;
  sq_off_ = params.sq_off;
  cq_off_ = params.cq_off;

  sq_ring_size_ = sq_off_.array + params.sq_entries * sizeof(unsigned);
  cq_ring_size_ = cq_off_.cqes + params.cq_entries * sizeof(io_uring_cqe);
  const bool single_mmap = (params.features & IORING_FEAT_SINGLE_MMAP) != 0;
  if (single_mmap && cq_ring_size_ > sq_ring_size_) {
    sq_ring_size_ = cq_ring_size_;
  }
  sq_ring_ = ::mmap(nullptr, sq_ring_size_, PROT_READ | PROT_WRITE,
                    MAP_SHARED | MAP_POPULATE, ring_fd_, IORING_OFF_SQ_RING);
  if (sq_ring_ == MAP_FAILED) {
    sq_ring_ = nullptr;
    Close();
    return false;
  }
  if (single_mmap) {
    cq_ring_ = sq_ring_;
    cq_ring_size_ = 0;  // owned by the sq mapping
  } else {
    cq_ring_ = ::mmap(nullptr, cq_ring_size_, PROT_READ | PROT_WRITE,
                      MAP_SHARED | MAP_POPULATE, ring_fd_, IORING_OFF_CQ_RING);
    if (cq_ring_ == MAP_FAILED) {
      cq_ring_ = nullptr;
      Close();
      return false;
    }
  }
  sqes_size_ = params.sq_entries * sizeof(io_uring_sqe);
  void* sqes = ::mmap(nullptr, sqes_size_, PROT_READ | PROT_WRITE,
                      MAP_SHARED | MAP_POPULATE, ring_fd_, IORING_OFF_SQES);
  if (sqes == MAP_FAILED) {
    Close();
    return false;
  }
  sqes_ = static_cast<io_uring_sqe*>(sqes);

  // Identity-map the SQ index array once: slot i always carries sqe i.
  unsigned* array = SqAtomic(sq_off_.array);
  for (unsigned i = 0; i < sq_entries_; ++i) array[i] = i;

  // Registered file: saves the per-SQE fdget. Failure closes the ring —
  // every SQE below assumes fixed file 0.
  if (SysRegister(ring_fd_, IORING_REGISTER_FILES, &file_fd, 1) < 0) {
    Close();
    return false;
  }
  return true;
}

bool UringRing::RegisterBuffers(void* const* frames, size_t count,
                                size_t len) {
  if (!valid() || count == 0) return false;
  std::vector<iovec> iov(count);
  for (size_t i = 0; i < count; ++i) {
    iov[i].iov_base = frames[i];
    iov[i].iov_len = len;
  }
  if (SysRegister(ring_fd_, IORING_REGISTER_BUFFERS, iov.data(),
                  static_cast<unsigned>(count)) < 0) {
    return false;
  }
  buffers_registered_ = true;
  return true;
}

unsigned UringRing::sq_space() const {
  const unsigned head = LoadAcquire(SqAtomic(sq_off_.head));
  const unsigned tail = *SqAtomic(sq_off_.tail);  // we are the only writer
  return sq_entries_ - (tail - head);
}

io_uring_sqe* UringRing::GetSqe() {
  if (sq_space() == 0) return nullptr;
  const unsigned tail = *SqAtomic(sq_off_.tail);
  io_uring_sqe* sqe = &sqes_[tail & (sq_entries_ - 1)];
  std::memset(sqe, 0, sizeof(*sqe));
  return sqe;
}

bool UringRing::PrepRead(uint64_t user_data, void* buf, size_t len,
                         uint64_t offset, int fixed_index) {
  io_uring_sqe* sqe = GetSqe();
  if (sqe == nullptr) return false;
  sqe->opcode = (fixed_index >= 0 && buffers_registered_)
                    ? IORING_OP_READ_FIXED
                    : IORING_OP_READ;
  sqe->flags = IOSQE_FIXED_FILE;
  sqe->fd = 0;  // fixed file 0
  sqe->addr = reinterpret_cast<uint64_t>(buf);
  sqe->len = static_cast<unsigned>(len);
  sqe->off = offset;
  sqe->user_data = user_data;
  if (sqe->opcode == IORING_OP_READ_FIXED) {
    sqe->buf_index = static_cast<uint16_t>(fixed_index);
  }
  unsigned* tail = SqAtomic(sq_off_.tail);
  StoreRelease(tail, *tail + 1);
  ++to_submit_;
  return true;
}

int UringRing::Submit() {
  const unsigned n = to_submit_;
  if (n == 0) return 0;
  to_submit_ = 0;
  if (SysEnter(ring_fd_, n, 0, 0) < 0) return -errno;
  return static_cast<int>(n);
}

size_t UringRing::ReapReady(UringCqe* out, size_t capacity) {
  unsigned* head_ptr = CqAtomic(cq_off_.head);
  const unsigned tail = LoadAcquire(CqAtomic(cq_off_.tail));
  unsigned head = *head_ptr;  // we are the only reader
  const unsigned mask = *CqAtomic(cq_off_.ring_mask);
  const io_uring_cqe* cqes = reinterpret_cast<const io_uring_cqe*>(
      static_cast<char*>(cq_ring_) + cq_off_.cqes);
  size_t n = 0;
  while (head != tail && n < capacity) {
    const io_uring_cqe& cqe = cqes[head & mask];
    out[n].user_data = cqe.user_data;
    out[n].res = cqe.res;
    ++n;
    ++head;
  }
  if (n > 0) StoreRelease(head_ptr, head);
  return n;
}

int UringRing::SubmitWaitReap(unsigned to_submit, UringCqe* out,
                              size_t capacity, unsigned* accepted) {
  *accepted = 0;
  const size_t ready = ReapReady(out, capacity);
  if (to_submit == 0 && ready > 0) return static_cast<int>(ready);
  // CQEs already drained above: publish without blocking so the caller
  // processes them now; otherwise submit and wait in the one syscall.
  const unsigned min_complete = ready > 0 ? 0 : 1;
  const int res =
      SysEnter(ring_fd_, to_submit, min_complete, IORING_ENTER_GETEVENTS);
  if (res >= 0) {
    // io_uring_enter submits before it waits, so an interrupted wait
    // still reports the submitted count here; a negative return means
    // nothing was consumed.
    *accepted = static_cast<unsigned>(res);
  } else if (errno != EINTR && errno != EAGAIN && errno != EBUSY) {
    return -errno;
  }
  if (ready > 0) return static_cast<int>(ready);
  return static_cast<int>(ReapReady(out, capacity));
}

bool UringRing::Nop(uint64_t user_data) {
  io_uring_sqe* sqe = GetSqe();
  if (sqe == nullptr) return false;
  sqe->opcode = IORING_OP_NOP;
  sqe->user_data = user_data;
  unsigned* tail = SqAtomic(sq_off_.tail);
  StoreRelease(tail, *tail + 1);
  ++to_submit_;
  return Submit() >= 0;
}

void UringRing::Close() {
  if (sqes_ != nullptr) {
    ::munmap(sqes_, sqes_size_);
    sqes_ = nullptr;
  }
  if (cq_ring_ != nullptr && cq_ring_ != sq_ring_ && cq_ring_size_ > 0) {
    ::munmap(cq_ring_, cq_ring_size_);
  }
  cq_ring_ = nullptr;
  if (sq_ring_ != nullptr) {
    ::munmap(sq_ring_, sq_ring_size_);
    sq_ring_ = nullptr;
  }
  if (ring_fd_ >= 0) {
    ::close(ring_fd_);
    ring_fd_ = -1;
  }
  buffers_registered_ = false;
  to_submit_ = 0;
}

namespace {

const char* ProbeFailureReason() {
  io_uring_params params;
  std::memset(&params, 0, sizeof(params));
  const int fd = SysSetup(4, &params);
  if (fd >= 0) {
    ::close(fd);
    return "";
  }
  switch (errno) {
    case ENOSYS:
      return "kernel lacks io_uring (ENOSYS)";
    case EPERM:
      return "io_uring disabled by policy (EPERM; seccomp or sysctl)";
    default:
      return "io_uring ring setup failed";
  }
}

}  // namespace

const char* UringUnavailableReason() {
  static const char* reason = ProbeFailureReason();
  return reason;
}

bool UringAvailable() { return UringUnavailableReason()[0] == '\0'; }

}  // namespace kcpq

#else  // !(__linux__ && KCPQ_HAVE_IOURING)

namespace kcpq {

const char* UringUnavailableReason() {
#if defined(__linux__)
  return "built without io_uring support (KCPQ_IOURING=OFF)";
#else
  return "io_uring is Linux-only";
#endif
}

bool UringAvailable() { return false; }

}  // namespace kcpq

#endif  // __linux__ && KCPQ_HAVE_IOURING
