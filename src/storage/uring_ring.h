// Minimal raw-syscall io_uring wrapper (Linux only, no liburing).
//
// The container/runner matrix this project targets frequently lacks
// liburing-dev, so the native completion event loop talks to the kernel
// directly: io_uring_setup / io_uring_enter / io_uring_register plus the
// mmap'd submission and completion rings from <linux/io_uring.h>. Only
// the slice the event loop needs is wrapped — fixed-depth read
// submission, registered files, optionally registered fixed buffers, and
// batched CQE reaping. See docs/io.md ("Native completion
// event loop") for the lifecycle this supports.
//
// Thread-safety: PrepRead/Submit/TakePending/Recredit must be externally
// serialized (the event loop holds a submit mutex); ReapReady and
// SubmitWaitReap may run concurrently from one reaper thread — the
// release-store on the SQ tail is what hands completed SQEs to the
// kernel, so the reaper's enter may publish them without taking the
// submit mutex. The kernel is the other side of both rings; all shared
// indices are accessed with acquire/release atomics.

#ifndef KCPQ_STORAGE_URING_RING_H_
#define KCPQ_STORAGE_URING_RING_H_

#include <cstddef>
#include <cstdint>

#if defined(__linux__) && KCPQ_HAVE_IOURING
#include <linux/io_uring.h>
#endif

namespace kcpq {

/// One reaped completion: the submitter's user_data and the syscall-style
/// result (bytes read, or -errno).
struct UringCqe {
  uint64_t user_data = 0;
  int32_t res = 0;
};

#if defined(__linux__) && KCPQ_HAVE_IOURING

/// A single io_uring instance: setup, mmap'd rings, registered file, and
/// optionally registered fixed buffers. Not copyable; Close is idempotent.
class UringRing {
 public:
  UringRing() = default;
  ~UringRing() { Close(); }
  UringRing(const UringRing&) = delete;
  UringRing& operator=(const UringRing&) = delete;

  /// Sets up a ring of `sq_entries` SQEs (rounded up to a power of two
  /// by the kernel; the CQ is sized 2x that, and the event loop bounds
  /// in-flight reads to cq_entries) and registers `file_fd` as fixed
  /// file 0. Returns false (with the ring closed) when the kernel rejects
  /// the setup — callers fall back to the thread-pool backend.
  bool Init(int file_fd, unsigned sq_entries);

  /// Registers `count` fixed buffers of `len` bytes each at `frames[i]`.
  /// Best-effort: returns false (reads then use plain IORING_OP_READ into
  /// caller buffers) when the kernel refuses, e.g. over RLIMIT_MEMLOCK.
  bool RegisterBuffers(void* const* frames, size_t count, size_t len);

  /// Queues one read of `len` bytes at file offset `offset`. With
  /// `fixed_index` >= 0 (and RegisterBuffers accepted) the read lands in
  /// that registered frame via IORING_OP_READ_FIXED; otherwise it is a
  /// plain read into `buf`. Returns false when the SQ is full — the
  /// caller must Submit() and retry (that is the sq-full stall the event
  /// loop counts).
  bool PrepRead(uint64_t user_data, void* buf, size_t len, uint64_t offset,
                int fixed_index);

  /// Publishes queued SQEs to the kernel. Returns the number submitted,
  /// or a negative errno.
  int Submit();

  /// SQEs queued by PrepRead that no Submit/TakePending has claimed yet.
  unsigned pending() const { return to_submit_; }

  /// Claims the queued-but-unsubmitted SQE count, transferring the duty
  /// to publish them (via SubmitWaitReap) to the caller. Must be called
  /// under the same serialization as PrepRead/Submit.
  unsigned TakePending() {
    const unsigned n = to_submit_;
    to_submit_ = 0;
    return n;
  }

  /// Returns claimed-but-unpublished SQEs to the pending count (the
  /// submit syscall was interrupted or refused before consuming them).
  /// Same serialization as TakePending.
  void Recredit(unsigned n) { to_submit_ += n; }

  /// One io_uring_enter that publishes up to `to_submit` claimed SQEs
  /// AND waits for a completion when none is already ready, then drains
  /// up to `capacity` CQEs into `out`. `*accepted` reports how many SQEs
  /// the kernel took (recredit the difference). Returns the number of
  /// CQEs drained, or a negative errno. This is the reaper's only
  /// syscall: submitters that know a completion is outstanding stage
  /// SQEs and leave the publish to this call, so a busy ring pays one
  /// enter per completion wave instead of one per read.
  int SubmitWaitReap(unsigned to_submit, UringCqe* out, size_t capacity,
                     unsigned* accepted);

  /// Non-blocking CQE drain; returns the number copied into `out`.
  size_t ReapReady(UringCqe* out, size_t capacity);

  /// Queues + submits a no-op SQE (used to wake a reaper blocked in
  /// SubmitWaitReap at shutdown). The no-op carries `user_data`.
  bool Nop(uint64_t user_data);

  void Close();

  bool valid() const { return ring_fd_ >= 0; }
  bool buffers_registered() const { return buffers_registered_; }
  unsigned sq_entries() const { return sq_entries_; }
  unsigned cq_entries() const { return cq_entries_; }
  /// Free SQE slots right now (submission-side view).
  unsigned sq_space() const;

 private:
  unsigned* SqAtomic(size_t offset) const;
  unsigned* CqAtomic(size_t offset) const;
  io_uring_sqe* GetSqe();

  int ring_fd_ = -1;
  bool buffers_registered_ = false;
  unsigned sq_entries_ = 0;
  unsigned cq_entries_ = 0;
  unsigned to_submit_ = 0;  // SQEs queued since the last Submit

  // mmap regions (sq ring; cq ring unless IORING_FEAT_SINGLE_MMAP; sqes).
  void* sq_ring_ = nullptr;
  size_t sq_ring_size_ = 0;
  void* cq_ring_ = nullptr;
  size_t cq_ring_size_ = 0;
  io_uring_sqe* sqes_ = nullptr;
  size_t sqes_size_ = 0;

  io_sqring_offsets sq_off_{};
  io_cqring_offsets cq_off_{};
};

#endif  // __linux__ && KCPQ_HAVE_IOURING

/// True when io_uring is compiled in AND the running kernel accepts ring
/// setup (probed once per process; io_uring can be disabled by seccomp or
/// sysctl even on new kernels).
bool UringAvailable();

/// Human-readable reason UringAvailable() is false ("" when it is true).
/// Surfaced by the CLI's active-backend report.
const char* UringUnavailableReason();

}  // namespace kcpq

#endif  // KCPQ_STORAGE_URING_RING_H_
