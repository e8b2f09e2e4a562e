// Process-wide I/O thread pool backing the portable ReadPagesAsync
// backend (storage_manager.h, IoBackend::kThreadPool).
//
// This is deliberately *separate* from the batch executor's workers
// (exec/scheduler.h): exec sits above cpq/rtree/buffer/storage in the
// dependency graph, so storage cannot borrow its workers — and mixing
// CPU-bound query workers with threads that spend their life blocked in
// pread/sleep would let a burst of slow reads starve compute anyway. The
// pool is shared by every storage manager in the process: speculative
// reads are a background activity whose parallelism should be sized to
// the device (KCPQ_IO_THREADS), not to the number of open stores.
//
// Thread-safety: Submit may be called from any thread. Tasks run in
// submission order per worker pickup (no ordering guarantee across
// workers). The pool is created on first use and joins its workers at
// static destruction; all submitted tasks run before the destructor
// returns, so a task enqueued while the process is alive never leaks.

#ifndef KCPQ_STORAGE_ASYNC_IO_H_
#define KCPQ_STORAGE_ASYNC_IO_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace kcpq {

class IoThreadPool {
 public:
  /// The shared pool. Sized from the KCPQ_IO_THREADS environment variable
  /// when set (clamped to [1, 64]), else kDefaultThreads.
  static IoThreadPool& Shared();

  explicit IoThreadPool(size_t threads);
  ~IoThreadPool();

  IoThreadPool(const IoThreadPool&) = delete;
  IoThreadPool& operator=(const IoThreadPool&) = delete;

  /// Enqueues `task` for execution on a worker thread. Never blocks on the
  /// task itself (the queue is unbounded: callers bound their own in-flight
  /// work, e.g. BufferManager's prefetch capacity).
  void Submit(std::function<void()> task);

  size_t threads() const { return workers_.size(); }

  /// True when the calling thread is one of this process's I/O pool
  /// workers (any IoThreadPool instance). Storage layers that both submit
  /// to the pool and block on the completion — the hedged-read path in
  /// storage/mirrored_storage.h — must check this and fall back to a
  /// non-blocking strategy: a worker waiting on a task queued behind
  /// itself deadlocks the pool once every worker does it.
  static bool OnWorkerThread();

  /// Default worker count when KCPQ_IO_THREADS is unset: enough to overlap
  /// a prefetch window of 8 node pairs, independent of core count (the
  /// workers block in I/O, they do not compute).
  static constexpr size_t kDefaultThreads = 8;

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace kcpq

#endif  // KCPQ_STORAGE_ASYNC_IO_H_
