// The resumable-task contract shared by the engines (src/cpq, src/hs)
// and the completion-driven scheduler (src/exec/scheduler.h).
//
// A resumable query is an explicit state machine: Step() advances the
// traversal until it either finishes or needs a page that is not
// resident. Every CPQ, HS and Semi-CPQ query runs as one; without a waker
// its reads wait and Step() runs it to completion (inline). With one, on a
// miss the engine registers the waker with the BufferManager
// (BufferManager::TryRead) and returns kParked, freeing
// the worker thread to step another query; when the page's fetch
// completes the buffer fires the waker and the scheduler re-queues the
// task. This is what lets a handful of workers multiplex hundreds of
// in-flight I/O-bound queries (docs/io.md, "completion-driven
// scheduling").
//
// The interface lives in common (not exec) because the engines
// implement it without depending on the executor.

#ifndef KCPQ_COMMON_RESUMABLE_H_
#define KCPQ_COMMON_RESUMABLE_H_

#include <condition_variable>
#include <functional>
#include <mutex>

namespace kcpq {

/// Continuation fired by the buffer when a parked task's page fetch
/// completes (or its staging entry is invalidated). May be invoked from
/// an I/O completion thread; implementations must be thread-safe, must
/// not block on storage, and must tolerate firing after the task has
/// already finished (the scheduler's wake-state machine drops stale
/// wakes).
using Waker = std::function<void()>;

/// A query restructured as an explicit resumable state machine.
class ResumableTask {
 public:
  virtual ~ResumableTask() = default;

  enum class StepResult {
    /// The query finished (successfully or with a terminal error);
    /// Step() must not be called again.
    kDone,
    /// The query parked on a non-resident page after registering its
    /// waker; Step() again only after the waker fires.
    kParked,
  };

  /// Advances the state machine until the next park or completion.
  /// Called by one thread at a time (the scheduler guarantees a task is
  /// never stepped concurrently with itself).
  virtual StepResult Step() = 0;
};

/// Minimal single-task event loop: drives one ResumableTask to
/// completion on the calling thread, sleeping between parks. Used by the
/// CLI's single-query --scheduler=resumable path (EXPLAIN/trace of one
/// parking query) and the TryRead tests; the real multiplexing loop is
/// exec::ResumableScheduler. (A task built with an empty waker needs no
/// gate: it never parks, and one Step() finishes it.)
class InlineWakerGate {
 public:
  /// The waker to hand to the task's constructor.
  Waker waker() {
    return [this] {
      {
        std::lock_guard<std::mutex> lock(mu_);
        woken_ = true;
      }
      cv_.notify_one();
    };
  }

  /// Blocks until the waker fires, then clears the flag. Call exactly
  /// once per kParked result, before the next Step().
  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return woken_; });
    woken_ = false;
  }

  /// Runs `task` to completion.
  void RunToCompletion(ResumableTask& task) {
    while (task.Step() == ResumableTask::StepResult::kParked) Wait();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool woken_ = false;
};

}  // namespace kcpq

#endif  // KCPQ_COMMON_RESUMABLE_H_
