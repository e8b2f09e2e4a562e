// The batch executor (exec/batch.h runs every batch here, in both modes).
//
// Queries are ResumableTasks (common/resumable.h). A task built with the
// scheduler's waker *yields* on a buffer miss, so a small worker pool
// multiplexes hundreds of in-flight queries, each parked inside the
// BufferManager until its page's asynchronous read completes. A task built
// without it (the blocking batch mode) runs inline: its misses wait in the
// read, one Step() finishes it, and each worker drives one query at a time.
// The scheduler is the same for both; only the tasks differ.
//
// Per-slot wake protocol (lock-free, correct even when a completion fires
// *inside* Step, as the synchronous I/O backend does):
//
//   states: Idle -> Running -> (Done | Parked <-> Woken -> Running ...)
//
//   * A worker runs Step() with the slot in Running. If Step returns
//     kParked it CASes Running -> Parked; when that CAS fails the state is
//     already Woken (the page landed mid-step) and the worker requeues the
//     slot itself instead of sleeping it.
//   * A waker (fired by the BufferManager on any completion-side path)
//     CASes the state to Woken; only the transition *from Parked* enqueues
//     the slot on the run queue — a wake that lands while the task is
//     Running leaves the enqueue to the worker's failed park-CAS. Wakes on
//     Woken or Done slots are no-ops (stale wakers are expected: entries
//     fired at drain/erase time may target long-finished queries).
//
//   Together: exactly one enqueue per Woken transition, so a slot occupies
//   at most one run-queue entry. No wake is ever lost, no park ever sleeps
//   through its completion. The run queue is a FIFO under the mutex that a
//   wake takes anyway to rouse a sleeping worker.
//
// Workers prefer resuming woken tasks over admitting new ones, and admit
// new tasks only while fewer than `max_inflight` are live — the
// backpressure knob that bounds buffer/demand-queue pressure.
//
// Determinism: the scheduler controls only *interleaving*. Each task's own
// step sequence — and with it, the paper's disk-access metric — is fixed
// by the task (see cpq/resumable.h), so results are bit-identical to the
// same machine run inline, at any worker count or inflight cap.

#ifndef KCPQ_EXEC_SCHEDULER_H_
#define KCPQ_EXEC_SCHEDULER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>

#include "common/resumable.h"

namespace kcpq {

class ResumableScheduler {
 public:
  struct Options {
    /// Worker threads, the calling thread included. 0 = DefaultWorkers().
    size_t workers = 0;
    /// Maximum tasks live (started, not finished) at once; further tasks
    /// start as slots free up. 0 = 256.
    size_t max_inflight = 256;
  };

  /// Builds task `index`. The waker must be installed in every TryRead the
  /// task issues; it stays valid (and harmlessly callable) until after the
  /// caller's post-run buffer drains. A task built without it runs inline
  /// and must never return kParked: nothing would wake it. Returning
  /// nullptr marks the task
  /// finished immediately without a done callback — the factory has
  /// handled it (e.g. an admission rejection that fills its result slot).
  using TaskFactory =
      std::function<std::unique_ptr<ResumableTask>(size_t index, Waker waker)>;

  /// Called on a worker thread right after task `index` returns kDone,
  /// before its slot is released (so `max_inflight` also bounds
  /// not-yet-harvested results). The callback owns the task: take its
  /// results, then destroy it (at the latest by returning), so whatever
  /// the task referenced may be freed after it. Runs concurrently for
  /// different tasks.
  using DoneFn = std::function<void(size_t index,
                                    std::unique_ptr<ResumableTask> task)>;

  struct Stats {
    uint64_t parks = 0;
    uint64_t wakes = 0;
    uint64_t steps = 0;
    uint64_t peak_inflight = 0;
  };

  /// Runs `count` tasks to completion and returns the run's counters.
  /// The calling thread is one of the workers (`workers = 1` starts no
  /// thread). Each task is destroyed by its done callback, so all of them
  /// are gone before Run returns; the caller drains the buffers *after*
  /// Run only to settle speculation accounting — stale wakers still held
  /// by staging entries are no-ops.
  static Stats Run(size_t count, const TaskFactory& factory,
                   const DoneFn& on_done, const Options& options);

  /// The hardware concurrency, or 1 when the runtime cannot tell.
  static size_t DefaultWorkers();
};

}  // namespace kcpq

#endif  // KCPQ_EXEC_SCHEDULER_H_
