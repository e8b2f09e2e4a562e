// Completion-driven scheduler for resumable queries.
//
// The blocking batch executor (exec/batch.h) dedicates one pool thread to
// each in-flight query, which drives its state machine inline; on cold
// storage that thread spends nearly all of its time waiting in ReadPage,
// so concurrency — and therefore the I/O overlap the paper's cost model
// rewards — is capped by the thread count.
// This scheduler inverts the model: queries are ResumableTasks
// (common/resumable.h) that *yield* on a buffer miss, so a small worker
// pool multiplexes hundreds of in-flight queries, each parked inside the
// BufferManager until its page's asynchronous read completes.
//
// Per-slot wake protocol (the heart of the scheduler — lock-free, correct
// even when a completion fires *inside* Step, as the synchronous I/O
// backend does):
//
//   states: Idle -> Running -> (Done | Parked <-> Woken -> Running ...)
//
//   * A worker runs Step() with the slot in Running. If Step returns
//     kParked it CASes Running -> Parked; when that CAS fails the state is
//     already Woken (the page landed mid-step) and the worker requeues the
//     slot itself instead of sleeping it.
//   * A waker (fired by the BufferManager on any completion-side path)
//     CASes the state to Woken; only the transition *from Parked* enqueues
//     the slot on the runnable ring — a wake that lands while the task is
//     Running leaves the enqueue to the worker's failed park-CAS. Wakes on
//     Woken or Done slots are no-ops (stale wakers are expected: entries
//     fired at drain/erase time may target long-finished queries).
//
//   Together: exactly one enqueue per Woken transition, so a slot occupies
//   at most one runnable entry and the ring (completion_ring.h, sized
//   count + workers + 1) can never fill. No wake is ever lost, no park
//   ever sleeps through its completion.
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
    /// Worker threads. 0 = ThreadPool::DefaultThreads().
    size_t workers = 0;
    /// Maximum tasks live (started, not finished) at once; further tasks
    /// start as slots free up. 0 = 256.
    size_t max_inflight = 256;
    /// Observability hook: invoked on the worker thread each time task
    /// `index` parks on a page miss (after the park is committed). Null =
    /// no reporting. Must be cheap and thread-safe — the batch executor
    /// uses it to bump the task's live QueryObservation.
    std::function<void(size_t index)> on_park;
  };

  /// Builds task `index`. The waker must be installed in every TryRead the
  /// task issues; it stays valid (and harmlessly callable) until after the
  /// caller's post-run buffer drains. Returning nullptr marks the task
  /// finished immediately without a done callback — the factory has
  /// handled it (e.g. an admission rejection that fills its result slot).
  using TaskFactory =
      std::function<std::unique_ptr<ResumableTask>(size_t index, Waker waker)>;

  /// Called on a worker thread right after task `index` returns kDone,
  /// before its slot is released (so `max_inflight` also bounds
  /// not-yet-harvested results). The task is destroyed when this returns,
  /// so take its results here. Runs concurrently for different tasks.
  using DoneFn = std::function<void(size_t index, ResumableTask* task)>;

  struct Stats {
    uint64_t parks = 0;
    uint64_t wakes = 0;
    uint64_t steps = 0;
    uint64_t peak_inflight = 0;
  };

  /// Runs `count` tasks to completion and returns the run's counters.
  /// Blocks the calling thread. Each task is destroyed right after its
  /// done callback, so all of them are gone before Run returns; the
  /// caller drains the buffers *after* Run only to settle speculation
  /// accounting — stale wakers still held by staging entries are no-ops.
  static Stats Run(size_t count, const TaskFactory& factory,
                   const DoneFn& on_done, const Options& options);
};

}  // namespace kcpq

#endif  // KCPQ_EXEC_SCHEDULER_H_
