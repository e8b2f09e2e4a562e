#include "exec/scheduler.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "obs/kcpq_metrics.h"
#include "obs/metrics.h"

namespace kcpq {
namespace {

// Slot lifecycle (see the protocol comment in scheduler.h). The numeric
// values never leave this file.
[[maybe_unused]] constexpr int kIdle = 0;  // not yet started
constexpr int kRunning = 1;  // a worker is inside Step()
constexpr int kParked = 2;   // yielded on a miss, awaiting its waker
constexpr int kWoken = 3;    // completion arrived; queued or about to be
constexpr int kDone = 4;     // finished (or never admitted)

// Shared by the workers and by every waker the factory hands out. Wakers
// hold a shared_ptr so a stale wake fired after Run returns (e.g. from a
// post-run buffer drain erasing leftover demand entries) lands on live
// memory and no-ops against a kDone slot.
struct SchedulerImpl {
  explicit SchedulerImpl(size_t count) : states(count), tasks(count) {}

  std::vector<std::atomic<int>> states;
  std::vector<std::unique_ptr<ResumableTask>> tasks;

  // The run queue: woken slots in wake order, guarded by sleep_mu — the
  // mutex sleeping workers wait on, which a wake takes before it notifies
  // anyway.
  std::mutex sleep_mu;
  std::condition_variable sleep_cv;
  std::deque<size_t> runnable;

  // Admission of new tasks. next_start is written under start_mu but read
  // lock-free by the sleep predicate.
  std::mutex start_mu;
  std::atomic<size_t> next_start{0};
  size_t count = 0;
  size_t max_inflight = 0;
  std::atomic<size_t> inflight{0};
  std::atomic<size_t> done_count{0};

  // Run counters (relaxed; folded into the registry once at the end).
  std::atomic<uint64_t> parks{0};
  std::atomic<uint64_t> wakes{0};
  std::atomic<uint64_t> steps{0};
  std::atomic<uint64_t> peak_inflight{0};
  std::atomic<size_t> parked_count{0};

  const ResumableScheduler::TaskFactory* factory = nullptr;
  const ResumableScheduler::DoneFn* on_done = nullptr;

  bool AllDone() const {
    return done_count.load(std::memory_order_acquire) >= count;
  }

  void PublishParked() {
    if (obs::Enabled()) {
      obs::KcpqMetrics::Get().scheduler_parked->Set(
          parked_count.load(std::memory_order_relaxed));
    }
  }

  // Call with sleep_mu held.
  void PublishRunnable() {
    if (obs::Enabled()) {
      obs::KcpqMetrics::Get().scheduler_runnable->Set(runnable.size());
    }
  }

  void Enqueue(size_t index) {
    {
      std::lock_guard<std::mutex> lock(sleep_mu);
      runnable.push_back(index);
      PublishRunnable();
    }
    sleep_cv.notify_one();
  }

  bool Dequeue(size_t* index) {
    std::lock_guard<std::mutex> lock(sleep_mu);
    if (runnable.empty()) return false;
    *index = runnable.front();
    runnable.pop_front();
    PublishRunnable();
    return true;
  }

  // The BufferManager calls this (through the Waker lambda) on the I/O
  // completion path — and, with the synchronous backend, from inside the
  // very Step() that parked. Loop shape per scheduler.h: only the
  // Parked -> Woken transition enqueues.
  void Wake(size_t index) {
    auto& state = states[index];
    int prev = state.load(std::memory_order_acquire);
    for (;;) {
      if (prev == kDone || prev == kWoken) return;
      if (state.compare_exchange_weak(prev, kWoken,
                                      std::memory_order_acq_rel)) {
        break;
      }
    }
    wakes.fetch_add(1, std::memory_order_relaxed);
    KCPQ_METRIC_INC(obs::KcpqMetrics::Get().scheduler_wakes_total);
    if (prev == kParked) {
      parked_count.fetch_sub(1, std::memory_order_relaxed);
      PublishParked();
      Enqueue(index);
    }
    // prev == kRunning or kIdle: the worker inside Step observes the
    // failed Running -> Parked CAS and requeues the slot itself.
  }

  void FinishSlot(size_t index, bool ran) {
    // The task owns a waker holding a shared_ptr to this impl, so keeping
    // it would form a cycle that frees neither (nor the task's engine
    // state): the done callback takes it and destroys it. Nothing touches
    // a finished task again: stale wakes only read states[index].
    if (ran && on_done && *on_done) {
      (*on_done)(index, std::move(tasks[index]));
    }
    tasks[index].reset();
    inflight.fetch_sub(1, std::memory_order_relaxed);
    const size_t finished = done_count.fetch_add(1, std::memory_order_acq_rel) + 1;
    // A start slot just freed (or the run ended): rouse a sleeper to claim
    // it. notify_all at the end so every worker sees AllDone.
    { std::lock_guard<std::mutex> lock(sleep_mu); }
    if (finished >= count) {
      sleep_cv.notify_all();
    } else {
      sleep_cv.notify_one();
    }
  }

  void StepSlot(size_t index) {
    steps.fetch_add(1, std::memory_order_relaxed);
    KCPQ_METRIC_INC(obs::KcpqMetrics::Get().scheduler_steps_total);
    const ResumableTask::StepResult result = tasks[index]->Step();
    auto& state = states[index];
    if (result == ResumableTask::StepResult::kDone) {
      state.store(kDone, std::memory_order_release);
      FinishSlot(index, /*ran=*/true);
      return;
    }
    // kParked. Publish the park; if a completion already flipped the slot
    // to kWoken mid-step, the wake skipped the enqueue and it is ours.
    parks.fetch_add(1, std::memory_order_relaxed);
    KCPQ_METRIC_INC(obs::KcpqMetrics::Get().scheduler_parks_total);
    int expected = kRunning;
    if (state.compare_exchange_strong(expected, kParked,
                                      std::memory_order_acq_rel)) {
      parked_count.fetch_add(1, std::memory_order_relaxed);
      PublishParked();
    } else {
      // expected == kWoken: resume it via the queue rather than looping
      // here, so this worker stays fair to other runnable tasks.
      Enqueue(index);
    }
  }

  void RunSlot(size_t index) {
    states[index].store(kRunning, std::memory_order_release);
    StepSlot(index);
  }

  // Admit the next unstarted task if the inflight cap allows. Returns
  // false when nothing could be started (either everything has started or
  // the cap is reached).
  bool TryStart(const std::shared_ptr<SchedulerImpl>& self) {
    size_t index;
    {
      std::lock_guard<std::mutex> lock(start_mu);
      index = next_start.load(std::memory_order_relaxed);
      if (index >= count) return false;
      if (inflight.load(std::memory_order_relaxed) >= max_inflight) {
        return false;
      }
      next_start.store(index + 1, std::memory_order_relaxed);
      const size_t now = inflight.fetch_add(1, std::memory_order_relaxed) + 1;
      uint64_t peak = peak_inflight.load(std::memory_order_relaxed);
      while (peak < now && !peak_inflight.compare_exchange_weak(
                               peak, now, std::memory_order_relaxed)) {
      }
      KCPQ_METRIC_SET_MAX(obs::KcpqMetrics::Get().scheduler_inflight_peak, now);
    }
    states[index].store(kRunning, std::memory_order_release);
    Waker waker = [self, index]() { self->Wake(index); };
    tasks[index] = (*factory)(index, std::move(waker));
    if (tasks[index] == nullptr) {
      // The factory handled this one (admission rejection): no steps, no
      // done callback.
      states[index].store(kDone, std::memory_order_release);
      FinishSlot(index, /*ran=*/false);
      return true;
    }
    StepSlot(index);
    return true;
  }

  void WorkerLoop(const std::shared_ptr<SchedulerImpl>& self) {
    while (!AllDone()) {
      size_t index;
      if (Dequeue(&index)) {
        RunSlot(index);
        continue;
      }
      if (TryStart(self)) continue;
      // Nothing runnable and nothing startable: sleep until a wake, a
      // finish, or a freed admission slot. Each of those takes sleep_mu
      // before it notifies, so none slips in between the predicate and the
      // wait; the timeout is only a backstop.
      std::unique_lock<std::mutex> lock(sleep_mu);
      sleep_cv.wait_for(lock, std::chrono::milliseconds(50), [this] {
        return !runnable.empty() || AllDone() ||
               (next_start.load(std::memory_order_relaxed) < count &&
                inflight.load(std::memory_order_relaxed) < max_inflight);
      });
    }
  }
};

}  // namespace

ResumableScheduler::Stats ResumableScheduler::Run(size_t count,
                                                  const TaskFactory& factory,
                                                  const DoneFn& on_done,
                                                  const Options& options) {
  Stats stats;
  if (count == 0) return stats;
  size_t workers = options.workers > 0 ? options.workers : DefaultWorkers();
  if (workers > count) workers = count;
  size_t max_inflight = options.max_inflight > 0 ? options.max_inflight : 256;
  if (max_inflight > count) max_inflight = count;

  auto impl = std::make_shared<SchedulerImpl>(count);
  impl->count = count;
  impl->max_inflight = max_inflight;
  impl->factory = &factory;
  impl->on_done = &on_done;

  // The calling thread is the last worker.
  std::vector<std::thread> threads;
  threads.reserve(workers - 1);
  for (size_t i = 1; i < workers; ++i) {
    threads.emplace_back([impl] { impl->WorkerLoop(impl); });
  }
  impl->WorkerLoop(impl);
  for (auto& t : threads) t.join();

  stats.parks = impl->parks.load(std::memory_order_relaxed);
  stats.wakes = impl->wakes.load(std::memory_order_relaxed);
  stats.steps = impl->steps.load(std::memory_order_relaxed);
  stats.peak_inflight = impl->peak_inflight.load(std::memory_order_relaxed);
  if (obs::Enabled()) {
    obs::KcpqMetrics::Get().scheduler_parked->Set(0);
    obs::KcpqMetrics::Get().scheduler_runnable->Set(0);
  }
  // The factory/on_done pointers dangle once we return; clear them so a
  // stale waker held by a buffer entry cannot reach them (it only touches
  // states and the run queue anyway, but belt and braces).
  impl->factory = nullptr;
  impl->on_done = nullptr;
  return stats;
}

size_t ResumableScheduler::DefaultWorkers() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

}  // namespace kcpq
