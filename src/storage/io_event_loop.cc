#include "storage/io_event_loop.h"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "obs/kcpq_metrics.h"
#include "storage/async_io.h"

namespace kcpq {

void ThreadPoolEventLoop::SubmitReads(const PageId* ids, size_t count,
                                      AsyncReadCallback callback) {
  if (count == 0) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.batches_submitted;
    stats_.reads_submitted += count;
  }
  IoThreadPool& pool = IoThreadPool::Shared();
  for (size_t i = 0; i < count; ++i) {
    const PageId id = ids[i];
    pool.Submit([this, id, callback] {
      AsyncPageRead done;
      done.id = id;
      done.status = read_page_(id, &done.page);
      callback(std::move(done));
    });
  }
}

IoEventLoopStats ThreadPoolEventLoop::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

#if defined(__linux__) && KCPQ_HAVE_IOURING

namespace {

// user_data reserved for the shutdown wakeup NOP; real reads carry their
// slot index, which is always < cq_entries.
constexpr uint64_t kWakeNop = ~uint64_t{0};

}  // namespace

UringEventLoop::UringEventLoop(uint64_t base_offset, size_t page_size)
    : base_offset_(base_offset), page_size_(page_size) {}

std::unique_ptr<UringEventLoop> UringEventLoop::Create(
    int file_fd, uint64_t base_offset, size_t page_size, unsigned sq_depth,
    std::string* error) {
  if (!UringAvailable()) {
    if (error != nullptr) *error = UringUnavailableReason();
    return nullptr;
  }
  std::unique_ptr<UringEventLoop> loop(
      new UringEventLoop(base_offset, page_size));
  if (!loop->InitRing(file_fd, sq_depth, error)) return nullptr;
  return loop;
}

bool UringEventLoop::InitRing(int file_fd, unsigned sq_depth,
                              std::string* error) {
  if (!ring_.Init(file_fd, sq_depth == 0 ? 64 : sq_depth)) {
    if (error != nullptr) *error = "io_uring ring setup failed";
    return false;
  }
  const size_t capacity = ring_.cq_entries();
  arena_size_ = capacity * page_size_;
  void* arena = nullptr;
  if (::posix_memalign(&arena, 4096, arena_size_) != 0) {
    ring_.Close();
    if (error != nullptr) *error = "event-loop arena allocation failed";
    return false;
  }
  arena_ = static_cast<uint8_t*>(arena);
  // Best-effort: RLIMIT_MEMLOCK can refuse; plain reads into the same
  // frames are the documented degradation.
  std::vector<void*> frames(capacity);
  for (size_t i = 0; i < capacity; ++i) frames[i] = Frame(i);
  ring_.RegisterBuffers(frames.data(), capacity, page_size_);
  slots_.resize(capacity);
  free_slots_.reserve(capacity);
  for (size_t i = capacity; i > 0; --i) {
    free_slots_.push_back(static_cast<uint32_t>(i - 1));
  }
  reaper_ = std::thread([this] { Reap(); });
  return true;
}

UringEventLoop::~UringEventLoop() {
  if (reaper_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    // Poke the reaper out of its submit-and-wait enter. The SQ may still
    // hold deferred SQEs; a failed Nop (SQ full) flushes them so their
    // completions drain the ring, then retries off-lock until it lands.
    for (;;) {
      bool woke;
      {
        std::lock_guard<std::mutex> lock(mu_);
        woke = ring_.Nop(kWakeNop);
        if (!woke) ring_.Submit();
      }
      if (woke) break;
      std::this_thread::yield();
    }
    reaper_.join();
  }
  ring_.Close();
  std::free(arena_);
  arena_ = nullptr;
}

void UringEventLoop::SubmitReads(const PageId* ids, size_t count,
                                 AsyncReadCallback callback) {
  if (count == 0) return;
  // Multi-read batches share the callback via a refcount; the single-read
  // demand fetch — the per-miss hot path — moves it into the slot and
  // skips the allocation.
  std::shared_ptr<Batch> batch;
  if (count > 1) batch = std::make_shared<Batch>(std::move(callback));
  std::unique_lock<std::mutex> lock(mu_);
  ++submit_stats_.batches_submitted;
  submit_stats_.reads_submitted += count;
  KCPQ_METRIC_OBSERVE(obs::KcpqMetrics::Get().uring_sqe_batch_size, count);
  for (size_t i = 0; i < count; ++i) {
    while (free_slots_.empty()) {
      // Every slot is in flight: flush queued SQEs so their completions
      // can free slots, then wait for the reaper. This is the in-flight
      // backpressure bound (slots == cq_entries, so the CQ cannot
      // overflow).
      ring_.Submit();
      ++submit_stats_.sq_full_stalls;
      KCPQ_METRIC_INC(obs::KcpqMetrics::Get().uring_sq_full_stalls_total);
      slot_available_.wait(lock);
    }
    const uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot].id = ids[i];
    if (count > 1) {
      slots_[slot].batch = batch;
    } else {
      slots_[slot].solo = std::move(callback);
    }
    const uint64_t offset =
        base_offset_ + static_cast<uint64_t>(ids[i]) * page_size_;
    const int fixed =
        ring_.buffers_registered() ? static_cast<int>(slot) : -1;
    while (!ring_.PrepRead(slot, Frame(slot), page_size_, offset, fixed)) {
      ++submit_stats_.sq_full_stalls;
      KCPQ_METRIC_INC(obs::KcpqMetrics::Get().uring_sq_full_stalls_total);
      ring_.Submit();  // the enter consumes the SQ tail
      if (ring_.sq_space() == 0) std::this_thread::yield();
    }
    if (fixed >= 0) {
      ++submit_stats_.fixed_buffer_reads;
      KCPQ_METRIC_INC(obs::KcpqMetrics::Get().uring_fixed_buffer_reads_total);
    } else {
      ++submit_stats_.unfixed_reads;
      KCPQ_METRIC_INC(obs::KcpqMetrics::Get().uring_unfixed_reads_total);
    }
  }
  // Completion-driven submission: every taken slot beyond the staged SQE
  // count is a read the kernel already owns, so at least one completion
  // is on its way and the reaper's next submit-and-wait enter will
  // publish what we just staged — skip the syscall. Only an idle ring
  // publishes eagerly.
  const size_t taken = slots_.size() - free_slots_.size();
  if (taken > ring_.pending()) {
    ++submit_stats_.deferred_batches;
  } else {
    ring_.Submit();
  }
}

void UringEventLoop::Reap() {
  struct Done {
    uint32_t slot = 0;
    std::shared_ptr<Batch> batch;  // multi-read submissions
    AsyncReadCallback solo;        // single-read submissions
    AsyncPageRead read;
  };
  std::vector<UringCqe> cqes(slots_.size());
  std::vector<Done> done;
  for (;;) {
    // Claim whatever submitters staged since the last pass and publish
    // it inside the same enter that waits for completions: the deferred
    // submission contract (SubmitReads skips its syscall only when a
    // completion is outstanding, i.e. when this loop is guaranteed to
    // run again).
    unsigned claimed = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      claimed = ring_.TakePending();
    }
    unsigned accepted = 0;
    const int n =
        ring_.SubmitWaitReap(claimed, cqes.data(), cqes.size(), &accepted);
    if (accepted < claimed) {
      std::lock_guard<std::mutex> lock(mu_);
      ring_.Recredit(claimed - accepted);
    }
    done.clear();
    for (int i = 0; i < n; ++i) {
      if (cqes[i].user_data == kWakeNop) continue;
      const uint32_t slot = static_cast<uint32_t>(cqes[i].user_data);
      // The frame copy is safe off-lock: the bytes are kernel-written and
      // the slot stays taken (no submitter can reuse the frame) until the
      // free below. The slot's own fields are read under mu_ further down
      // — submitters wrote them under mu_, and the only other ordering
      // edge runs through the kernel's SQ/CQ protocol, which tools like
      // TSan cannot observe.
      AsyncPageRead read;
      if (cqes[i].res < 0) {
        read.status = Status::IoError(std::string("uring read: ") +
                                      std::strerror(-cqes[i].res));
      } else if (static_cast<size_t>(cqes[i].res) != page_size_) {
        read.status = Status::IoError("uring short read");
      } else {
        read.page.Resize(page_size_);
        std::memcpy(read.page.data(), Frame(slot), page_size_);
      }
      done.push_back(Done{slot, nullptr, nullptr, std::move(read)});
    }
    if (!done.empty()) {
      std::lock_guard<std::mutex> lock(reap_stats_mu_);
      ++reap_stats_.cqe_wakes;
      reap_stats_.cqes_reaped += done.size();
      KCPQ_METRIC_OBSERVE(obs::KcpqMetrics::Get().uring_cqes_per_wake,
                          done.size());
    }
    bool should_exit;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (Done& d : done) {
        d.read.id = slots_[d.slot].id;
        d.batch = std::move(slots_[d.slot].batch);
        d.solo = std::move(slots_[d.slot].solo);
        free_slots_.push_back(d.slot);
      }
      if (!done.empty()) slot_available_.notify_all();
      should_exit = stop_ && free_slots_.size() == slots_.size();
    }
    // Callbacks run off-lock: they claim staging slots and fire parked
    // Wakers, which may immediately re-enter SubmitReads from a scheduler
    // worker.
    for (Done& d : done) {
      if (d.solo) {
        d.solo(std::move(d.read));
      } else {
        d.batch->callback(std::move(d.read));
      }
    }
    if (should_exit) return;
  }
}

IoEventLoopStats UringEventLoop::stats() const {
  IoEventLoopStats out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out = submit_stats_;
  }
  {
    std::lock_guard<std::mutex> lock(reap_stats_mu_);
    out.cqe_wakes = reap_stats_.cqe_wakes;
    out.cqes_reaped = reap_stats_.cqes_reaped;
  }
  return out;
}

#endif  // __linux__ && KCPQ_HAVE_IOURING

}  // namespace kcpq
