#include "cpq/node_reader.h"

#include <utility>

#include "obs/trace.h"

namespace kcpq {
namespace cpq_internal {

Status TryReadCheckedNode(const RStarTree& tree, PageId page, int level,
                          QueryContext* ctx, const Waker& waker, Node* node,
                          BufferManager::TryReadOutcome* outcome) {
  KCPQ_RETURN_IF_ERROR(tree.TryReadNode(page, node, ctx, waker, outcome));
  if (outcome->parked) return Status::OK();
  return CheckNodeLevel(*node, level, page);
}

NodeReader::NodeReader(const RStarTree& tree_p, const RStarTree& tree_q,
                       QueryContext* ctx, Waker waker)
    : tree_p_(tree_p),
      tree_q_(tree_q),
      ctx_(ctx),
      trace_(ctx != nullptr ? ctx->trace() : nullptr),
      waker_(std::move(waker)) {}

NodeReader::Outcome NodeReader::Read(bool is_p, PageId page, int level) {
  if (park_pending_) ClosePark();
  BufferManager::TryReadOutcome outcome;
  error_ = TryReadCheckedNode(is_p ? tree_p_ : tree_q_, page, level, ctx_,
                              waker_, is_p ? &node_p_ : &node_q_, &outcome);
  if (outcome.parked) {
    ++parks_;
    if (ctx_ != nullptr && ctx_->observation() != nullptr) {
      ctx_->observation()->io_parks.fetch_add(1, std::memory_order_relaxed);
    }
    park_pending_ = true;
    park_page_ = page;
    park_start_ = std::chrono::steady_clock::now();
    park_trace_ts_ = trace_ != nullptr ? trace_->NowNs() : 0;
    return Outcome::kParked;
  }
  if (error_.code() == StatusCode::kDeadlineExceeded) return Outcome::kDeadline;
  if (!error_.ok()) return Outcome::kError;
  if (!outcome.hit) {
    // One buffer serving both trees (a self-join): each per-tree counter
    // covers that whole buffer, so a miss lands in both.
    const bool shared = tree_p_.buffer() == tree_q_.buffer();
    if (is_p || shared) ++misses_p_;
    if (!is_p || shared) ++misses_q_;
    if (outcome.prefetch_claim) ++prefetch_hits_;
  }
  return Outcome::kOk;
}

NodeReader::Outcome NodeReader::ReadPair(PageId page_p, int level_p,
                                         PageId page_q, int level_q) {
  if (!have_p_) {
    const Outcome o = Read(/*is_p=*/true, page_p, level_p);
    if (o != Outcome::kOk) return o;
    have_p_ = true;
  }
  if (!have_q_) {
    const Outcome o = Read(/*is_p=*/false, page_q, level_q);
    if (o != Outcome::kOk) return o;
    have_q_ = true;
  }
  return Outcome::kOk;
}

void NodeReader::ConfigurePrefetch(size_t window) {
  prefetch_.Configure(tree_p_.buffer(), tree_q_.buffer(), window, ctx_);
}

void NodeReader::SettleInline() {
  if (!waker_) prefetch_.Drain();
}

void NodeReader::CopyTallies(CpqStats* stats) const {
  stats->disk_accesses_p = misses_p_;
  stats->disk_accesses_q = misses_q_;
  stats->prefetch_issued = prefetch_.issued();
  stats->prefetch_hits = prefetch_hits_;
  stats->io_parks = parks_;
  stats->io_parked_ns = parked_ns_;
  stats->replication =
      ctx_ != nullptr ? ctx_->replication() : ReplicationStats{};
}

void NodeReader::ClosePark() {
  park_pending_ = false;
  const auto elapsed = std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now() - park_start_)
                           .count();
  const uint64_t dur = elapsed > 0 ? static_cast<uint64_t>(elapsed) : 0;
  parked_ns_ += dur;
  if (trace_ != nullptr) {
    obs::TraceEvent ev;
    ev.kind = obs::TraceEventKind::kIoPark;
    ev.ts_ns = park_trace_ts_;
    ev.dur_ns = dur > 0 ? dur : 1;
    ev.a = park_page_;
    trace_->Record(ev);
  }
}

}  // namespace cpq_internal
}  // namespace kcpq
