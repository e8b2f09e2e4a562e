#include "cpq/prefetch.h"

#include <algorithm>

namespace kcpq {
namespace cpq_internal {

void PrefetchScheduler::Issue() {
  if (!enabled() || targets_.empty()) {
    targets_.clear();
    return;
  }
  if (targets_.size() > window_) {
    // Deterministic selection (key, then pages) so two runs over the same
    // frontier speculate on the same pages.
    std::partial_sort(targets_.begin(), targets_.begin() + window_,
                      targets_.end(), [](const Target& a, const Target& b) {
                        if (a.key != b.key) return a.key < b.key;
                        if (a.page_p != b.page_p) return a.page_p < b.page_p;
                        return a.page_q < b.page_q;
                      });
    targets_.resize(window_);
  }
  pages_p_.clear();
  pages_q_.clear();
  const bool merged = buffer_p_ == buffer_q_;
  for (const Target& t : targets_) {
    if (t.page_p != kInvalidPageId) pages_p_.push_back(t.page_p);
    if (t.page_q != kInvalidPageId) {
      (merged ? pages_p_ : pages_q_).push_back(t.page_q);
    }
  }
  targets_.clear();
  if (buffer_p_ != nullptr && !pages_p_.empty()) {
    issued_ += buffer_p_->Prefetch(pages_p_.data(), pages_p_.size(), ctx_);
  }
  if (!merged && buffer_q_ != nullptr && !pages_q_.empty()) {
    issued_ += buffer_q_->Prefetch(pages_q_.data(), pages_q_.size(), ctx_);
  }
}

void PrefetchScheduler::Drain() {
  if (!enabled()) return;
  buffer_p_->DrainPrefetches();
  if (buffer_q_ != buffer_p_) buffer_q_->DrainPrefetches();
}

}  // namespace cpq_internal
}  // namespace kcpq
