// Page replacement policies for the buffer manager.
//
// The paper's experiments use LRU (Section 4.3.3, following Leutenegger &
// Lopez ICDE'98). FIFO and Random are provided for the ablation benchmarks.
//
// A policy tracks frame slots, not page ids: a shard of the buffer keeps
// page `id` in slot `id / shards` of its frame table (buffer_manager.h), so
// the slots a policy sees are small dense integers bounded by the frame
// table's length. Every policy keeps its state in arrays indexed by slot:
// a hit does no hashing and no allocation.

#ifndef KCPQ_BUFFER_REPLACEMENT_POLICY_H_
#define KCPQ_BUFFER_REPLACEMENT_POLICY_H_

#include <cstdint>
#include <memory>

namespace kcpq {

/// A page's index in its shard's frame table: page id / shard count.
using FrameSlot = uint64_t;

/// Tracks the set of resident slots and picks eviction victims. The buffer
/// manager guarantees: every slot is OnInsert-ed before OnAccess; OnErase
/// may name a slot that is not tracked (a no-op); ChooseVictim is called
/// only when at least one slot is resident, and the returned victim is
/// implicitly erased from the policy's tracking.
class ReplacementPolicy {
 public:
  virtual ~ReplacementPolicy() = default;

  ReplacementPolicy(const ReplacementPolicy&) = delete;
  ReplacementPolicy& operator=(const ReplacementPolicy&) = delete;

  /// `slot` became resident.
  virtual void OnInsert(FrameSlot slot) = 0;
  /// `slot` (resident) was hit.
  virtual void OnAccess(FrameSlot slot) = 0;
  /// Picks a victim among resident slots and stops tracking it.
  virtual FrameSlot ChooseVictim() = 0;
  /// `slot` was dropped without eviction (page freed / buffer cleared).
  virtual void OnErase(FrameSlot slot) = 0;

  virtual const char* name() const = 0;

 protected:
  ReplacementPolicy() = default;
};

/// Least-recently-used (the paper's policy).
std::unique_ptr<ReplacementPolicy> MakeLruPolicy();
/// First-in-first-out.
std::unique_ptr<ReplacementPolicy> MakeFifoPolicy();
/// Uniform-random victim, deterministic from `seed`.
std::unique_ptr<ReplacementPolicy> MakeRandomPolicy(uint64_t seed);

}  // namespace kcpq

#endif  // KCPQ_BUFFER_REPLACEMENT_POLICY_H_
