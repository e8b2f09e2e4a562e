#include "buffer/replacement_policy.h"

#include <cassert>
#include <vector>

#include "common/random.h"

namespace kcpq {

namespace {

// A recency list threaded through an array indexed by slot: node 0 is the
// sentinel of a circular doubly linked list, slot s lives at node s + 1.
// Front (sentinel.next) = most recent, back (sentinel.prev) = victim.
// Touching a slot relinks two array cells: no hashing, no allocation.
class SlotList {
 public:
  SlotList() : links_(1, Link{0, 0}) {}

  void PushFront(FrameSlot slot) {
    const size_t n = slot + 1;
    if (n >= links_.size()) links_.resize(n + 1, Link{kUnlinked, kUnlinked});
    assert(links_[n].next == kUnlinked);
    LinkFront(n);
  }

  void MoveToFront(FrameSlot slot) {
    const size_t n = slot + 1;
    assert(n < links_.size() && links_[n].next != kUnlinked);
    if (links_[0].next == n) return;
    Unlink(n);
    LinkFront(n);
  }

  FrameSlot PopBack() {
    const size_t n = links_[0].prev;
    assert(n != 0);
    Unlink(n);
    return n - 1;
  }

  void Erase(FrameSlot slot) {
    const size_t n = slot + 1;
    if (n >= links_.size() || links_[n].next == kUnlinked) return;
    Unlink(n);
  }

 private:
  static constexpr size_t kUnlinked = ~size_t{0};
  struct Link {
    size_t prev;
    size_t next;
  };

  void LinkFront(size_t n) {
    const size_t first = links_[0].next;
    links_[n] = Link{0, first};
    links_[first].prev = n;
    links_[0].next = n;
  }

  void Unlink(size_t n) {
    const Link l = links_[n];
    links_[l.prev].next = l.next;
    links_[l.next].prev = l.prev;
    links_[n] = Link{kUnlinked, kUnlinked};
  }

  std::vector<Link> links_;
};

// LRU: a hit moves its slot to the front; the victim is the back.
class LruPolicy final : public ReplacementPolicy {
 public:
  void OnInsert(FrameSlot slot) override { order_.PushFront(slot); }
  void OnAccess(FrameSlot slot) override { order_.MoveToFront(slot); }
  FrameSlot ChooseVictim() override { return order_.PopBack(); }
  void OnErase(FrameSlot slot) override { order_.Erase(slot); }
  const char* name() const override { return "lru"; }

 private:
  SlotList order_;
};

// FIFO: eviction in arrival order, accesses ignored.
class FifoPolicy final : public ReplacementPolicy {
 public:
  void OnInsert(FrameSlot slot) override { order_.PushFront(slot); }
  void OnAccess(FrameSlot /*slot*/) override {}
  FrameSlot ChooseVictim() override { return order_.PopBack(); }
  void OnErase(FrameSlot slot) override { order_.Erase(slot); }
  const char* name() const override { return "fifo"; }

 private:
  SlotList order_;
};

// Random victim via a swap-with-last dense vector; `index_[slot]` is the
// slot's position in `live_` (kAbsent when not resident).
class RandomPolicy final : public ReplacementPolicy {
 public:
  explicit RandomPolicy(uint64_t seed) : rng_(seed) {}

  void OnInsert(FrameSlot slot) override {
    if (slot >= index_.size()) index_.resize(slot + 1, kAbsent);
    index_[slot] = live_.size();
    live_.push_back(slot);
  }

  void OnAccess(FrameSlot /*slot*/) override {}

  FrameSlot ChooseVictim() override {
    assert(!live_.empty());
    const size_t at = rng_.NextBounded(live_.size());
    const FrameSlot victim = live_[at];
    RemoveAt(at);
    return victim;
  }

  void OnErase(FrameSlot slot) override {
    if (slot >= index_.size() || index_[slot] == kAbsent) return;
    RemoveAt(index_[slot]);
  }

  const char* name() const override { return "random"; }

 private:
  static constexpr size_t kAbsent = ~size_t{0};

  void RemoveAt(size_t at) {
    const FrameSlot moved = live_.back();
    index_[live_[at]] = kAbsent;
    live_[at] = moved;
    live_.pop_back();
    if (at < live_.size()) index_[moved] = at;
  }

  Xoshiro256pp rng_;
  std::vector<FrameSlot> live_;
  std::vector<size_t> index_;
};

}  // namespace

std::unique_ptr<ReplacementPolicy> MakeLruPolicy() {
  return std::make_unique<LruPolicy>();
}

std::unique_ptr<ReplacementPolicy> MakeFifoPolicy() {
  return std::make_unique<FifoPolicy>();
}

std::unique_ptr<ReplacementPolicy> MakeRandomPolicy(uint64_t seed) {
  return std::make_unique<RandomPolicy>(seed);
}

}  // namespace kcpq
