// Unit tests for the hybrid memory/disk priority queue, including its
// serialization and spill/reload I/O accounting.

#include <algorithm>
#include <vector>

#include "gtest/gtest.h"
#include "hs/hybrid_queue.h"
#include "hs/hs.h"
#include "tests/test_util.h"

namespace kcpq {
namespace hs_internal {
namespace {

QueueItem MakeItem(double key, uint64_t id, int32_t tie_level = 0) {
  QueueItem item;
  item.key = key;
  item.tie_level = tie_level;
  item.a.id = id;
  item.a.is_node = (id % 2) == 0;
  item.a.level = static_cast<int32_t>(id % 5);
  item.b.id = id + 1000;
  return item;
}

TEST(QueueItemTest, SerializationRoundTrip) {
  QueueItem item;
  item.key = 3.14159;
  item.tie_level = -2;
  item.seq = 0x123456789ULL;
  item.a.is_node = true;
  item.a.id = 77;
  item.a.level = 3;
  item.a.rect.lo[0] = -1.5;
  item.a.rect.hi[1] = 9.25;
  item.b.is_node = false;
  item.b.id = 88;
  item.b.level = -1;
  uint8_t buf[kQueueItemSize] = {};
  SerializeQueueItem(item, buf);
  QueueItem out;
  DeserializeQueueItem(buf, &out);
  EXPECT_EQ(out.key, item.key);
  EXPECT_EQ(out.tie_level, item.tie_level);
  EXPECT_EQ(out.seq, item.seq);
  EXPECT_EQ(out.a.is_node, true);
  EXPECT_EQ(out.a.id, 77u);
  EXPECT_EQ(out.a.level, 3);
  EXPECT_EQ(out.a.rect.lo[0], -1.5);
  EXPECT_EQ(out.a.rect.hi[1], 9.25);
  EXPECT_EQ(out.b.is_node, false);
  EXPECT_EQ(out.b.level, -1);
}

TEST(HybridQueueTest, AllInMemoryPopsAscending) {
  HybridQueue queue(std::numeric_limits<double>::infinity(), 1024, true);
  Xoshiro256pp rng(1);
  std::vector<double> keys;
  for (int i = 0; i < 200; ++i) {
    const double k = rng.NextDouble();
    keys.push_back(k);
    queue.Push(MakeItem(k, i));
  }
  std::sort(keys.begin(), keys.end());
  for (int i = 0; i < 200; ++i) {
    ASSERT_FALSE(queue.Empty());
    EXPECT_DOUBLE_EQ(queue.PopMin().key, keys[i]);
  }
  EXPECT_TRUE(queue.Empty());
  EXPECT_EQ(queue.spill_reads(), 0u);
  EXPECT_EQ(queue.spill_writes(), 0u);
}

TEST(HybridQueueTest, SpillsAboveThresholdAndStillPopsAscending) {
  HybridQueue queue(/*distance_threshold=*/0.3, 1024, true);
  Xoshiro256pp rng(2);
  std::vector<double> keys;
  for (int i = 0; i < 500; ++i) {
    const double k = rng.NextDouble();
    keys.push_back(k);
    queue.Push(MakeItem(k, i));
  }
  EXPECT_GT(queue.overflow_size(), 0u);
  std::sort(keys.begin(), keys.end());
  for (int i = 0; i < 500; ++i) {
    ASSERT_FALSE(queue.Empty()) << "i=" << i;
    ASSERT_DOUBLE_EQ(queue.PopMin().key, keys[i]);
  }
  EXPECT_TRUE(queue.Empty());
  // The overflow tier was actually exercised on disk.
  EXPECT_GT(queue.spill_writes(), 0u);
  EXPECT_GT(queue.spill_reads(), 0u);
}

TEST(HybridQueueTest, InterleavedPushPopAcrossTiers) {
  HybridQueue queue(/*distance_threshold=*/0.1, 512, false);
  Xoshiro256pp rng(3);
  std::vector<double> reference;
  auto push = [&](double k) {
    reference.push_back(k);
    queue.Push(MakeItem(k, reference.size()));
  };
  auto pop_min_reference = [&]() {
    auto it = std::min_element(reference.begin(), reference.end());
    const double k = *it;
    reference.erase(it);
    return k;
  };
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 20; ++i) push(rng.NextDouble());
    for (int i = 0; i < 10; ++i) {
      ASSERT_FALSE(queue.Empty());
      ASSERT_DOUBLE_EQ(queue.PopMin().key, pop_min_reference());
    }
  }
  while (!reference.empty()) {
    ASSERT_FALSE(queue.Empty());
    ASSERT_DOUBLE_EQ(queue.PopMin().key, pop_min_reference());
  }
  EXPECT_TRUE(queue.Empty());
}

TEST(HybridQueueTest, DepthFirstTiePrefersDeeperItems) {
  HybridQueue queue(std::numeric_limits<double>::infinity(), 1024,
                    /*comparator_prefers_deep=*/true);
  queue.Push(MakeItem(1.0, 1, /*tie_level=*/6));   // shallow
  queue.Push(MakeItem(1.0, 2, /*tie_level=*/-2));  // deep
  queue.Push(MakeItem(1.0, 3, /*tie_level=*/3));
  EXPECT_EQ(queue.PopMin().tie_level, -2);
  EXPECT_EQ(queue.PopMin().tie_level, 3);
  EXPECT_EQ(queue.PopMin().tie_level, 6);
}

TEST(HybridQueueTest, BreadthFirstTiePrefersShallowerItems) {
  HybridQueue queue(std::numeric_limits<double>::infinity(), 1024,
                    /*comparator_prefers_deep=*/false);
  queue.Push(MakeItem(1.0, 1, /*tie_level=*/6));
  queue.Push(MakeItem(1.0, 2, /*tie_level=*/-2));
  EXPECT_EQ(queue.PopMin().tie_level, 6);
  EXPECT_EQ(queue.PopMin().tie_level, -2);
}

TEST(HybridQueueTest, JoinWithTinyThresholdStillCorrect) {
  // End-to-end: force heavy queue spilling during a real join and check
  // results are still exact.
  using ::kcpq::testing::MakeUniformItems;
  using ::kcpq::testing::TreeFixture;
  const auto p_items = MakeUniformItems(400, 500);
  const auto q_items = MakeUniformItems(400, 501);
  TreeFixture fp, fq;
  KCPQ_ASSERT_OK(fp.Build(p_items));
  KCPQ_ASSERT_OK(fq.Build(q_items));

  HsOptions options;
  options.queue_distance_threshold = 1e-6;  // nearly everything spills
  CpqStats stats;
  auto spilled = HsKClosestPairs(fp.tree(), fq.tree(), 25, options, &stats);
  ASSERT_TRUE(spilled.ok());
  auto in_memory = HsKClosestPairs(fp.tree(), fq.tree(), 25);
  ASSERT_TRUE(in_memory.ok());
  ASSERT_EQ(spilled.value().size(), in_memory.value().size());
  for (size_t i = 0; i < spilled.value().size(); ++i) {
    ASSERT_NEAR(spilled.value()[i].distance, in_memory.value()[i].distance,
                1e-12);
  }
  EXPECT_GT(stats.queue_spill_writes, 0u);
}

}  // namespace
}  // namespace hs_internal
}  // namespace kcpq
