// Unit tests for R-tree node serialization.

#include <limits>

#include "gtest/gtest.h"
#include "rtree/node.h"
#include "tests/test_util.h"

namespace kcpq {
namespace {

Point P(double x, double y) { return Point{{x, y}}; }

TEST(NodeTest, CapacityMatchesPaperConfiguration) {
  // 1 KiB pages -> M = 21, the paper's Section 4 setup; m = M/3 = 7.
  EXPECT_EQ(NodeCapacity(1024), 21u);
}

TEST(NodeTest, CapacityScalesWithPageSize) {
  EXPECT_EQ(NodeCapacity(2048), 42u);
  EXPECT_EQ(NodeCapacity(4096), 85u);
  EXPECT_EQ(NodeCapacity(512), 10u);
}

TEST(NodeTest, SerializeRoundTripLeaf) {
  Node node;
  node.level = 0;
  for (int i = 0; i < 21; ++i) {
    node.entries.push_back(Entry::ForPoint(P(i * 0.01, 1 - i * 0.01), i));
  }
  Page page(1024);
  KCPQ_ASSERT_OK(SerializeNode(node, &page));
  Node out;
  KCPQ_ASSERT_OK(DeserializeNode(page, &out));
  ASSERT_EQ(out.level, 0);
  ASSERT_EQ(out.entries.size(), 21u);
  for (int i = 0; i < 21; ++i) {
    EXPECT_EQ(out.entries[i].id, static_cast<uint64_t>(i));
    EXPECT_EQ(out.entries[i].rect, node.entries[i].rect);
    EXPECT_EQ(out.entries[i].AsPoint(), P(i * 0.01, 1 - i * 0.01));
  }
}

TEST(NodeTest, SerializeRoundTripInternal) {
  Node node;
  node.level = 3;
  Rect r;
  r.lo[0] = -1.5;
  r.lo[1] = 2.25;
  r.hi[0] = 3.75;
  r.hi[1] = 8.125;
  node.entries.push_back(Entry{r, 0xDEADBEEFCAFEULL});
  Page page(1024);
  KCPQ_ASSERT_OK(SerializeNode(node, &page));
  Node out;
  KCPQ_ASSERT_OK(DeserializeNode(page, &out));
  EXPECT_EQ(out.level, 3);
  ASSERT_EQ(out.entries.size(), 1u);
  EXPECT_EQ(out.entries[0].rect, r);
  EXPECT_EQ(out.entries[0].id, 0xDEADBEEFCAFEULL);
}

TEST(NodeTest, EmptyNodeRoundTrip) {
  Node node;
  node.level = 0;
  Page page(1024);
  KCPQ_ASSERT_OK(SerializeNode(node, &page));
  Node out;
  out.entries.push_back(Entry{});  // must be cleared by deserialization
  KCPQ_ASSERT_OK(DeserializeNode(page, &out));
  EXPECT_TRUE(out.entries.empty());
}

TEST(NodeTest, OverfullNodeRejected) {
  Node node;
  node.level = 0;
  for (int i = 0; i < 22; ++i) {
    node.entries.push_back(Entry::ForPoint(P(0, 0), i));
  }
  Page page(1024);
  EXPECT_EQ(SerializeNode(node, &page).code(), StatusCode::kInvalidArgument);
}

TEST(NodeTest, CorruptCountRejected) {
  Page page(1024);
  Node node;
  node.level = 0;
  KCPQ_ASSERT_OK(SerializeNode(node, &page));
  page.data()[4] = 0xFF;  // absurd count
  Node out;
  EXPECT_EQ(DeserializeNode(page, &out).code(), StatusCode::kCorruption);
}

TEST(NodeTest, CorruptLevelRejected) {
  Page page(1024);
  Node node;
  node.level = 0;
  KCPQ_ASSERT_OK(SerializeNode(node, &page));
  page.data()[0] = 0xFF;  // level 255
  Node out;
  EXPECT_EQ(DeserializeNode(page, &out).code(), StatusCode::kCorruption);
}

TEST(NodeTest, InvertedRectRejected) {
  Node node;
  node.level = 1;
  Rect r;
  r.lo[0] = 1.0;
  r.hi[0] = 0.0;  // lo > hi
  r.lo[1] = 0.0;
  r.hi[1] = 1.0;
  node.entries.push_back(Entry{r, 1});
  Page page(1024);
  KCPQ_ASSERT_OK(SerializeNode(node, &page));
  Node out;
  EXPECT_EQ(DeserializeNode(page, &out).code(), StatusCode::kCorruption);

  // NaN compares false against everything, so lo > hi alone misses it.
  node.entries[0].rect.lo[0] = std::numeric_limits<double>::quiet_NaN();
  node.entries[0].rect.hi[0] = 1.0;
  KCPQ_ASSERT_OK(SerializeNode(node, &page));
  EXPECT_EQ(DeserializeNode(page, &out).code(), StatusCode::kCorruption);
}

TEST(NodeTest, ComputeMbrIsTight) {
  Node node;
  node.level = 0;
  node.entries.push_back(Entry::ForPoint(P(0.2, 0.8), 0));
  node.entries.push_back(Entry::ForPoint(P(0.6, 0.1), 1));
  node.entries.push_back(Entry::ForPoint(P(0.4, 0.5), 2));
  const Rect mbr = node.ComputeMbr();
  EXPECT_DOUBLE_EQ(mbr.lo[0], 0.2);
  EXPECT_DOUBLE_EQ(mbr.lo[1], 0.1);
  EXPECT_DOUBLE_EQ(mbr.hi[0], 0.6);
  EXPECT_DOUBLE_EQ(mbr.hi[1], 0.8);
}

}  // namespace
}  // namespace kcpq
