// Corruption robustness: random byte mutations in tree pages must surface
// as clean Corruption/error Status values — queries and validation never
// crash, hang, or silently succeed on mangled structures they detect.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "cpq/cpq.h"
#include "cpq/distance_join.h"
#include "cpq/multiway.h"
#include "gtest/gtest.h"
#include "hs/hs.h"
#include "rtree/split.h"
#include "storage/file_storage.h"
#include "tests/test_util.h"

namespace kcpq {
namespace {

using testing::MakeUniformItems;
using testing::TreeFixture;

// Flips `flips` random bytes in a random allocated page (skipping the meta
// page so the tree can still be addressed).
void CorruptRandomPage(MemoryStorageManager* storage, PageId meta_page,
                       Xoshiro256pp* rng, int flips) {
  PageId victim;
  do {
    victim = rng->NextBounded(storage->PageCount());
  } while (victim == meta_page);
  Page page;
  KCPQ_CHECK_OK(storage->ReadPage(victim, &page));
  for (int i = 0; i < flips; ++i) {
    page.data()[rng->NextBounded(page.size())] ^=
        static_cast<uint8_t>(1 + rng->NextBounded(255));
  }
  KCPQ_CHECK_OK(storage->WritePage(victim, page));
}

class CorruptionSweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CorruptionSweepTest, MutatedPagesNeverCrashQueriesOrValidation) {
  Xoshiro256pp rng(GetParam());
  TreeFixture fp, fq;
  KCPQ_ASSERT_OK(fp.Build(MakeUniformItems(1500, 2000 + GetParam())));
  KCPQ_ASSERT_OK(fq.Build(MakeUniformItems(1500, 3000 + GetParam())));

  for (int round = 0; round < 10; ++round) {
    CorruptRandomPage(&fp.storage(), fp.tree().meta_page(), &rng,
                      1 + static_cast<int>(rng.NextBounded(16)));
    // Every operation either succeeds (the mutation hit payload bytes that
    // happen to parse — e.g. coordinates) or reports an error; it must not
    // crash or hang.
    const Status validation = fp.tree().Validate();
    if (!validation.ok()) {
      EXPECT_NE(validation.code(), StatusCode::kOk);
    }
    CpqOptions options;
    options.algorithm = round % 2 == 0 ? CpqAlgorithm::kHeap
                                       : CpqAlgorithm::kSortedDistances;
    options.k = 3;
    auto result = KClosestPairs(fp.tree(), fq.tree(), options);
    if (!result.ok()) {
      // Acceptable error classes for mangled pages.
      EXPECT_TRUE(result.status().code() == StatusCode::kCorruption ||
                  result.status().code() == StatusCode::kOutOfRange ||
                  result.status().code() == StatusCode::kFailedPrecondition ||
                  result.status().code() == StatusCode::kInternal)
          << result.status().ToString();
    }
    std::vector<Entry> hits;
    (void)fp.tree().RangeQuery(UnitWorkspace(), &hits);
    std::vector<Neighbor> nn;
    (void)fp.tree().NearestNeighbors(Point{{0.5, 0.5}}, 5, &nn);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CorruptionSweepTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(CorruptionTest, ZeroedNodePageDetected) {
  TreeFixture fx;
  KCPQ_ASSERT_OK(fx.Build(MakeUniformItems(1000, 2100)));
  // Zero the root page: level/count become 0 — an empty leaf where an
  // internal node should be. Validation must flag the imbalance.
  Page zero(fx.storage().page_size());
  KCPQ_ASSERT_OK(fx.storage().WritePage(fx.tree().root_page(), zero));
  const Status validation = fx.tree().Validate();
  EXPECT_FALSE(validation.ok());
}

TEST(CorruptionTest, DanglingChildPointerDetected) {
  TreeFixture fx;
  KCPQ_ASSERT_OK(fx.Build(MakeUniformItems(1000, 2101)));
  // Point the root's first child at a wildly invalid page id.
  Page page;
  KCPQ_ASSERT_OK(fx.storage().ReadPage(fx.tree().root_page(), &page));
  Node root;
  KCPQ_ASSERT_OK(DeserializeNode(page, &root));
  ASSERT_FALSE(root.IsLeaf());
  root.entries[0].id = 999999999;
  KCPQ_ASSERT_OK(SerializeNode(root, &page));
  KCPQ_ASSERT_OK(fx.storage().WritePage(fx.tree().root_page(), page));
  EXPECT_FALSE(fx.tree().Validate().ok());
  std::vector<Entry> hits;
  EXPECT_FALSE(fx.tree().RangeQuery(UnitWorkspace(), &hits).ok());
}

// The meta page's height sets the level every traversal expects of the
// root, so a height no tree can have must fail Open, not a later query.
TEST(CorruptionTest, MetaHeightOutOfRangeFailsOpen) {
  TreeFixture fx;
  KCPQ_ASSERT_OK(fx.Build(MakeUniformItems(1000, 2102)));
  const PageId meta = fx.tree().meta_page();
  for (const int64_t height : {int64_t{0}, int64_t{kMaxNodeLevel} + 2,
                               int64_t{65536} + 3}) {
    Page page;
    KCPQ_ASSERT_OK(fx.storage().ReadPage(meta, &page));
    // MetaBlock: magic, root page, then the height.
    std::memcpy(page.data() + 16, &height, sizeof(height));
    KCPQ_ASSERT_OK(fx.storage().WritePage(meta, page));
    BufferManager buffer(&fx.storage(), 0);
    EXPECT_EQ(RStarTree::Open(&buffer, meta).status().code(),
              StatusCode::kCorruption)
        << "height " << height;
  }
}

// Finds the root-to-leaf path of the leaf holding `record_id`.
bool PathToRecord(const RStarTree& tree, PageId page, uint64_t record_id,
                  std::vector<std::pair<PageId, int>>* path) {
  Node node;
  KCPQ_CHECK_OK(tree.ReadNode(page, &node));
  path->emplace_back(page, node.level);
  for (const Entry& e : node.entries) {
    if (node.IsLeaf() ? e.id == record_id
                      : PathToRecord(tree, e.id, record_id, path)) {
      return true;
    }
  }
  path->pop_back();
  return false;
}

// An internal page whose level word is rewritten to another in-range value
// decodes fine, so only the traversal can notice: its parent implies a
// different level. Adopting the page's level would sweep the internal
// node as a leaf and report its child page ids as point ids. Every engine
// must instead stop with kCorruption, well within a node budget.
TEST(CorruptionTest, RewrittenInternalLevelIsCorruption) {
  const std::string path = ::testing::TempDir() + "kcpq_level_mismatch.db";
  TreeFixture fq;
  KCPQ_ASSERT_OK(fq.Build(MakeUniformItems(3000, 2202)));
  PageId meta = kInvalidPageId;
  {
    auto file = FileStorageManager::Create(path).value();
    BufferManager buffer(file.get(), 64);
    auto tree = RStarTree::Create(&buffer).value();
    for (const auto& [p, id] : MakeUniformItems(3000, 2201)) {
      KCPQ_ASSERT_OK(tree->Insert(p, id));
    }
    KCPQ_ASSERT_OK(tree->Flush());
    meta = tree->meta_page();
  }
  // The closest pair's P-side leaf lies under a level-1 internal page,
  // which every engine must therefore expand: corrupt that page.
  PageId victim = kInvalidPageId;
  uint64_t pages = fq.storage().PageCount();
  {
    auto file = FileStorageManager::Open(path).value();
    BufferManager buffer(file.get(), 0);
    auto tree = RStarTree::Open(&buffer, meta).value();
    ASSERT_GE(tree->height(), 3);
    CpqOptions options;
    options.k = 1;
    auto clean = KClosestPairs(*tree, fq.tree(), options);
    ASSERT_TRUE(clean.ok()) << clean.status().ToString();
    std::vector<std::pair<PageId, int>> trail;
    ASSERT_TRUE(PathToRecord(*tree, tree->root_page(),
                             clean.value().at(0).p_id, &trail));
    for (const auto& [page, level] : trail) {
      if (level == 1) victim = page;
    }
    ASSERT_NE(victim, tree->root_page());
    Page raw;
    KCPQ_ASSERT_OK(file->ReadPage(victim, &raw));
    Node node;
    KCPQ_ASSERT_OK(DeserializeNode(raw, &node));
    node.level = 0;
    KCPQ_ASSERT_OK(SerializeNode(node, &raw));
    KCPQ_ASSERT_OK(file->WritePage(victim, raw));
    KCPQ_ASSERT_OK(file->Sync());
    pages += file->PageCount();
  }
  for (const size_t capacity : {size_t{0}, size_t{64}}) {
    auto file = FileStorageManager::Open(path).value();
    BufferManager buffer(file.get(), capacity);
    auto tree = RStarTree::Open(&buffer, meta).value();
    QueryControl budget;
    budget.max_node_accesses = 2 * pages;
    for (const CpqAlgorithm algorithm :
         {CpqAlgorithm::kHeap, CpqAlgorithm::kSortedDistances}) {
      QueryContext ctx(budget);
      CpqOptions options;
      options.k = 1;
      options.algorithm = algorithm;
      options.context = &ctx;
      auto result = KClosestPairs(*tree, fq.tree(), options);
      EXPECT_EQ(result.status().code(), StatusCode::kCorruption)
          << "buffer " << capacity << " algorithm "
          << static_cast<int>(algorithm) << ": "
          << (result.ok() ? "query succeeded" : result.status().ToString());
    }
    QueryContext ctx(budget);
    HsOptions options;
    options.context = &ctx;
    auto hs = HsKClosestPairs(*tree, fq.tree(), 1, options);
    EXPECT_EQ(hs.status().code(), StatusCode::kCorruption)
        << "buffer " << capacity << ": "
        << (hs.ok() ? "join succeeded" : hs.status().ToString());
    QueryContext semi_ctx(budget);
    auto semi = SemiClosestPairs(*tree, fq.tree(), nullptr, &semi_ctx);
    EXPECT_EQ(semi.status().code(), StatusCode::kCorruption)
        << "buffer " << capacity << ": "
        << (semi.ok() ? "semi-join succeeded" : semi.status().ToString());
  }
  std::remove(path.c_str());
}

// A root page that lists itself as its first child, with the root's own
// MBR so every traversal meets the entry at key 0 and must read it. The
// child is expected one level below the root, so the first re-read of the
// root is kCorruption: no traversal may loop on the cycle (at worst until
// a node budget or memory runs out).
TEST(CorruptionTest, SelfCyclicRootIsCorruptionEverywhere) {
  TreeFixture fp, fq;
  KCPQ_ASSERT_OK(fp.Build(MakeUniformItems(3000, 2301)));
  KCPQ_ASSERT_OK(fq.Build(MakeUniformItems(3000, 2302)));
  const RStarTree& tree = fp.tree();
  ASSERT_GE(tree.height(), 2);
  Page page;
  KCPQ_ASSERT_OK(fp.storage().ReadPage(tree.root_page(), &page));
  Node root;
  KCPQ_ASSERT_OK(DeserializeNode(page, &root));
  root.entries[0].id = tree.root_page();
  root.entries[0].rect = root.ComputeMbr();
  KCPQ_ASSERT_OK(SerializeNode(root, &page));
  KCPQ_ASSERT_OK(fp.storage().WritePage(tree.root_page(), page));

  // Every acyclic traversal reads each pair of pages at most once, so a
  // budget of twice the page pairs never stops one before the cycle.
  QueryControl budget;
  budget.max_node_accesses =
      2 * fp.storage().PageCount() * fq.storage().PageCount();
  const auto expect_corruption = [](const Status& s, const char* engine) {
    EXPECT_EQ(s.code(), StatusCode::kCorruption)
        << engine << ": " << (s.ok() ? "succeeded" : s.ToString());
  };
  for (const CpqAlgorithm algorithm :
       {CpqAlgorithm::kHeap, CpqAlgorithm::kSortedDistances}) {
    QueryContext ctx(budget);
    CpqOptions options;
    options.k = 1;
    options.algorithm = algorithm;
    options.context = &ctx;
    expect_corruption(KClosestPairs(tree, fq.tree(), options).status(),
                      CpqAlgorithmName(algorithm));
  }
  {
    QueryContext ctx(budget);
    HsOptions options;
    options.context = &ctx;
    expect_corruption(HsKClosestPairs(tree, fq.tree(), 1, options).status(),
                      "HS");
  }
  {
    QueryContext ctx(budget);
    expect_corruption(
        SemiClosestPairs(tree, fq.tree(), nullptr, &ctx).status(), "semi");
  }
  {
    QueryContext ctx(budget);
    DistanceJoinOptions options;
    options.context = &ctx;
    expect_corruption(
        DistanceRangeJoin(tree, fq.tree(), 0.001, options).status(),
        "ε-join");
  }
  {
    QueryContext ctx(budget);
    MultiwayOptions options;
    options.context = &ctx;
    expect_corruption(MultiwayKClosestTuples({&tree, &fq.tree()},
                                             {MultiwayEdge{0, 1}}, options)
                          .status(),
                      "multiway");
  }
  std::vector<Entry> hits;
  expect_corruption(tree.RangeQuery(UnitWorkspace(), &hits), "range");
  std::vector<Neighbor> nn;
  expect_corruption(tree.NearestNeighbors(Point{{0.5, 0.5}}, 5, &nn), "knn");
  expect_corruption(tree.ScanLeaves([](const Node&) { return true; }),
                    "leaf scan");
  std::vector<RStarTree::LevelStats> stats;
  expect_corruption(tree.CollectLevelStats(&stats), "level stats");
  std::vector<RStarTree::LevelGeometry> geometry;
  expect_corruption(tree.CollectLevelGeometry(&geometry), "level geometry");

  // Insert and Erase descend through the cycle too. ChooseSubtree sends a
  // point at a corner of the root's MBR that no other child holds to entry
  // 0, and Erase tries entry 0 first, since its rect (the MBR) contains
  // the corner. Both must stop at the root's second read and, writing only
  // while unwinding, must leave every page as it was.
  Point corner;
  bool found = false;
  const Rect mbr = root.ComputeMbr();
  for (int c = 0; c < 4 && !found; ++c) {
    corner = Point{{(c & 1) ? mbr.hi[0] : mbr.lo[0],
                    (c & 2) ? mbr.hi[1] : mbr.lo[1]}};
    found = ChooseSubtree(root, Rect::FromPoint(corner)) == 0;
  }
  ASSERT_TRUE(found);
  const uint64_t writes = fp.storage().stats().writes;
  expect_corruption(fp.tree().Insert(corner, 1u << 30), "insert");
  expect_corruption(fp.tree().Erase(corner, 1u << 30).status(), "erase");
  EXPECT_EQ(fp.storage().stats().writes, writes);
  EXPECT_EQ(fp.tree().size(), 3000u);
}

}  // namespace
}  // namespace kcpq
