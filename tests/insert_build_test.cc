// One-by-one R*-tree insertion builds the trees every algorithm reads, so
// the bytes it leaves on the pages are pinned here: per build case, the
// page count, the height and an FNV-1a digest over every page's bytes
// (tests/golden/insert_build_images.txt). The case that builds through an
// 8-page LRU buffer also pins its storage and buffer counters, which keeps
// the replacement history of a caching build fixed. Regenerate with
//
//   KCPQ_UPDATE_GOLDEN=1 ./insert_build_test --gtest_filter='*Golden*'
//
// and review the diff: a changed line means a changed tree.
//
// The write-count tests below pin what one insert writes: through a
// pass-through buffer only the nodes whose bytes change, through a caching
// buffer every node on the insertion path.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "buffer/replacement_policy.h"
#include "gtest/gtest.h"
#include "rtree/rtree.h"
#include "rtree/split.h"
#include "storage/file_storage.h"
#include "tests/test_util.h"

namespace kcpq {
namespace {

using testing::MakeClusteredItems;
using testing::MakeUniformItems;
using testing::RandomRect;

std::string BuildGoldenPath() {
  return std::string(KCPQ_TEST_GOLDEN_DIR) + "/insert_build_images.txt";
}

std::vector<std::string> LoadGolden() {
  std::vector<std::string> lines;
  std::ifstream in(BuildGoldenPath());
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '#') lines.push_back(line);
  }
  return lines;
}

// FNV-1a over every page's bytes in page-id order. A freed page (which
// MemoryStorageManager refuses to read) hashes as its id alone.
uint64_t DigestPages(StorageManager* storage) {
  uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](uint8_t b) {
    h ^= b;
    h *= 1099511628211ULL;
  };
  for (PageId id = 0; id < storage->PageCount(); ++id) {
    Page page;
    if (!storage->ReadPage(id, &page).ok()) {
      for (int b = 0; b < 8; ++b) mix(static_cast<uint8_t>(id >> (8 * b)));
      continue;
    }
    for (size_t i = 0; i < page.size(); ++i) mix(page.data()[i]);
  }
  return h;
}

std::string ImageLine(const std::string& name, StorageManager* storage,
                      const RStarTree& tree) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%s pages=%llu height=%d size=%llu digest=%016llx",
                name.c_str(),
                static_cast<unsigned long long>(storage->PageCount()),
                tree.height(), static_cast<unsigned long long>(tree.size()),
                static_cast<unsigned long long>(DigestPages(storage)));
  return buf;
}

RTreeOptions NoReinsert() {
  RTreeOptions options;
  options.forced_reinsert = false;
  return options;
}

// Points on a coarse 16 x 16 grid: many exact duplicates, so leaves hold
// zero-area groups and ChooseSubtree sees identical and touching rects.
std::vector<std::pair<Point, uint64_t>> MakeGridItems(size_t n,
                                                      uint64_t seed) {
  Xoshiro256pp rng(seed);
  std::vector<std::pair<Point, uint64_t>> items;
  for (size_t i = 0; i < n; ++i) {
    Point p;
    for (int d = 0; d < kDims; ++d) {
      p.coord[d] = static_cast<double>(rng.NextBounded(16)) / 16.0;
    }
    items.emplace_back(p, i);
  }
  return items;
}

// Builds by Insert on a fresh in-memory stack and returns the image line.
std::string BuildPointsInMemory(
    const std::string& name, size_t page_size, RTreeOptions options,
    const std::vector<std::pair<Point, uint64_t>>& items) {
  testing::TreeFixture fx(0, page_size, options);
  KCPQ_CHECK_OK(fx.Build(items));
  KCPQ_CHECK_OK(fx.tree().Validate());
  return ImageLine(name, &fx.storage(), fx.tree());
}

std::string BuildRects(const std::string& name, size_t page_size,
                       size_t n, uint64_t seed) {
  testing::TreeFixture fx(0, page_size);
  Xoshiro256pp rng(seed);
  for (size_t i = 0; i < n; ++i) {
    KCPQ_CHECK_OK(fx.tree().InsertRect(RandomRect(rng, 0.03), i));
  }
  KCPQ_CHECK_OK(fx.tree().Flush());
  KCPQ_CHECK_OK(fx.tree().Validate());
  return ImageLine(name, &fx.storage(), fx.tree());
}

// Inserts and erases in a seeded interleaving; each erase that dissolves
// a node reinserts its orphans through the insertion path.
std::string BuildInsertEraseMix(const std::string& name, size_t page_size,
                                size_t n, uint64_t seed) {
  testing::TreeFixture fx(0, page_size);
  const auto items = MakeUniformItems(n, seed);
  Xoshiro256pp rng(seed + 1);
  std::vector<std::pair<Point, uint64_t>> live;
  for (const auto& item : items) {
    KCPQ_CHECK_OK(fx.tree().Insert(item.first, item.second));
    live.push_back(item);
    if (live.size() > 50 && rng.NextBounded(3) == 0) {
      const size_t victim = rng.NextBounded(live.size());
      const Result<bool> erased =
          fx.tree().Erase(live[victim].first, live[victim].second);
      KCPQ_CHECK_OK(erased.status());
      EXPECT_TRUE(erased.value()) << name;
      live[victim] = live.back();
      live.pop_back();
    }
  }
  KCPQ_CHECK_OK(fx.tree().Flush());
  KCPQ_CHECK_OK(fx.tree().Validate());
  return ImageLine(name, &fx.storage(), fx.tree());
}

std::string BuildFileBacked(const std::string& name,
                            const std::vector<std::pair<Point, uint64_t>>&
                                items) {
  const std::string path = ::testing::TempDir() + "kcpq_insert_build.db";
  auto file = FileStorageManager::Create(path);
  KCPQ_CHECK_OK(file.status());
  BufferManager buffer(file.value().get(), 0);
  auto tree = RStarTree::Create(&buffer);
  KCPQ_CHECK_OK(tree.status());
  for (const auto& [p, id] : items) KCPQ_CHECK_OK(tree.value()->Insert(p, id));
  KCPQ_CHECK_OK(tree.value()->Flush());
  const std::string line = ImageLine(name, file.value().get(), *tree.value());
  std::remove(path.c_str());
  return line;
}

// Builds through an 8-page LRU buffer and appends the build's I/O: the
// storage reads and writes and the buffer's hits, misses, evictions and
// writebacks, all taken before the digest reads the pages back.
std::string BuildThroughLru8(
    const std::string& name,
    const std::vector<std::pair<Point, uint64_t>>& items) {
  testing::TreeFixture fx(8);
  KCPQ_CHECK_OK(fx.Build(items));
  const IoStats io = fx.storage().stats();
  const BufferStats b = fx.buffer().stats();
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                " reads=%llu writes=%llu hits=%llu misses=%llu "
                "evictions=%llu writebacks=%llu",
                static_cast<unsigned long long>(io.reads),
                static_cast<unsigned long long>(io.writes),
                static_cast<unsigned long long>(b.hits),
                static_cast<unsigned long long>(b.misses),
                static_cast<unsigned long long>(b.evictions),
                static_cast<unsigned long long>(b.writebacks));
  return ImageLine(name, &fx.storage(), fx.tree()) + buf;
}

TEST(InsertBuildGolden, ImagesMatchGolden) {
  const bool update = std::getenv("KCPQ_UPDATE_GOLDEN") != nullptr;
  std::vector<std::string> lines;
  lines.push_back(BuildPointsInMemory("uniform-p4096", 4096, RTreeOptions(),
                                      MakeUniformItems(6000, 31)));
  lines.push_back(BuildPointsInMemory("uniform-p512", 512, RTreeOptions(),
                                      MakeUniformItems(4000, 32)));
  lines.push_back(BuildPointsInMemory("uniform-p1024-noreinsert", 1024,
                                      NoReinsert(),
                                      MakeUniformItems(4000, 33)));
  lines.push_back(BuildPointsInMemory("sequoia-p4096", 4096, RTreeOptions(),
                                      MakeClusteredItems(6000, 34)));
  lines.push_back(BuildPointsInMemory("sequoia-p512-noreinsert", 512,
                                      NoReinsert(),
                                      MakeClusteredItems(4000, 35)));
  lines.push_back(BuildPointsInMemory("sequoia-p1024", 1024, RTreeOptions(),
                                      MakeClusteredItems(5000, 36)));
  lines.push_back(BuildPointsInMemory("grid-p512", 512, RTreeOptions(),
                                      MakeGridItems(3000, 37)));
  lines.push_back(BuildRects("rects-p1024", 1024, 3000, 38));
  lines.push_back(BuildRects("rects-p512", 512, 2000, 39));
  lines.push_back(BuildInsertEraseMix("mix-p512", 512, 4000, 40));
  lines.push_back(BuildInsertEraseMix("mix-p1024", 1024, 4000, 41));
  lines.push_back(BuildFileBacked("sequoia-p1024-file",
                                  MakeClusteredItems(4000, 42)));
  lines.push_back(BuildThroughLru8("uniform-p1024-lru8",
                                   MakeUniformItems(4000, 43)));

  if (update) {
    std::ofstream out(BuildGoldenPath());
    out << "# case pages=N height=H size=N digest=FNV-1a(page bytes...)"
           " [reads=N writes=N hits=N misses=N evictions=N writebacks=N]\n";
    for (const std::string& line : lines) out << line << "\n";
    GTEST_SKIP() << "golden updated: " << BuildGoldenPath();
  }
  const std::vector<std::string> golden = LoadGolden();
  ASSERT_EQ(golden.size(), lines.size())
      << "golden " << BuildGoldenPath()
      << " has the wrong line count (run with KCPQ_UPDATE_GOLDEN=1)";
  for (size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(lines[i], golden[i]);
  }
}

// LRU that counts OnInsert and OnAccess. The buffer calls one of them per
// read (a hit or a miss) and one per Write, so Write calls are the count
// minus the buffer's hits and misses.
class CountingLru final : public ReplacementPolicy {
 public:
  explicit CountingLru(uint64_t* calls) : calls_(calls) {}
  void OnInsert(PageId id) override {
    ++*calls_;
    lru_->OnInsert(id);
  }
  void OnAccess(PageId id) override {
    ++*calls_;
    lru_->OnAccess(id);
  }
  PageId ChooseVictim() override { return lru_->ChooseVictim(); }
  void OnErase(PageId id) override { lru_->OnErase(id); }
  const char* name() const override { return "counting-lru"; }

 private:
  uint64_t* calls_;
  std::unique_ptr<ReplacementPolicy> lru_ = MakeLruPolicy();
};

// The in-memory stack of TreeFixture, with a counting LRU of
// `buffer_pages` pages.
struct CountingStack {
  explicit CountingStack(size_t buffer_pages)
      : storage(kPageSize),
        buffer(&storage, buffer_pages,
               std::make_unique<CountingLru>(&policy_calls)) {
    tree = std::move(RStarTree::Create(&buffer)).value();
    for (const auto& [p, id] : MakeUniformItems(2000, 51)) {
      KCPQ_CHECK_OK(tree->Insert(p, id));
    }
    KCPQ_CHECK_OK(tree->Flush());
  }

  // Buffer Write calls since construction.
  uint64_t WriteCalls() const {
    return policy_calls - buffer.AggregateStats().logical_reads();
  }

  static constexpr size_t kPageSize = 512;
  uint64_t policy_calls = 0;
  MemoryStorageManager storage;
  BufferManager buffer;
  std::unique_ptr<RStarTree> tree;
};

// Where an insert of `p` would land, as ChooseSubtree descends: the path's
// pages root first, and how many of them change. The leaf changes (it
// gains the point); an ancestor changes when its entry for the next node
// down no longer equals that node's new MBR.
struct Landing {
  std::vector<PageId> path;
  size_t changed = 0;
  bool leaf_full = false;
};

Landing Land(const RStarTree& tree, const Point& p) {
  Landing landing;
  std::vector<Node> nodes;
  std::vector<size_t> picks;
  PageId page = tree.root_page();
  const Rect rect = Rect::FromPoint(p);
  for (;;) {
    Node node;
    KCPQ_CHECK_OK(tree.ReadNode(page, &node));
    landing.path.push_back(page);
    nodes.push_back(node);
    if (node.IsLeaf()) break;
    picks.push_back(ChooseSubtree(node, rect));
    page = node.entries[picks.back()].id;
  }
  landing.leaf_full = nodes.back().entries.size() >= tree.max_entries();
  Rect mbr = Union(nodes.back().ComputeMbr(), rect);
  landing.changed = 1;
  for (size_t i = picks.size(); i-- > 0;) {
    Rect& stored = nodes[i].entries[picks[i]].rect;
    if (stored == mbr) break;
    stored = mbr;
    mbr = nodes[i].ComputeMbr();
    ++landing.changed;
  }
  return landing;
}

std::vector<Page> Snapshot(MemoryStorageManager* storage) {
  std::vector<Page> pages(storage->PageCount());
  for (PageId id = 0; id < pages.size(); ++id) {
    KCPQ_CHECK_OK(storage->ReadPage(id, &pages[id]));
  }
  return pages;
}

size_t ChangedPages(const std::vector<Page>& before,
                    const std::vector<Page>& after) {
  size_t changed = after.size() - before.size();
  for (size_t id = 0; id < before.size(); ++id) {
    if (std::memcmp(before[id].data(), after[id].data(),
                    before[id].size()) != 0) {
      ++changed;
    }
  }
  return changed;
}

// Candidate points around each leaf: its MBR's center, which an insert
// leaves in place, and points just past its high corner, which grow it.
std::vector<Point> LeafProbes(const RStarTree& tree) {
  std::vector<Point> probes;
  KCPQ_CHECK_OK(tree.ScanLeaves([&](const Node& leaf) {
    const Rect mbr = leaf.ComputeMbr();
    probes.push_back(mbr.Center());
    for (const double step : {0.01, 0.2}) {
      Point p;
      for (int d = 0; d < kDims; ++d) {
        p.coord[d] = mbr.hi[d] + step * (mbr.hi[d] - mbr.lo[d]);
      }
      probes.push_back(p);
    }
    return true;
  }));
  return probes;
}

TEST(InsertWritesTest, PassThroughWritesOnlyChangedNodes) {
  CountingStack stack(0);
  const RStarTree& tree = *stack.tree;
  ASSERT_GE(tree.height(), 4);
  bool inside = false, partial = false, whole = false;
  uint64_t id = 1000000;
  for (const Point& p : LeafProbes(tree)) {
    const Landing landing = Land(tree, p);
    if (landing.leaf_full) continue;  // would overflow
    const size_t height = static_cast<size_t>(tree.height());
    bool* seen = landing.changed == 1        ? &inside
                 : landing.changed < height ? &partial
                                             : &whole;
    if (*seen) continue;
    *seen = true;
    const std::vector<Page> before = Snapshot(&stack.storage);
    stack.storage.ResetStats();
    KCPQ_ASSERT_OK(stack.tree->Insert(p, id++));
    EXPECT_EQ(stack.storage.stats().writes, landing.changed)
        << "a point changing " << landing.changed << " of " << height
        << " path nodes";
    EXPECT_EQ(ChangedPages(before, Snapshot(&stack.storage)),
              landing.changed);
    KCPQ_ASSERT_OK(tree.Validate());
  }
  // One point strictly inside a leaf (one write), one that grows the leaf
  // and some but not all ancestors, one that grows the whole path.
  EXPECT_TRUE(inside);
  EXPECT_TRUE(partial);
  EXPECT_TRUE(whole);
}

TEST(InsertWritesTest, CachingBufferWritesEveryPathNode) {
  CountingStack stack(8);
  const RStarTree& tree = *stack.tree;
  // The build's Write calls: one per node on every insertion path, plus
  // splits, reinsert shrinks and the tree's creation. Pinned when every
  // buffer wrote every path node; the pass-through stack over the same
  // items now skips some.
  EXPECT_EQ(stack.WriteCalls(), 12274u);
  CountingStack pass_through(0);
  EXPECT_LT(pass_through.storage.stats().writes, stack.WriteCalls());
  size_t inserts = 0;
  uint64_t id = 1000000;
  for (const Point& p : LeafProbes(tree)) {
    const Landing landing = Land(tree, p);
    if (landing.leaf_full) continue;
    const uint64_t calls = stack.WriteCalls();
    KCPQ_ASSERT_OK(stack.tree->Insert(p, id++));
    EXPECT_EQ(stack.WriteCalls() - calls, landing.path.size())
        << "a point changing " << landing.changed << " path nodes";
    if (++inserts == 50) break;
  }
  EXPECT_EQ(inserts, 50u);
  KCPQ_ASSERT_OK(tree.Validate());
}

}  // namespace
}  // namespace kcpq
