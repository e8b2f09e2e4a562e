// Shared helpers for the kcpq test suite.

#ifndef KCPQ_TESTS_TEST_UTIL_H_
#define KCPQ_TESTS_TEST_UTIL_H_

#include <memory>
#include <utility>
#include <vector>

#include "buffer/buffer_manager.h"
#include "common/random.h"
#include "datagen/datagen.h"
#include "geometry/point.h"
#include "gtest/gtest.h"
#include "rtree/rtree.h"
#include "storage/memory_storage.h"

namespace kcpq {
namespace testing {

#define KCPQ_ASSERT_OK(expr)                                 \
  do {                                                       \
    const ::kcpq::Status kcpq_test_status = (expr);          \
    ASSERT_TRUE(kcpq_test_status.ok()) << kcpq_test_status.ToString(); \
  } while (false)

#define KCPQ_EXPECT_OK(expr)                                 \
  do {                                                       \
    const ::kcpq::Status kcpq_test_status = (expr);          \
    EXPECT_TRUE(kcpq_test_status.ok()) << kcpq_test_status.ToString(); \
  } while (false)

/// Owns the full storage/buffer/tree stack for one in-memory R*-tree.
class TreeFixture {
 public:
  explicit TreeFixture(size_t buffer_pages = 0,
                       size_t page_size = kDefaultPageSize,
                       RTreeOptions options = RTreeOptions())
      : storage_(page_size), buffer_(&storage_, buffer_pages) {
    auto created = RStarTree::Create(&buffer_, options);
    KCPQ_CHECK_OK(created.status());
    tree_ = std::move(created).value();
  }

  /// Inserts all `items` one by one (the paper's construction method).
  Status Build(const std::vector<std::pair<Point, uint64_t>>& items) {
    for (const auto& [p, id] : items) {
      KCPQ_RETURN_IF_ERROR(tree_->Insert(p, id));
    }
    return tree_->Flush();
  }

  RStarTree& tree() { return *tree_; }
  BufferManager& buffer() { return buffer_; }
  MemoryStorageManager& storage() { return storage_; }

 private:
  MemoryStorageManager storage_;
  BufferManager buffer_;
  std::unique_ptr<RStarTree> tree_;
};

/// `n` uniform points in the unit workspace, tagged with ids 0..n-1.
inline std::vector<std::pair<Point, uint64_t>> MakeUniformItems(
    size_t n, uint64_t seed, const Rect& workspace = UnitWorkspace()) {
  const std::vector<Point> points = GenerateUniform(n, workspace, seed);
  std::vector<std::pair<Point, uint64_t>> items;
  items.reserve(n);
  for (size_t i = 0; i < n; ++i) items.emplace_back(points[i], i);
  return items;
}

/// Clustered variant of the above.
inline std::vector<std::pair<Point, uint64_t>> MakeClusteredItems(
    size_t n, uint64_t seed, const Rect& workspace = UnitWorkspace()) {
  const std::vector<Point> points = GenerateSequoiaLike(n, workspace, seed);
  std::vector<std::pair<Point, uint64_t>> items;
  items.reserve(n);
  for (size_t i = 0; i < n; ++i) items.emplace_back(points[i], i);
  return items;
}

/// Tall, thin point sets: P has x in [0, 1e-3], Q the same y values with x
/// in [2e-3, 3e-3], y spread over [0, 1e8]. Their upper nodes are up to 1e11
/// times taller than wide, so per-axis squared extents differ by ~1e22.
/// P's ids are 0..n-1, Q's n..2n-1.
inline std::pair<std::vector<std::pair<Point, uint64_t>>,
                 std::vector<std::pair<Point, uint64_t>>>
MakeTallThinItems(size_t n, uint64_t seed) {
  Xoshiro256pp rng(seed);
  std::vector<std::pair<Point, uint64_t>> p, q;
  for (size_t i = 0; i < n; ++i) {
    const double y = 1e8 * rng.NextDouble();
    p.emplace_back(Point{{1e-3 * rng.NextDouble(), y}}, i);
    q.emplace_back(Point{{2e-3 + 1e-3 * rng.NextDouble(), y}}, n + i);
  }
  return {p, q};
}

/// Random rectangle inside the unit square (lo <= hi per dimension).
inline Rect RandomRect(Xoshiro256pp& rng, double max_side = 1.0) {
  Rect r;
  for (int d = 0; d < kDims; ++d) {
    const double a = rng.NextDouble();
    const double side = rng.NextDouble() * max_side;
    r.lo[d] = a;
    r.hi[d] = a + side;
  }
  return r;
}

/// Random point inside `r`.
inline Point RandomPointIn(Xoshiro256pp& rng, const Rect& r) {
  Point p;
  for (int d = 0; d < kDims; ++d) {
    p.coord[d] = rng.NextDouble(r.lo[d], r.hi[d]);
  }
  return p;
}

}  // namespace testing
}  // namespace kcpq

#endif  // KCPQ_TESTS_TEST_UTIL_H_
