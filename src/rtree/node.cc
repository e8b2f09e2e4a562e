#include "rtree/node.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <string>

namespace kcpq {

namespace {

void PutU64(uint8_t* dst, uint64_t v) { std::memcpy(dst, &v, sizeof(v)); }
uint64_t GetU64(const uint8_t* src) {
  uint64_t v;
  std::memcpy(&v, src, sizeof(v));
  return v;
}
void PutF64(uint8_t* dst, double v) { std::memcpy(dst, &v, sizeof(v)); }
double GetF64(const uint8_t* src) {
  double v;
  std::memcpy(&v, src, sizeof(v));
  return v;
}
void PutI32(uint8_t* dst, int32_t v) { std::memcpy(dst, &v, sizeof(v)); }
int32_t GetI32(const uint8_t* src) {
  int32_t v;
  std::memcpy(&v, src, sizeof(v));
  return v;
}

}  // namespace

Status SerializeNode(const Node& node, Page* page) {
  const size_t capacity = NodeCapacity(page->size());
  if (node.entries.size() > capacity) {
    return Status::InvalidArgument(
        "node with " + std::to_string(node.entries.size()) +
        " entries exceeds page capacity " + std::to_string(capacity));
  }
  if (node.level < 0 || node.level > kMaxNodeLevel) {
    return Status::InvalidArgument("bad node level");
  }
  page->Clear();
  uint8_t* base = page->data();
  PutI32(base + 0, node.level);
  PutI32(base + 4, static_cast<int32_t>(node.entries.size()));
  PutU64(base + 8, 0);
  uint8_t* p = base + kNodeHeaderSize;
  for (const Entry& e : node.entries) {
    for (int d = 0; d < kDims; ++d) {
      PutF64(p + d * 8, e.rect.lo[d]);
      PutF64(p + (kDims + d) * 8, e.rect.hi[d]);
    }
    PutU64(p + 2 * kDims * 8, e.id);
    PutU64(p + 2 * kDims * 8 + 8, 0);
    p += kEntrySize;
  }
  return Status::OK();
}

Status DeserializeNode(const Page& page, Node* node) {
  const size_t capacity = NodeCapacity(page.size());
  const uint8_t* base = page.data();
  const int32_t level = GetI32(base + 0);
  const int32_t count = GetI32(base + 4);
  if (level < 0 || level > kMaxNodeLevel) {
    return Status::Corruption("node level out of range");
  }
  if (count < 0 || static_cast<size_t>(count) > capacity) {
    return Status::Corruption("node entry count out of range");
  }
  node->level = level;
  node->entries.clear();
  node->axis_order.clear();
  node->entries.reserve(count);
  const uint8_t* p = base + kNodeHeaderSize;
  for (int32_t i = 0; i < count; ++i) {
    Entry e;
    for (int d = 0; d < kDims; ++d) {
      e.rect.lo[d] = GetF64(p + d * 8);
      e.rect.hi[d] = GetF64(p + (kDims + d) * 8);
    }
    e.id = GetU64(p + 2 * kDims * 8);
    if (!e.rect.IsValid()) {
      return Status::Corruption("entry rect is inverted or not finite");
    }
    node->entries.push_back(e);
    p += kEntrySize;
  }
  return Status::OK();
}

Status CheckNodeLevel(const Node& node, int expected_level, PageId page) {
  if (node.level == expected_level) return Status::OK();
  return Status::Corruption("node level mismatch at page " +
                            std::to_string(page) + ": expected " +
                            std::to_string(expected_level) + ", found " +
                            std::to_string(node.level));
}

void SortAxisOrder(const std::vector<Entry>& entries, int axis,
                   uint32_t* order) {
  std::iota(order, order + entries.size(), uint32_t{0});
  std::sort(order, order + entries.size(), [&](uint32_t x, uint32_t y) {
    return entries[x].rect.lo[axis] < entries[y].rect.lo[axis];
  });
}

void BuildAxisOrders(Node* node) {
  const size_t n = node->entries.size();
  node->axis_order.resize(kDims * n);
  for (int d = 0; d < kDims; ++d) {
    SortAxisOrder(node->entries, d, node->axis_order.data() + d * n);
  }
}

}  // namespace kcpq
