// Microbenchmarks (google-benchmark) for the building blocks: MBR metrics,
// node (de)serialization, R*-tree insertion and queries, and one end-to-end
// K-CPQ per algorithm. Not part of the paper; useful when optimizing.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "common/random.h"
#include "geometry/metrics.h"
#include "geometry/minkowski.h"
#include "rtree/node.h"

namespace kcpq {
namespace {

Rect RandomRectFor(Xoshiro256pp& rng) {
  Rect r;
  for (int d = 0; d < kDims; ++d) {
    const double a = rng.NextDouble();
    r.lo[d] = a;
    r.hi[d] = a + rng.NextDouble() * 0.2;
  }
  return r;
}

void BM_MinMinDist(benchmark::State& state) {
  Xoshiro256pp rng(1);
  const Rect a = RandomRectFor(rng), b = RandomRectFor(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MinMinDistSquared(a, b));
  }
}
BENCHMARK(BM_MinMinDist);

void BM_MinMaxDist(benchmark::State& state) {
  Xoshiro256pp rng(2);
  const Rect a = RandomRectFor(rng), b = RandomRectFor(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MinMaxDistPow(a, b, Metric::kL2));
  }
}
BENCHMARK(BM_MinMaxDist);

void BM_MaxMaxDist(benchmark::State& state) {
  Xoshiro256pp rng(3);
  const Rect a = RandomRectFor(rng), b = RandomRectFor(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MaxMaxDistSquared(a, b));
  }
}
BENCHMARK(BM_MaxMaxDist);

void BM_NodeSerialize(benchmark::State& state) {
  Node node;
  node.level = 0;
  Xoshiro256pp rng(4);
  for (int i = 0; i < 21; ++i) {
    node.entries.push_back(
        Entry::ForPoint(Point{{rng.NextDouble(), rng.NextDouble()}}, i));
  }
  Page page(1024);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SerializeNode(node, &page));
  }
}
BENCHMARK(BM_NodeSerialize);

void BM_NodeDeserialize(benchmark::State& state) {
  Node node;
  node.level = 0;
  Xoshiro256pp rng(5);
  for (int i = 0; i < 21; ++i) {
    node.entries.push_back(
        Entry::ForPoint(Point{{rng.NextDouble(), rng.NextDouble()}}, i));
  }
  Page page(1024);
  KCPQ_CHECK_OK(SerializeNode(node, &page));
  Node out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(DeserializeNode(page, &out));
  }
}
BENCHMARK(BM_NodeDeserialize);

void BM_RTreeInsert(benchmark::State& state) {
  const auto points =
      GenerateUniform(100000, UnitWorkspace(), 6);
  size_t i = 0;
  MemoryStorageManager storage;
  BufferManager buffer(&storage, 0);
  auto tree = RStarTree::Create(&buffer).value();
  for (auto _ : state) {
    KCPQ_CHECK_OK(tree->Insert(points[i % points.size()], i));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RTreeInsert);

void BM_RTreeKnn(benchmark::State& state) {
  bench::TreeStore store(bench::DataKind::kUniform, 50000, UnitWorkspace(),
                         7);
  auto view = store.OpenView(256);
  Xoshiro256pp rng(8);
  for (auto _ : state) {
    std::vector<Neighbor> nn;
    const Point q{{rng.NextDouble(), rng.NextDouble()}};
    KCPQ_CHECK_OK(view.tree->NearestNeighbors(q, state.range(0), &nn));
    benchmark::DoNotOptimize(nn);
  }
}
BENCHMARK(BM_RTreeKnn)->Arg(1)->Arg(10)->Arg(100);

void BM_Kcpq(benchmark::State& state) {
  static bench::TreeStore* p = new bench::TreeStore(
      bench::DataKind::kSequoiaLike, 20000, UnitWorkspace(), 9);
  static bench::TreeStore* q = new bench::TreeStore(
      bench::DataKind::kUniform, 20000, UnitWorkspace(), 10);
  const CpqAlgorithm algorithm = static_cast<CpqAlgorithm>(state.range(0));
  for (auto _ : state) {
    auto vp = p->OpenView(0);
    auto vq = q->OpenView(0);
    CpqOptions options;
    options.algorithm = algorithm;
    options.k = 10;
    benchmark::DoNotOptimize(KClosestPairs(*vp.tree, *vq.tree, options));
  }
}
BENCHMARK(BM_Kcpq)
    ->Arg(static_cast<int>(CpqAlgorithm::kExhaustive))
    ->Arg(static_cast<int>(CpqAlgorithm::kSortedDistances))
    ->Arg(static_cast<int>(CpqAlgorithm::kHeap));

}  // namespace
}  // namespace kcpq

BENCHMARK_MAIN();
