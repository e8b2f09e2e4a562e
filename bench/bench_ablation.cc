// Ablation studies beyond the paper's figures, for the design choices
// DESIGN.md calls out:
//   A. MAXMAXDIST count-based pruning for K > 1 (Section 3.8's "more
//      complicated modification") vs the plain K-heap bound.
//   B. Insertion-built R*-trees vs STR bulk-loaded trees as CPQ substrate.
//   C. Buffer replacement policies (LRU vs FIFO vs Random).
//   D. Forced reinsertion on/off (R* vs plain split-only insertion).

#include <cstdio>

#include "bench/bench_util.h"
#include "buffer/replacement_policy.h"

namespace kcpq {
namespace bench {
namespace {

void AblationMaxMaxPruning() {
  // In the depth-first recursive algorithms the K-heap fills within the
  // first leaf visit, so this bound rarely fires there; for HEAP the
  // traversal is best-first and reaches leaves last, so the bound gates
  // what enters the pair heap. Report both cost and heap pressure.
  std::printf("\nA. MAXMAXDIST K-pruning vs plain K-heap bound "
              "(HEAP, R vs uniform, no buffer, overlap 50%%; K=1 uses the\n"
              "   MINMAXDIST special case and is unaffected by the toggle)\n");
  auto p = MakeStore(DataKind::kSequoiaLike, Scaled(40000), 1.0, 77);
  auto q = MakeStore(DataKind::kUniform, Scaled(40000), 0.5, 3001);
  Table table({"K", "accesses(with)", "accesses(without)", "maxheap(with)",
               "maxheap(without)"});
  for (const size_t k : {10, 100, 1000, 10000}) {
    uint64_t accesses[2] = {0, 0}, heap[2] = {0, 0};
    int i = 0;
    for (const bool enabled : {true, false}) {
      CpqOptions options;
      options.algorithm = CpqAlgorithm::kHeap;
      options.k = k;
      options.use_maxmaxdist_pruning = enabled;
      const QueryOutcome outcome = RunCpq(*p, *q, options, 0);
      accesses[i] = outcome.stats.disk_accesses();
      heap[i] = outcome.stats.max_heap_size;
      ++i;
    }
    table.AddRow({Table::Count(k), Table::Count(accesses[0]),
                  Table::Count(accesses[1]), Table::Count(heap[0]),
                  Table::Count(heap[1])});
  }
  table.Print(stdout);
}

void AblationBulkLoad() {
  std::printf("\nB. Insertion-built vs STR bulk-loaded trees "
              "(HEAP, uniform 40K/40K, overlap 100%%, no buffer)\n");
  const size_t n = Scaled(40000);
  // Insertion-built (the paper's construction).
  auto p_ins = MakeStore(DataKind::kUniform, n, 1.0, 3002);
  auto q_ins = MakeStore(DataKind::kUniform, n, 1.0, 3003);
  // Bulk-loaded twins over the same data.
  MemoryStorageManager sp, sq;
  BufferManager bp(&sp, 0), bq(&sq, 0);
  std::vector<std::pair<Point, uint64_t>> p_items, q_items;
  {
    const auto pts = GenerateUniform(n, UnitWorkspace(), 3002);
    for (size_t i = 0; i < pts.size(); ++i) p_items.emplace_back(pts[i], i);
    const auto qts = GenerateUniform(n, UnitWorkspace(), 3003);
    for (size_t i = 0; i < qts.size(); ++i) q_items.emplace_back(qts[i], i);
  }
  auto tp = RStarTree::BulkLoad(&bp, p_items).value();
  auto tq = RStarTree::BulkLoad(&bq, q_items).value();

  Table table({"K", "insertion-built", "bulk-loaded(STR)"});
  for (const size_t k : {1, 100, 10000}) {
    CpqOptions options;
    options.algorithm = CpqAlgorithm::kHeap;
    options.k = k;
    const uint64_t ins =
        RunCpq(*p_ins, *q_ins, options, 0).stats.disk_accesses();
    CpqStats stats;
    KCPQ_CHECK_OK(KClosestPairs(*tp, *tq, options, &stats).status());
    table.AddRow({Table::Count(k), Table::Count(ins),
                  Table::Count(stats.disk_accesses())});
  }
  table.Print(stdout);
}

// Builds one tree directly on `storage`, returning its meta page.
PageId BuildOn(MemoryStorageManager* storage, DataKind kind, size_t n,
               uint64_t seed) {
  BufferManager buffer(storage, 0);
  auto tree = RStarTree::Create(&buffer).value();
  const auto points = kind == DataKind::kUniform
                          ? GenerateUniform(n, UnitWorkspace(), seed)
                          : GenerateSequoiaLike(n, UnitWorkspace(), seed);
  for (size_t i = 0; i < points.size(); ++i) {
    KCPQ_CHECK_OK(tree->Insert(points[i], i));
  }
  KCPQ_CHECK_OK(tree->Flush());
  return tree->meta_page();
}

void AblationReplacementPolicy() {
  std::printf("\nC. Buffer replacement policies "
              "(STD, K=100, R vs uniform, overlap 100%%, B=64)\n");
  MemoryStorageManager sp, sq;
  const PageId meta_p =
      BuildOn(&sp, DataKind::kSequoiaLike, Scaled(40000), 77);
  const PageId meta_q = BuildOn(&sq, DataKind::kUniform, Scaled(40000), 3004);

  Table table({"policy", "disk accesses"});
  for (const int which : {0, 1, 2}) {
    auto make = [which]() -> std::unique_ptr<ReplacementPolicy> {
      if (which == 0) return MakeLruPolicy();
      if (which == 1) return MakeFifoPolicy();
      return MakeRandomPolicy(99);
    };
    BufferManager qp(&sp, 32, make()), qq(&sq, 32, make());
    auto tp = RStarTree::Open(&qp, meta_p).value();
    auto tq = RStarTree::Open(&qq, meta_q).value();
    CpqOptions options;
    options.algorithm = CpqAlgorithm::kSortedDistances;
    options.k = 100;
    CpqStats stats;
    KCPQ_CHECK_OK(KClosestPairs(*tp, *tq, options, &stats).status());
    table.AddRow({make()->name(), Table::Count(stats.disk_accesses())});
  }
  table.Print(stdout);
}

void AblationForcedReinsert() {
  std::printf("\nD. Forced reinsertion on/off "
              "(HEAP, K=1, uniform 40K/40K, overlap 100%%, no buffer)\n");
  Table table({"forced reinsert", "disk accesses", "leaf nodes"});
  for (const bool reinsert : {true, false}) {
    RTreeOptions tree_options;
    tree_options.forced_reinsert = reinsert;
    TreeStore p(DataKind::kUniform, Scaled(40000), UnitWorkspace(), 3005,
                tree_options);
    TreeStore q(DataKind::kUniform, Scaled(40000), UnitWorkspace(), 3006,
                tree_options);
    CpqOptions options;
    options.algorithm = CpqAlgorithm::kHeap;
    options.k = 1;
    const QueryOutcome outcome = RunCpq(p, q, options, 0);
    auto view = p.OpenView(0);
    std::vector<RStarTree::LevelStats> stats;
    KCPQ_CHECK_OK(view.tree->CollectLevelStats(&stats));
    table.AddRow({reinsert ? "on (R*)" : "off",
                  Table::Count(outcome.stats.disk_accesses()),
                  Table::Count(stats[0].nodes)});
  }
  table.Print(stdout);
}

void AblationHybridQueue() {
  // The DT threshold of [11]'s hybrid priority queue, which the authors
  // left open ("a policy for choosing DT is a subject for further
  // investigation"): smaller DT keeps less in memory but pays overflow
  // page I/O.
  std::printf("\nE. Hybrid-queue memory threshold DT "
              "(SML incremental join, K=10000, uniform 40K/40K, 100%% "
              "overlap)\n");
  auto p = MakeStore(DataKind::kUniform, Scaled(40000), 1.0, 3007);
  auto q = MakeStore(DataKind::kUniform, Scaled(40000), 1.0, 3008);
  Table table({"DT (distance)", "tree accesses", "queue spill reads",
               "queue spill writes", "max queue"});
  const double inf = std::numeric_limits<double>::infinity();
  for (const double dt : {inf, 1e-4, 1e-6, 1e-8, 0.0}) {
    HsOptions options;
    // DT is compared against squared distances internally.
    options.queue_distance_threshold = dt;
    const QueryOutcome outcome = RunHs(*p, *q, 10000, options, 0);
    char label[32];
    if (dt == inf) {
      std::snprintf(label, sizeof(label), "inf (all in memory)");
    } else {
      std::snprintf(label, sizeof(label), "%.0e", dt);
    }
    table.AddRow({label, Table::Count(outcome.stats.disk_accesses()),
                  Table::Count(outcome.stats.queue_spill_reads),
                  Table::Count(outcome.stats.queue_spill_writes),
                  Table::Count(outcome.stats.max_heap_size)});
  }
  table.Print(stdout);
  std::printf("Tree accesses are DT-independent (the queue orders pops the "
              "same way); DT only trades memory for queue I/O.\n");
}

void AblationBufferSplit() {
  // The paper dedicates B/2 pages to each tree (Section 4.3.3). Would one
  // shared pool of B pages do better? Both trees live on one storage, so
  // a single buffer can serve them; LRU then allocates the budget by
  // demand instead of by fiat.
  std::printf("\nF. Split (B/2 + B/2) vs shared (B) buffer "
              "(STD, K=100, R vs uniform 40K, overlap 100%%)\n");
  Table table({"B(total)", "split", "shared"});
  // Build both trees on one storage for the shared configuration.
  MemoryStorageManager shared_storage;
  const PageId meta_p =
      BuildOn(&shared_storage, DataKind::kSequoiaLike, Scaled(40000), 77);
  const PageId meta_q =
      BuildOn(&shared_storage, DataKind::kUniform, Scaled(40000), 3009);
  // And separately for the split configuration.
  auto p = MakeStore(DataKind::kSequoiaLike, Scaled(40000), 1.0, 77);
  auto q = MakeStore(DataKind::kUniform, Scaled(40000), 1.0, 3009);

  for (const size_t total : {8, 32, 128, 512}) {
    CpqOptions options;
    options.algorithm = CpqAlgorithm::kSortedDistances;
    options.k = 100;
    const uint64_t split = RunCpq(*p, *q, options, total).stats.disk_accesses();

    BufferManager shared_buffer(&shared_storage, total);
    auto tp = RStarTree::Open(&shared_buffer, meta_p).value();
    auto tq = RStarTree::Open(&shared_buffer, meta_q).value();
    // CpqStats would double-count a shared buffer's misses (it samples the
    // same buffer from both trees); count physical reads directly.
    const uint64_t reads_before = shared_storage.stats().reads;
    KCPQ_CHECK_OK(KClosestPairs(*tp, *tq, options).status());
    const uint64_t shared = shared_storage.stats().reads - reads_before;
    table.AddRow(
        {Table::Count(total), Table::Count(split), Table::Count(shared)});
  }
  table.Print(stdout);
}

void Main() {
  PrintFigureHeader("Ablations",
                    "Design-choice studies beyond the paper's figures");
  AblationMaxMaxPruning();
  AblationBulkLoad();
  AblationReplacementPolicy();
  AblationForcedReinsert();
  AblationHybridQueue();
  AblationBufferSplit();
}

}  // namespace
}  // namespace bench
}  // namespace kcpq

int main() { kcpq::bench::Main(); }
