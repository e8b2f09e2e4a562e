// Figure 10: comparison of the paper's STD and HEAP with the incremental
// distance-join algorithms of Hjaltason & Samet (EVN and SML traversal;
// BAS is reported separately since the paper found it uncompetitive).
// Four panels: buffer {0, 128 pages} x overlap {0%, 100%}; K = 1..100,000;
// real (Sequoia-like) vs uniform 62,536 points.

#include <cstdio>

#include "bench/bench_util.h"

namespace kcpq {
namespace bench {
namespace {

constexpr size_t kKs[] = {1, 10, 100, 1000, 10000, 100000};

void RunPanel(const char* panel, size_t buffer_pages, double overlap,
              TreeStore& real_store) {
  std::printf(
      "\nFigure 10%s: buffer = %zu pages, overlap = %.0f%%, disk accesses\n",
      panel, buffer_pages, overlap * 100);
  auto store_q = MakeStore(DataKind::kUniform, Scaled(kSequoiaCardinality),
                           overlap, 2009);
  Table table({"K", "STD", "HEAP", "EVN", "SML", "BAS", "SML(maxqueue)"});
  for (const size_t k : kKs) {
    std::vector<std::string> row = {Table::Count(k)};
    for (const CpqAlgorithm algorithm :
         {CpqAlgorithm::kSortedDistances, CpqAlgorithm::kHeap}) {
      CpqOptions options;
      options.algorithm = algorithm;
      options.k = k;
      row.push_back(Table::Count(
          RunCpq(real_store, *store_q, options, buffer_pages)
              .stats.disk_accesses()));
    }
    uint64_t sml_queue = 0;
    for (const HsTraversal traversal :
         {HsTraversal::kEven, HsTraversal::kSimultaneous, HsTraversal::kBasic}) {
      HsOptions options;
      options.traversal = traversal;
      const QueryOutcome outcome =
          RunHs(real_store, *store_q, k, options, buffer_pages);
      row.push_back(Table::Count(outcome.stats.disk_accesses()));
      if (traversal == HsTraversal::kSimultaneous) {
        sml_queue = outcome.stats.max_heap_size;
      }
    }
    row.push_back(Table::Count(sml_queue));
    table.AddRow(std::move(row));
  }
  table.Print(stdout);
}

void Main() {
  PrintFigureHeader("Figure 10",
                    "Non-incremental (STD, HEAP) vs incremental (EVN, SML; "
                    "BAS extra) algorithms; R vs uniform 62,536");
  auto real_store =
      MakeStore(DataKind::kSequoiaLike, Scaled(kSequoiaCardinality), 1.0, 77);
  RunPanel("a", 0, 0.0, *real_store);
  RunPanel("b", 128, 0.0, *real_store);
  RunPanel("c", 0, 1.0, *real_store);
  RunPanel("d", 128, 1.0, *real_store);
  std::printf(
      "\nPaper expectation: EVN competitive only for K < 10,000; with no "
      "buffer HEAP and SML lead (near-identical at 0%% overlap); with a "
      "128-page buffer STD is the most efficient. HEAP/STD beat SML by up "
      "to 20%%/50%%.\n");
}

}  // namespace
}  // namespace bench
}  // namespace kcpq

int main() { kcpq::bench::Main(); }
