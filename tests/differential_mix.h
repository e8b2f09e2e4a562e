// The 50-seed differential workload shared by tests/resumable_test.cc and
// tests/uring_test.cc, and the golden digest that pins its answers.
//
// Every seed builds a P tree of uniform points and a Q tree of uniform or
// clustered points (80..240 each), then runs a 19-query mix: all five CPQ
// algorithms x K in {1, 10}, a self-join, an HS join and a semi-join, then
// six riders that pin HEAP's frontier order: K = 100, HEAP and STD under
// the full five-criterion tie chain, HEAP with an empty chain, HEAP
// farthest and HEAP range-restricted on [0.2, 0.6]^2.
// tests/golden/differential_fifty_seeds.txt holds one digest line per
// query: pair ids (hashed), distances, disk and node accesses, and the
// quality certificate. Every execution path (inline or multiplexed, pool
// or ring) must reproduce those lines. Regenerate the file with
//
//   KCPQ_UPDATE_GOLDEN=1 ./resumable_test --gtest_filter='*FiftySeeds*'
//
// and review the diff: a changed line means a changed answer or cost.

#ifndef KCPQ_TESTS_DIFFERENTIAL_MIX_H_
#define KCPQ_TESTS_DIFFERENTIAL_MIX_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "cpq/brute.h"
#include "exec/batch.h"
#include "geometry/minkowski.h"
#include "gtest/gtest.h"
#include "hs/hs.h"
#include "tests/test_util.h"

namespace kcpq {
namespace testing {

constexpr int kDifferentialSeeds = 50;

constexpr CpqAlgorithm kDifferentialAlgorithms[] = {
    CpqAlgorithm::kNaive, CpqAlgorithm::kExhaustive, CpqAlgorithm::kSimple,
    CpqAlgorithm::kSortedDistances, CpqAlgorithm::kHeap};

/// The point sets of one seed.
struct DifferentialData {
  std::vector<std::pair<Point, uint64_t>> p;
  std::vector<std::pair<Point, uint64_t>> q;
};

inline DifferentialData MakeDifferentialData(int seed) {
  const size_t np = 80 + static_cast<size_t>(seed % 5) * 40;
  const size_t nq = 80 + static_cast<size_t>((seed / 5) % 5) * 40;
  DifferentialData d;
  d.p = MakeUniformItems(np, 1000 + seed);
  d.q = seed % 2 == 0 ? MakeUniformItems(nq, 2000 + seed)
                      : MakeClusteredItems(nq, 2000 + seed);
  return d;
}

/// The query rectangle of the mix's kRangeClosest rider.
inline Rect DifferentialRangeRect() {
  Rect r;
  r.lo[0] = r.lo[1] = 0.2;
  r.hi[0] = r.hi[1] = 0.6;
  return r;
}

/// All five algorithms x K in {1, 10}, plus self-join, HS and semi riders,
/// plus the frontier-order riders (appended last, so the earlier queries
/// keep their indices).
inline std::vector<BatchQuery> MakeDifferentialMix(int seed) {
  std::vector<BatchQuery> queries;
  for (CpqAlgorithm algorithm : kDifferentialAlgorithms) {
    for (size_t k : {size_t{1}, size_t{10}}) {
      BatchQuery q;
      q.options.algorithm = algorithm;
      q.options.k = k;
      q.options.metric = (seed % 4 == 1) ? Metric::kL1 : Metric::kL2;
      queries.push_back(q);
    }
  }
  BatchQuery self;
  self.kind = BatchQueryKind::kSelfClosestPairs;
  self.options.algorithm =
      kDifferentialAlgorithms[static_cast<size_t>(seed) %
                              std::size(kDifferentialAlgorithms)];
  self.options.k = 5;
  queries.push_back(self);
  BatchQuery hs;
  hs.kind = BatchQueryKind::kHsClosestPairs;
  hs.options.k = 10;
  queries.push_back(hs);
  BatchQuery semi;
  semi.kind = BatchQueryKind::kSemiClosestPairs;
  queries.push_back(semi);

  BatchQuery heap;
  heap.options.algorithm = CpqAlgorithm::kHeap;
  heap.options.k = 10;
  BatchQuery big = heap;
  big.options.k = 100;
  queries.push_back(big);
  const std::vector<TieCriterion> all_ties = {
      TieCriterion::kLargestNormalizedArea, TieCriterion::kSmallestMinMaxDist,
      TieCriterion::kLargestAreaSum, TieCriterion::kSmallestEnclosureWaste,
      TieCriterion::kLargestIntersection};
  for (CpqAlgorithm algorithm :
       {CpqAlgorithm::kHeap, CpqAlgorithm::kSortedDistances}) {
    BatchQuery chained = heap;
    chained.options.algorithm = algorithm;
    chained.options.tie_chain = all_ties;
    queries.push_back(chained);
  }
  BatchQuery untied = heap;
  untied.options.tie_chain.clear();
  queries.push_back(untied);
  BatchQuery farthest = heap;
  farthest.options.family = QueryFamily::kFarthest;
  queries.push_back(farthest);
  BatchQuery range = heap;
  range.options.family = QueryFamily::kRangeClosest;
  range.options.query_rect = DifferentialRangeRect();
  queries.push_back(range);
  return queries;
}

/// Batch options of the run the golden file records: two workers, with
/// speculation on every third seed.
inline BatchOptions DifferentialBatchOptions(int seed, SchedulerMode mode,
                                             size_t queries) {
  BatchOptions options;
  options.threads = 2;
  options.scheduler = mode;
  if (mode == SchedulerMode::kResumable) options.max_inflight = queries;
  if (seed % 3 == 0) options.prefetch_window = 2;
  return options;
}

/// One golden line. Everything before " | " must match exactly; the two
/// distance fields after it (K-th distance and the sum over all pairs)
/// match to 1e-9.
inline std::string DifferentialDigestLine(int seed, size_t index,
                                          const BatchQueryResult& r) {
  uint64_t ids = 1469598103934665603ULL;  // FNV-1a over (p_id, q_id)*
  double sum = 0.0;
  for (const PairResult& pair : r.pairs) {
    for (const uint64_t v : {pair.p_id, pair.q_id}) {
      for (int b = 0; b < 8; ++b) {
        ids ^= (v >> (8 * b)) & 0xff;
        ids *= 1099511628211ULL;
      }
    }
    sum += pair.distance;
  }
  const double kth = r.pairs.empty() ? 0.0 : r.pairs.back().distance;
  const QueryQuality& c = r.stats.quality;
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "%d %zu %s pairs=%zu ids=%016llx disk=%llu/%llu nodes=%llu "
      "cert=%s/%s/%llu | kth=%.17g sum=%.17g",
      seed, index, QueryOutcomeName(r.outcome), r.pairs.size(),
      static_cast<unsigned long long>(ids),
      static_cast<unsigned long long>(r.stats.disk_accesses_p),
      static_cast<unsigned long long>(r.stats.disk_accesses_q),
      static_cast<unsigned long long>(r.stats.node_accesses),
      StopCauseName(c.stop_cause), c.is_exact ? "exact" : "inexact",
      static_cast<unsigned long long>(c.pairs_found), kth, sum);
  return buf;
}

/// One work-counter golden line. `hs` appends the HS counters (items
/// pushed, peak queue) for the mix's HS query.
inline std::string DifferentialWorkLine(int seed, size_t index,
                                        const CpqStats& s, bool hs) {
  char buf[512];
  const int n = std::snprintf(
      buf, sizeof(buf),
      "%d %zu generated=%llu pruned=%llu distances=%llu skipped=%llu "
      "node_pairs=%llu max_heap=%llu",
      seed, index,
      static_cast<unsigned long long>(s.candidate_pairs_generated),
      static_cast<unsigned long long>(s.candidate_pairs_pruned),
      static_cast<unsigned long long>(s.point_distance_computations),
      static_cast<unsigned long long>(s.leaf_pairs_skipped),
      static_cast<unsigned long long>(s.node_pairs_processed),
      static_cast<unsigned long long>(s.max_heap_size));
  if (hs) {
    std::snprintf(buf + n, sizeof(buf) - static_cast<size_t>(n),
                  " hs_pushed=%llu hs_max_queue=%llu",
                  static_cast<unsigned long long>(s.items_pushed),
                  static_cast<unsigned long long>(s.max_heap_size));
  }
  return buf;
}

inline std::string DifferentialGoldenPath() {
  return std::string(KCPQ_TEST_GOLDEN_DIR) + "/differential_fifty_seeds.txt";
}

inline std::string DifferentialWorkGoldenPath() {
  return std::string(KCPQ_TEST_GOLDEN_DIR) + "/differential_work_counters.txt";
}

/// The golden lines of `path` (default: the answer digest), '#' comments
/// stripped; empty when the file is missing.
inline std::vector<std::string> LoadDifferentialGolden(
    const std::string& path = DifferentialGoldenPath()) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '#') lines.push_back(line);
  }
  return lines;
}

/// Asserts that `got` reproduces the golden line `want` (see
/// DifferentialDigestLine for the comparison rule).
inline void ExpectMatchesGolden(const std::string& got, const std::string& want,
                                const std::string& label) {
  const size_t gs = got.find(" | ");
  const size_t ws = want.find(" | ");
  ASSERT_NE(ws, std::string::npos) << label << ": malformed golden " << want;
  EXPECT_EQ(got.substr(0, gs), want.substr(0, ws)) << label;
  double got_kth = 0, got_sum = 0, want_kth = 0, want_sum = 0;
  ASSERT_EQ(std::sscanf(got.c_str() + gs, " | kth=%lf sum=%lf", &got_kth,
                        &got_sum),
            2)
      << label;
  ASSERT_EQ(std::sscanf(want.c_str() + ws, " | kth=%lf sum=%lf", &want_kth,
                        &want_sum),
            2)
      << label;
  EXPECT_NEAR(got_kth, want_kth, 1e-9) << label;
  EXPECT_NEAR(got_sum, want_sum, 1e-9) << label;
}

/// Brute-force answer distances of a query of any family: every eligible
/// pair's distance (each unordered pair once under options.self_join),
/// best-first for the family, truncated.
inline std::vector<double> BruteForceFamilyDistances(
    const DifferentialData& data, const CpqOptions& options) {
  std::vector<double> d;
  for (const auto& [pp, pid] : data.p) {
    for (const auto& [qq, qid] : data.q) {
      if (options.self_join && pid >= qid) continue;
      if (options.family == QueryFamily::kRangeClosest &&
          (!options.query_rect.Contains(Rect::FromPoint(pp)) ||
           !options.query_rect.Contains(Rect::FromPoint(qq)))) {
        continue;
      }
      d.push_back(PowToDistance(PointDistancePow(pp, qq, options.metric),
                                options.metric));
    }
  }
  std::sort(d.begin(), d.end());
  if (options.family == QueryFamily::kFarthest) {
    std::reverse(d.begin(), d.end());
  }
  if (d.size() > options.k) d.resize(options.k);
  return d;
}

/// Checks every query's distances against the brute-force oracle.
inline void ExpectMatchesBruteForce(const DifferentialData& data,
                                    const std::vector<BatchQuery>& queries,
                                    const std::vector<BatchQueryResult>& got,
                                    const std::string& label) {
  ASSERT_EQ(got.size(), queries.size()) << label;
  for (size_t i = 0; i < queries.size(); ++i) {
    const BatchQuery& q = queries[i];
    const std::string where = label + " query " + std::to_string(i);
    if (q.options.family != QueryFamily::kClosest) {
      const std::vector<double> want =
          BruteForceFamilyDistances(data, q.options);
      ASSERT_EQ(got[i].pairs.size(), want.size()) << where;
      for (size_t r = 0; r < want.size(); ++r) {
        ASSERT_NEAR(got[i].pairs[r].distance, want[r], 1e-9)
            << where << " rank " << r;
      }
      continue;
    }
    std::vector<PairResult> want;
    switch (q.kind) {
      case BatchQueryKind::kClosestPairs:
        want = BruteForceKClosestPairs(data.p, data.q, q.options.k, false,
                                       q.options.metric);
        break;
      case BatchQueryKind::kSelfClosestPairs:
        want = BruteForceKClosestPairs(data.p, data.p, q.options.k, true,
                                       q.options.metric);
        break;
      case BatchQueryKind::kHsClosestPairs:
        want = BruteForceKClosestPairs(data.p, data.q, q.options.k);
        break;
      case BatchQueryKind::kSemiClosestPairs:
        want = BruteForceSemiClosestPairs(data.p, data.q);
        break;
    }
    ASSERT_EQ(got[i].pairs.size(), want.size()) << where;
    for (size_t r = 0; r < want.size(); ++r) {
      ASSERT_NEAR(got[i].pairs[r].distance, want[r].distance, 1e-9)
          << where << " rank " << r;
    }
  }
}

}  // namespace testing
}  // namespace kcpq

#endif  // KCPQ_TESTS_DIFFERENTIAL_MIX_H_
