// Failure-injection tests: every layer above the storage manager must
// propagate injected I/O errors as Status values — no aborts, no silent
// data loss after healing.

#include <cstring>

#include "buffer/buffer_manager.h"
#include "cpq/cpq.h"
#include "exec/batch.h"
#include "gtest/gtest.h"
#include "hs/hs.h"
#include "rtree/rtree.h"
#include "storage/fault_injection_storage.h"
#include "storage/memory_storage.h"
#include "storage/retrying_storage.h"
#include "tests/test_util.h"

namespace kcpq {
namespace {

using testing::MakeUniformItems;

struct FaultyStack {
  MemoryStorageManager base;
  FaultInjectionStorageManager faulty{&base};
  BufferManager buffer{&faulty, 0};
};

TEST(FaultInjectionStorageTest, FailAfterCountdown) {
  MemoryStorageManager base;
  FaultInjectionStorageManager faulty(&base);
  faulty.FailAfter(2);
  EXPECT_TRUE(faulty.Allocate().ok());
  EXPECT_TRUE(faulty.Allocate().ok());
  EXPECT_FALSE(faulty.Allocate().ok());  // tripped
  EXPECT_FALSE(faulty.Allocate().ok());  // stays tripped
  EXPECT_EQ(faulty.faults_injected(), 2u);
  faulty.Heal();
  EXPECT_TRUE(faulty.Allocate().ok());
}

TEST(FaultInjectionStorageTest, ProbabilisticFaultsAreDeterministic) {
  for (int run = 0; run < 2; ++run) {
    MemoryStorageManager base;
    FaultInjectionStorageManager faulty(&base);
    const PageId id = faulty.Allocate().value();
    faulty.FailWithProbability(0.3, /*seed=*/42);
    int failures = 0;
    Page page(base.page_size());
    for (int i = 0; i < 100; ++i) {
      if (!faulty.WritePage(id, page).ok()) ++failures;
    }
    EXPECT_GT(failures, 10);
    EXPECT_LT(failures, 60);
    static int first_run_failures = 0;
    if (run == 0) {
      first_run_failures = failures;
    } else {
      EXPECT_EQ(failures, first_run_failures);  // same seed, same faults
    }
  }
}

TEST(FaultInjectionTest, TreeCreateFailsCleanly) {
  FaultyStack stack;
  stack.faulty.FailAfter(0);
  auto created = RStarTree::Create(&stack.buffer);
  ASSERT_FALSE(created.ok());
  EXPECT_EQ(created.status().code(), StatusCode::kIoError);
}

TEST(FaultInjectionTest, InsertFailurePropagates) {
  FaultyStack stack;
  auto tree = RStarTree::Create(&stack.buffer).value();
  const auto items = MakeUniformItems(500, 1100);
  // Let some inserts succeed, then cut the disk.
  stack.faulty.FailAfter(200);
  Status status = Status::OK();
  size_t inserted = 0;
  for (const auto& [p, id] : items) {
    status = tree->Insert(p, id);
    if (!status.ok()) break;
    ++inserted;
  }
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_LT(inserted, items.size());
}

TEST(FaultInjectionTest, QueryFailurePropagatesFromBothSides) {
  // Build two healthy trees, then fail one side's disk mid-query.
  FaultyStack stack_p, stack_q;
  auto tree_p = RStarTree::Create(&stack_p.buffer).value();
  auto tree_q = RStarTree::Create(&stack_q.buffer).value();
  for (const auto& [p, id] : MakeUniformItems(2000, 1101)) {
    KCPQ_ASSERT_OK(tree_p->Insert(p, id));
  }
  for (const auto& [p, id] : MakeUniformItems(2000, 1102)) {
    KCPQ_ASSERT_OK(tree_q->Insert(p, id));
  }
  for (const bool fail_p : {true, false}) {
    (fail_p ? stack_p : stack_q).faulty.FailAfter(50);
    CpqOptions options;
    options.algorithm = CpqAlgorithm::kHeap;
    options.k = 10;
    auto result = KClosestPairs(*tree_p, *tree_q, options);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kIoError);
    (fail_p ? stack_p : stack_q).faulty.Heal();
  }
  // After healing, the same query succeeds — the failed query left no
  // corrupted state behind.
  auto result = KClosestPairs(*tree_p, *tree_q);
  ASSERT_TRUE(result.ok());
  KCPQ_ASSERT_OK(tree_p->Validate());
  KCPQ_ASSERT_OK(tree_q->Validate());
}

TEST(FaultInjectionTest, AllCpqAlgorithmsFailCleanly) {
  FaultyStack stack_p, stack_q;
  auto tree_p = RStarTree::Create(&stack_p.buffer).value();
  auto tree_q = RStarTree::Create(&stack_q.buffer).value();
  for (const auto& [p, id] : MakeUniformItems(1000, 1103)) {
    KCPQ_ASSERT_OK(tree_p->Insert(p, id));
    KCPQ_ASSERT_OK(tree_q->Insert(p, id + 100000));
  }
  for (const CpqAlgorithm algorithm :
       {CpqAlgorithm::kExhaustive, CpqAlgorithm::kSimple,
        CpqAlgorithm::kSortedDistances, CpqAlgorithm::kHeap}) {
    stack_q.faulty.FailAfter(10);
    CpqOptions options;
    options.algorithm = algorithm;
    auto result = KClosestPairs(*tree_p, *tree_q, options);
    EXPECT_FALSE(result.ok()) << CpqAlgorithmName(algorithm);
    stack_q.faulty.Heal();
  }
}

TEST(FaultInjectionTest, HsJoinFailsCleanly) {
  FaultyStack stack_p, stack_q;
  auto tree_p = RStarTree::Create(&stack_p.buffer).value();
  auto tree_q = RStarTree::Create(&stack_q.buffer).value();
  for (const auto& [p, id] : MakeUniformItems(1000, 1104)) {
    KCPQ_ASSERT_OK(tree_p->Insert(p, id));
    KCPQ_ASSERT_OK(tree_q->Insert(p, id));
  }
  // Fail immediately: the very first root read must surface the error.
  stack_p.faulty.FailAfter(0);
  auto result = HsKClosestPairs(*tree_p, *tree_q, 100);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

TEST(FaultInjectionTest, EraseFailurePropagates) {
  FaultyStack stack;
  auto tree = RStarTree::Create(&stack.buffer).value();
  const auto items = MakeUniformItems(1000, 1105);
  for (const auto& [p, id] : items) KCPQ_ASSERT_OK(tree->Insert(p, id));
  stack.faulty.FailAfter(5);
  Status status = Status::OK();
  for (const auto& [p, id] : items) {
    auto erased = tree->Erase(p, id);
    if (!erased.ok()) {
      status = erased.status();
      break;
    }
  }
  EXPECT_FALSE(status.ok());
}

TEST(FaultInjectionStorageTest, FailNextNIsTransientThenHeals) {
  MemoryStorageManager base;
  FaultInjectionStorageManager faulty(&base);
  const PageId id = faulty.Allocate().value();
  Page page(base.page_size());

  faulty.FailNextN(3);
  for (int i = 0; i < 3; ++i) {
    const Status s = faulty.WritePage(id, page);
    ASSERT_FALSE(s.ok()) << i;
    EXPECT_TRUE(s.IsTransient()) << i;
    EXPECT_EQ(s.code(), StatusCode::kIoTransient) << i;
  }
  // Exactly n: the fourth operation succeeds without Heal().
  KCPQ_EXPECT_OK(faulty.WritePage(id, page));
  EXPECT_EQ(faulty.faults_injected(), 3u);

  // Heal() clears a pending countdown.
  faulty.FailNextN(100);
  faulty.Heal();
  KCPQ_EXPECT_OK(faulty.WritePage(id, page));
}

TEST(RetryingStorageTest, RecoversFromTransientBurst) {
  MemoryStorageManager base;
  FaultInjectionStorageManager faulty(&base);
  RetryPolicy policy;
  policy.max_retries = 5;
  policy.initial_backoff = std::chrono::microseconds(0);
  RetryingStorageManager retrying(&faulty, policy);

  const PageId id = retrying.Allocate().value();
  Page page(base.page_size());
  for (size_t i = 0; i < page.size(); ++i) {
    page.data()[i] = static_cast<uint8_t>(i);
  }
  KCPQ_ASSERT_OK(retrying.WritePage(id, page));

  faulty.FailNextN(4);  // within the retry budget
  Page read_back(base.page_size());
  KCPQ_ASSERT_OK(retrying.ReadPage(id, &read_back));
  EXPECT_EQ(std::memcmp(read_back.data(), page.data(), page.size()), 0);
  EXPECT_EQ(retrying.retries(), 4u);
  EXPECT_EQ(retrying.recovered(), 1u);
  EXPECT_EQ(retrying.exhausted(), 0u);
}

TEST(RetryingStorageTest, ExhaustsOnLongBurstAndSurfacesTransient) {
  MemoryStorageManager base;
  FaultInjectionStorageManager faulty(&base);
  RetryPolicy policy;
  policy.max_retries = 3;
  policy.initial_backoff = std::chrono::microseconds(0);
  RetryingStorageManager retrying(&faulty, policy);
  const PageId id = retrying.Allocate().value();
  Page page(base.page_size());

  faulty.FailNextN(10);  // outlasts 1 try + 3 retries
  const Status s = retrying.ReadPage(id, &page);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsTransient());
  EXPECT_EQ(retrying.retries(), 3u);
  EXPECT_EQ(retrying.exhausted(), 1u);
  EXPECT_EQ(faulty.faults_injected(), 4u);  // the burst was not fully drained
}

TEST(RetryingStorageTest, PermanentErrorsAreNotRetried) {
  MemoryStorageManager base;
  FaultInjectionStorageManager faulty(&base);
  RetryingStorageManager retrying(&faulty);
  const PageId id = retrying.Allocate().value();
  Page page(base.page_size());

  faulty.FailAfter(0);  // permanent kIoError from here on
  const Status s = retrying.ReadPage(id, &page);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_FALSE(s.IsTransient());
  EXPECT_EQ(retrying.retries(), 0u);  // passed through on the first attempt
  EXPECT_EQ(faulty.faults_injected(), 1u);
}

TEST(RetryingStorageTest, QueryOverFlakyDiskIsBitIdenticalToFaultFreeRun) {
  // The PR's acceptance criterion: a query stacked over
  // memory -> fault injection -> retrying -> buffer, with transient faults
  // injected mid-query, returns bit-identical pairs to a fault-free run.
  const auto p_items = MakeUniformItems(1500, 1107);
  const auto q_items = MakeUniformItems(1500, 1108);
  kcpq::testing::TreeFixture fp, fq;
  KCPQ_ASSERT_OK(fp.Build(p_items));
  KCPQ_ASSERT_OK(fq.Build(q_items));

  CpqOptions options;
  options.algorithm = CpqAlgorithm::kHeap;
  options.k = 25;
  auto want = KClosestPairs(fp.tree(), fq.tree(), options);
  KCPQ_ASSERT_OK(want.status());

  FaultInjectionStorageManager faulty_p(&fp.storage());
  FaultInjectionStorageManager faulty_q(&fq.storage());
  RetryPolicy policy;
  policy.max_retries = 12;
  policy.initial_backoff = std::chrono::microseconds(0);
  RetryingStorageManager retry_p(&faulty_p, policy);
  RetryingStorageManager retry_q(&faulty_q, policy);
  BufferManager buffer_p(&retry_p, 0);
  BufferManager buffer_q(&retry_q, 0);
  auto tree_p = RStarTree::Open(&buffer_p, fp.tree().meta_page());
  auto tree_q = RStarTree::Open(&buffer_q, fq.tree().meta_page());
  ASSERT_TRUE(tree_p.ok());
  ASSERT_TRUE(tree_q.ok());
  faulty_p.FailWithProbability(0.25, /*seed=*/31, /*transient=*/true);
  faulty_q.FailWithProbability(0.25, /*seed=*/32, /*transient=*/true);

  auto got = KClosestPairs(*tree_p.value(), *tree_q.value(), options);
  KCPQ_ASSERT_OK(got.status());
  EXPECT_GT(faulty_p.faults_injected() + faulty_q.faults_injected(), 0u);
  EXPECT_GT(retry_p.recovered() + retry_q.recovered(), 0u);
  ASSERT_EQ(got.value().size(), want.value().size());
  for (size_t i = 0; i < want.value().size(); ++i) {
    EXPECT_EQ(got.value()[i].p_id, want.value()[i].p_id) << i;
    EXPECT_EQ(got.value()[i].q_id, want.value()[i].q_id) << i;
    EXPECT_EQ(got.value()[i].distance, want.value()[i].distance) << i;
  }
}

TEST(RetryingStorageTest, NearDeadlineAbandonsRetryPromptly) {
  // Transient-fault burst hitting a query whose deadline cannot cover the
  // retry backoff: the retry loop gives up immediately instead of
  // sleeping past the deadline, the engine converts the resulting
  // kDeadlineExceeded into a partial result with a certificate — OK
  // status, not a failed query.
  const auto p_items = MakeUniformItems(800, 1201);
  const auto q_items = MakeUniformItems(800, 1202);
  kcpq::testing::TreeFixture fp(/*buffer_pages=*/0, /*page_size=*/512);
  kcpq::testing::TreeFixture fq(/*buffer_pages=*/0, /*page_size=*/512);
  KCPQ_ASSERT_OK(fp.Build(p_items));
  KCPQ_ASSERT_OK(fq.Build(q_items));

  FaultInjectionStorageManager faulty_p(&fp.storage());
  RetryPolicy policy;
  policy.max_retries = 5;
  // A backoff far beyond the deadline: any retry that is *not* abandoned
  // stalls this test for seconds, so the wall-clock assertion below
  // proves promptness.
  policy.initial_backoff = std::chrono::seconds(5);
  policy.max_backoff = std::chrono::seconds(5);
  RetryingStorageManager retry_p(&faulty_p, policy);
  BufferManager buffer_p(&retry_p, 0);
  auto tree_p = RStarTree::Open(&buffer_p, fp.tree().meta_page());
  ASSERT_TRUE(tree_p.ok());

  faulty_p.FailNextN(1000);  // a burst no retry budget can outlast
  CpqOptions options;
  options.algorithm = CpqAlgorithm::kHeap;
  options.k = 10;
  options.control =
      QueryControl::WithDeadlineAfter(std::chrono::milliseconds(500));
  CpqStats stats;
  const auto start = std::chrono::steady_clock::now();
  auto result = KClosestPairs(*tree_p.value(), fq.tree(), options, &stats);
  const auto elapsed = std::chrono::steady_clock::now() - start;

  // Not an error: a partial result with the deadline stop cause.
  KCPQ_ASSERT_OK(result.status());
  EXPECT_EQ(stats.quality.stop_cause, StopCause::kDeadline);
  EXPECT_FALSE(stats.quality.is_exact);
  EXPECT_GE(stats.quality.guaranteed_lower_bound, 0.0);
  // The retry loop consulted the context's deadline and gave up rather
  // than sleeping 5 s per attempt.
  EXPECT_GT(retry_p.deadline_abandoned(), 0u);
  EXPECT_LT(elapsed, std::chrono::seconds(4));

  // The same abandonment through the other single-query engines and the
  // blocking batch executor: every read carries the query's context, so
  // each run gives up promptly and reports a deadline-stopped partial.
  const auto expect_abandoned = [&](const char* label, auto run) {
    faulty_p.FailNextN(1000);
    const uint64_t abandoned_before = retry_p.deadline_abandoned();
    const QueryControl control =
        QueryControl::WithDeadlineAfter(std::chrono::milliseconds(500));
    const auto run_start = std::chrono::steady_clock::now();
    const QueryQuality quality = run(control);
    EXPECT_LT(std::chrono::steady_clock::now() - run_start,
              std::chrono::seconds(4))
        << label;
    EXPECT_GT(retry_p.deadline_abandoned(), abandoned_before) << label;
    EXPECT_EQ(quality.stop_cause, StopCause::kDeadline) << label;
    EXPECT_FALSE(quality.is_exact) << label;
  };
  expect_abandoned("hs", [&](const QueryControl& control) {
    HsOptions hs;
    hs.control = control;
    HsStats hs_stats;
    auto r = HsKClosestPairs(*tree_p.value(), fq.tree(), 10, hs, &hs_stats);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return hs_stats.quality;
  });
  expect_abandoned("semi", [&](const QueryControl& control) {
    CpqStats semi_stats;
    auto r = SemiClosestPairs(*tree_p.value(), fq.tree(), &semi_stats, control);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return semi_stats.quality;
  });
  expect_abandoned("batch", [&](const QueryControl& control) {
    BatchQuery query;
    query.options = options;
    query.options.control = control;
    BatchOptions batch;
    batch.threads = 1;
    batch.scheduler = SchedulerMode::kBlocking;
    const std::vector<BatchQueryResult> r =
        BatchKClosestPairs(*tree_p.value(), fq.tree(), {query}, batch);
    EXPECT_TRUE(r[0].status.ok()) << r[0].status.ToString();
    EXPECT_EQ(r[0].outcome, QueryOutcome::kPartial);
    return r[0].stats.quality;
  });
}

TEST(FaultInjectionTest, IntermittentFaultsNeverCrashQueries) {
  // Flaky-disk chaos run: 20% of operations fail at random; queries must
  // always return either OK or a clean IoError.
  FaultyStack stack_p, stack_q;
  auto tree_p = RStarTree::Create(&stack_p.buffer).value();
  auto tree_q = RStarTree::Create(&stack_q.buffer).value();
  for (const auto& [p, id] : MakeUniformItems(1500, 1106)) {
    KCPQ_ASSERT_OK(tree_p->Insert(p, id));
    KCPQ_ASSERT_OK(tree_q->Insert(p, id));
  }
  stack_p.faulty.FailWithProbability(0.2, 7);
  stack_q.faulty.FailWithProbability(0.2, 8);
  int ok_count = 0, error_count = 0;
  for (int i = 0; i < 30; ++i) {
    CpqOptions options;
    options.algorithm =
        i % 2 == 0 ? CpqAlgorithm::kHeap : CpqAlgorithm::kSortedDistances;
    options.k = 5;
    auto result = KClosestPairs(*tree_p, *tree_q, options);
    if (result.ok()) {
      ++ok_count;
      ASSERT_EQ(result.value().size(), 5u);
    } else {
      ASSERT_EQ(result.status().code(), StatusCode::kIoError);
      ++error_count;
    }
  }
  EXPECT_GT(error_count, 0);  // the chaos actually fired
}

}  // namespace
}  // namespace kcpq
