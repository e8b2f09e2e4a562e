// Tests for the live telemetry service (src/obs/): the embedded HTTP
// exporter's route dispatch and real socket round-trip, the in-flight
// query registry and its flight-recorder ring, trace/EXPLAIN retrieval,
// the structured slow-query log, batch-executor integration under both
// scheduler modes (with bit-identical results registry on/off), and the
// acceptance criterion that `/queries` shows a live query's certified
// bound changing across scrapes while the query runs.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "buffer/buffer_manager.h"
#include "cpq/cpq.h"
#include "exec/batch.h"
#include "gtest/gtest.h"
#include "obs/http_exporter.h"
#include "obs/log.h"
#include "obs/query_registry.h"
#include "rtree/rtree.h"
#include "storage/latency_storage.h"
#include "storage/memory_storage.h"
#include "tests/test_util.h"

namespace kcpq {
namespace obs {
namespace {

using kcpq::testing::MakeUniformItems;
using kcpq::testing::TreeFixture;

// Extracts the raw text of `"key":` in a flat JSON object/document
// (number, quoted string, true/false/null). Empty when absent. Mirrors
// the minimal parser kcpq_top uses, which is the point: these are the
// fields external tooling depends on.
std::string RawField(const std::string& obj, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = obj.find(needle);
  if (at == std::string::npos) return "";
  size_t pos = at + needle.size();
  if (pos >= obj.size()) return "";
  if (obj[pos] == '"') {
    const size_t end = obj.find('"', pos + 1);
    if (end == std::string::npos) return "";
    return obj.substr(pos + 1, end - pos - 1);
  }
  size_t end = pos;
  while (end < obj.size() && obj[end] != ',' && obj[end] != '}' &&
         obj[end] != ']') {
    ++end;
  }
  return obj.substr(pos, end - pos);
}

QuerySummary MakeTestSummary(const char* outcome, double seconds) {
  QuerySummary s;
  s.kind = "kcp";
  s.family = "k-closest-pairs";
  s.scheduler = "blocking";
  s.outcome = outcome;
  s.seconds = seconds;
  s.k = 4;
  s.pairs = 4;
  s.node_accesses = 17;
  s.disk_accesses = 9;
  s.certified_bound = 0.25;
  s.exact = true;
  return s;
}

TEST(HttpExporterTest, HandleRoutesEveryEndpoint) {
  QueryRegistry registry;
  HttpExporter exporter;
  std::string error;
  ASSERT_TRUE(exporter.Start(0, &registry, &error)) << error;

  const HttpExporter::Response health = exporter.Handle("/healthz");
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(health.body, "ok\n");

  const HttpExporter::Response metrics = exporter.Handle("/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_EQ(metrics.content_type, "text/plain; version=0.0.4; charset=utf-8");
  EXPECT_NE(metrics.body.find("# HELP"), std::string::npos);
  EXPECT_NE(metrics.body.find("# TYPE"), std::string::npos);

  const HttpExporter::Response stats = exporter.Handle("/stats.json");
  EXPECT_EQ(stats.status, 200);
  EXPECT_EQ(stats.content_type, "application/json");
  ASSERT_FALSE(stats.body.empty());
  EXPECT_EQ(stats.body.front(), '{');

  for (const char* state : {"live", "done", "all"}) {
    const HttpExporter::Response queries =
        exporter.Handle(std::string("/queries?state=") + state);
    EXPECT_EQ(queries.status, 200) << state;
    EXPECT_EQ(queries.content_type, "application/json") << state;
    EXPECT_NE(queries.body.find("\"queries\":["), std::string::npos) << state;
  }

  EXPECT_EQ(exporter.Handle("/queries?state=bogus").status, 400);
  EXPECT_EQ(exporter.Handle("/no/such/route").status, 404);
  EXPECT_EQ(exporter.Handle("/queries/999999/trace").status, 404);
  EXPECT_EQ(exporter.Handle("/queries/999999/explain").status, 404);
  EXPECT_EQ(exporter.Handle("/queries/notanumber/trace").status, 404);

  exporter.Stop();
}

TEST(HttpExporterTest, RealSocketRoundTrip) {
  QueryRegistry registry;
  registry.Record(MakeTestSummary("ok", 0.002));

  HttpExporter exporter;
  std::string error;
  ASSERT_TRUE(exporter.Start(0, &registry, &error)) << error;
  ASSERT_NE(exporter.port(), 0);
  EXPECT_TRUE(exporter.running());

  std::string body;
  int status = 0;
  ASSERT_TRUE(HttpGet("127.0.0.1", exporter.port(), "/healthz", &body,
                      &status));
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body, "ok\n");

  ASSERT_TRUE(HttpGet("127.0.0.1", exporter.port(), "/queries?state=done",
                      &body, &status));
  EXPECT_EQ(status, 200);
  EXPECT_EQ(RawField(body, "done_total"), "1");
  EXPECT_EQ(RawField(body, "outcome"), "ok");

  ASSERT_TRUE(
      HttpGet("127.0.0.1", exporter.port(), "/unknown", &body, &status));
  EXPECT_EQ(status, 404);

  const uint16_t port = exporter.port();
  exporter.Stop();
  EXPECT_FALSE(exporter.running());
  // Stop() is idempotent and the socket is actually closed.
  exporter.Stop();
  EXPECT_FALSE(HttpGet("127.0.0.1", port, "/healthz", &body, &status));
}

TEST(QueryRegistryTest, RegisterCompleteBackfillsLiveCounters) {
  QueryRegistry registry;
  std::shared_ptr<QueryObservation> live =
      registry.Register("kcp", "k-closest-pairs", "blocking", 8);
  ASSERT_NE(live, nullptr);
  EXPECT_EQ(registry.live_count(), 1u);
  EXPECT_TRUE(std::isnan(live->bound()));

  live->node_accesses.fetch_add(42, std::memory_order_relaxed);
  live->pages_read.fetch_add(33, std::memory_order_relaxed);
  live->io_parks.fetch_add(5, std::memory_order_relaxed);
  live->NoteBound(0.5);
  EXPECT_EQ(live->bound(), 0.5);

  const std::string live_json = registry.QueriesJson("live");
  EXPECT_EQ(RawField(live_json, "state"), "live");
  EXPECT_EQ(RawField(live_json, "node_accesses"), "42");
  EXPECT_EQ(RawField(live_json, "pages_read"), "33");

  // Summary leaves pages_read, the one live-side counter, at 0: Complete()
  // must backfill it from the observation. io_parks comes from the
  // query's stats record only, so the summary's own value stands.
  QuerySummary s = MakeTestSummary("ok", 0.001);
  s.pages_read = 0;
  s.io_parks = 0;
  const uint64_t id = live->id;
  registry.Complete(live, std::move(s));
  EXPECT_EQ(registry.live_count(), 0u);
  EXPECT_EQ(registry.done_count(), 1u);

  QuerySummary got;
  ASSERT_TRUE(registry.FindSummary(id, &got));
  EXPECT_EQ(got.id, id);
  EXPECT_EQ(got.pages_read, 33u);
  EXPECT_EQ(got.io_parks, 0u);
}

TEST(QueryRegistryTest, FlightRecorderRingOverwritesOldest) {
  QueryRegistry registry(/*recorder_capacity=*/4);
  std::vector<uint64_t> ids;
  for (int i = 0; i < 6; ++i) {
    QuerySummary s = MakeTestSummary("ok", 0.001 * (i + 1));
    ids.push_back(registry.Record(std::move(s)));
  }
  EXPECT_EQ(registry.done_count(), 4u);

  QuerySummary got;
  EXPECT_FALSE(registry.FindSummary(ids[0], &got));  // overwritten
  EXPECT_FALSE(registry.FindSummary(ids[1], &got));
  for (size_t i = 2; i < ids.size(); ++i) {
    EXPECT_TRUE(registry.FindSummary(ids[i], &got)) << i;
    EXPECT_EQ(got.id, ids[i]);
  }
  // done_total counts every completion ever, not just the survivors.
  EXPECT_EQ(RawField(registry.QueriesJson("done"), "done_total"), "6");
}

TEST(QueryRegistryTest, TraceAndExplainRetrieval) {
  QueryRegistry registry;
  QuerySummary with_blobs = MakeTestSummary("ok", 0.001);
  with_blobs.trace_json = "{\"traceEvents\":[]}";
  with_blobs.explain_text = "EXPLAIN report\n";
  const uint64_t id = registry.Record(std::move(with_blobs));
  const uint64_t bare_id = registry.Record(MakeTestSummary("ok", 0.001));

  HttpExporter exporter;
  std::string error;
  ASSERT_TRUE(exporter.Start(0, &registry, &error)) << error;

  const std::string base = "/queries/" + std::to_string(id);
  const HttpExporter::Response trace = exporter.Handle(base + "/trace");
  EXPECT_EQ(trace.status, 200);
  EXPECT_EQ(trace.content_type, "application/json");
  // Byte-identical to what --trace-out writes: the blob plus one newline.
  EXPECT_EQ(trace.body, "{\"traceEvents\":[]}\n");

  const HttpExporter::Response explain = exporter.Handle(base + "/explain");
  EXPECT_EQ(explain.status, 200);
  EXPECT_EQ(explain.body, "EXPLAIN report\n");

  // Recorded without blobs: the id exists but the verb has nothing.
  const std::string bare = "/queries/" + std::to_string(bare_id);
  EXPECT_EQ(exporter.Handle(bare + "/trace").status, 404);
  EXPECT_EQ(exporter.Handle(bare + "/explain").status, 404);

  exporter.Stop();
}

TEST(SlowQueryLogTest, ThresholdFiltersAndRecordsAreOneLineJson) {
  const std::string path = ::testing::TempDir() + "/obs_http_slow.jsonl";
  std::remove(path.c_str());
  SlowQueryLog log(path, /*threshold_ms=*/5.0);
  EXPECT_EQ(log.threshold_ms(), 5.0);

  EXPECT_FALSE(log.MaybeRecord(MakeTestSummary("ok", 0.001)));  // under
  EXPECT_FALSE(log.MaybeRecord(MakeTestSummary("ok", -1.0)));   // untimed
  QuerySummary slow = MakeTestSummary("partial", 0.020);
  slow.stop_cause = "deadline";
  slow.pruning.considered = 10;
  slow.pruning.pruned_ineq1 = 4;
  slow.has_pruning = true;
  EXPECT_TRUE(log.MaybeRecord(slow));
  EXPECT_TRUE(log.MaybeRecord(MakeTestSummary("ok", 0.006)));
  EXPECT_EQ(log.records_written(), 2u);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  for (const std::string& line : lines) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    // One self-contained object per line: braces balance within the line.
    int depth = 0;
    bool in_string = false;
    for (size_t i = 0; i < line.size(); ++i) {
      const char c = line[i];
      if (in_string) {
        if (c == '\\') ++i;
        else if (c == '"') in_string = false;
      } else if (c == '"') {
        in_string = true;
      } else if (c == '{') {
        ++depth;
      } else if (c == '}') {
        --depth;
        EXPECT_GE(depth, 0);
      }
    }
    EXPECT_EQ(depth, 0);
    EXPECT_FALSE(in_string);
  }
  // The slow log nests the EXPLAIN pruning totals; the under-threshold
  // summaries never made it in.
  EXPECT_NE(lines[0].find("\"pruning\":{"), std::string::npos);
  EXPECT_EQ(RawField(lines[0], "stop_cause"), "deadline");
  EXPECT_EQ(RawField(lines[1], "outcome"), "ok");
  std::remove(path.c_str());
}

// Runs the same mixed batch with and without a registry attached, under
// both scheduler modes: results and the paper's disk-access metric must
// be bit-identical, and every query must retire into the flight recorder
// with the right kind/scheduler labels.
TEST(BatchRegistryIntegrationTest, SummariesMatchResultsBitIdentically) {
  TreeFixture fp;
  TreeFixture fq;
  KCPQ_ASSERT_OK(fp.Build(MakeUniformItems(600, 101)));
  KCPQ_ASSERT_OK(fq.Build(MakeUniformItems(600, 202)));

  std::vector<BatchQuery> queries;
  BatchQuery kcp;
  kcp.options.k = 10;
  queries.push_back(kcp);
  BatchQuery self;
  self.kind = BatchQueryKind::kSelfClosestPairs;
  self.options.k = 5;
  queries.push_back(self);
  BatchQuery hs;
  hs.kind = BatchQueryKind::kHsClosestPairs;
  hs.options.k = 10;
  queries.push_back(hs);
  BatchQuery semi;
  semi.kind = BatchQueryKind::kSemiClosestPairs;
  queries.push_back(semi);

  const char* kKinds[] = {"kcp", "self", "hs", "semi"};

  for (const SchedulerMode mode :
       {SchedulerMode::kBlocking, SchedulerMode::kResumable}) {
    const char* scheduler =
        mode == SchedulerMode::kBlocking ? "blocking" : "resumable";
    BatchOptions plain;
    plain.threads = 2;
    plain.scheduler = mode;
    const std::vector<BatchQueryResult> baseline =
        BatchKClosestPairs(fp.tree(), fq.tree(), queries, plain);

    QueryRegistry registry;
    BatchOptions observed = plain;
    observed.query_registry = &registry;
    const std::vector<BatchQueryResult> results =
        BatchKClosestPairs(fp.tree(), fq.tree(), queries, observed);

    ASSERT_EQ(results.size(), queries.size()) << scheduler;
    EXPECT_EQ(registry.live_count(), 0u) << scheduler;
    EXPECT_EQ(registry.done_count(), queries.size()) << scheduler;

    const std::string done = registry.QueriesJson("done");
    for (size_t i = 0; i < results.size(); ++i) {
      const std::string label =
          std::string(scheduler) + " query " + std::to_string(i);
      KCPQ_ASSERT_OK(results[i].status);
      ASSERT_EQ(results[i].pairs.size(), baseline[i].pairs.size()) << label;
      for (size_t r = 0; r < results[i].pairs.size(); ++r) {
        EXPECT_EQ(results[i].pairs[r].distance, baseline[i].pairs[r].distance)
            << label << " rank " << r;
      }
      EXPECT_EQ(results[i].stats.disk_accesses(),
                baseline[i].stats.disk_accesses())
          << label;
      EXPECT_NE(done.find("\"kind\":\"" + std::string(kKinds[i]) + "\""),
                std::string::npos)
          << label;
    }
    // Every retired summary carries this run's scheduler label.
    std::string::size_type pos = 0;
    size_t with_scheduler = 0;
    const std::string needle =
        "\"scheduler\":\"" + std::string(scheduler) + "\"";
    while ((pos = done.find(needle, pos)) != std::string::npos) {
      ++with_scheduler;
      pos += needle.size();
    }
    EXPECT_EQ(with_scheduler, queries.size()) << scheduler;
  }
}

// Parks are counted once, by the query's NodeReader, which bumps its stats
// record and its live observation together. Over a slow zero-buffer stack
// every read of a resumable batch parks, so for every machine kind the
// retired summary (built from the record) must equal the record, and no
// live scrape may ever run ahead of it.
TEST(BatchRegistryIntegrationTest, ParksHaveOneSource) {
  MemoryStorageManager base_p;
  MemoryStorageManager base_q;
  const LatencyProfile profile{std::chrono::microseconds(200),
                               std::chrono::microseconds(0), 0.0,
                               std::chrono::microseconds(0), 0};
  LatencyStorageManager slow_p(&base_p, profile);
  LatencyStorageManager slow_q(&base_q, profile);
  BufferManager buffer_p(&slow_p, 0);
  BufferManager buffer_q(&slow_q, 0);
  auto tree_p = RStarTree::BulkLoad(&buffer_p, MakeUniformItems(400, 41));
  auto tree_q = RStarTree::BulkLoad(&buffer_q, MakeUniformItems(400, 42));
  ASSERT_TRUE(tree_p.ok()) << tree_p.status().ToString();
  ASSERT_TRUE(tree_q.ok()) << tree_q.status().ToString();

  std::vector<BatchQuery> queries(4);
  queries[0].options.k = 10;
  queries[1].kind = BatchQueryKind::kSelfClosestPairs;
  queries[1].options.k = 5;
  queries[2].kind = BatchQueryKind::kHsClosestPairs;
  queries[2].options.k = 10;
  queries[3].kind = BatchQueryKind::kSemiClosestPairs;
  const char* kKinds[] = {"kcp", "self", "hs", "semi"};

  QueryRegistry registry;
  BatchOptions options;
  options.threads = 2;
  options.scheduler = SchedulerMode::kResumable;
  options.query_registry = &registry;

  std::vector<BatchQueryResult> results;
  std::atomic<bool> done{false};
  std::thread runner([&] {
    results = BatchKClosestPairs(*tree_p.value(), *tree_q.value(), queries,
                                 options);
    done.store(true);
  });
  // The highest io_parks any live scrape showed, per kind.
  std::map<std::string, uint64_t> live_max;
  while (!done.load()) {
    const std::string live = registry.QueriesJson("live");
    for (size_t at = live.find("{\"id\":"); at != std::string::npos;
         at = live.find("{\"id\":", at + 1)) {
      const std::string obj = live.substr(at, live.find('}', at) - at + 1);
      uint64_t& seen = live_max[RawField(obj, "kind")];
      seen = std::max<uint64_t>(seen, std::stoull(RawField(obj, "io_parks")));
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  runner.join();

  ASSERT_EQ(results.size(), queries.size());
  ASSERT_EQ(registry.done_count(), queries.size());
  for (uint64_t id = 1; id <= queries.size(); ++id) {
    QuerySummary summary;
    ASSERT_TRUE(registry.FindSummary(id, &summary)) << id;
    size_t i = 0;
    while (i < queries.size() && summary.kind != kKinds[i]) ++i;
    ASSERT_LT(i, queries.size()) << summary.kind;
    KCPQ_ASSERT_OK(results[i].status);
    const uint64_t parks = results[i].stats.io_parks;
    EXPECT_GT(parks, 0u) << summary.kind;
    EXPECT_EQ(summary.io_parks, parks) << summary.kind;
    EXPECT_LE(live_max[summary.kind], parks) << summary.kind;
  }
}

TEST(BatchRegistryIntegrationTest, RejectedQueryIsRecordedWithoutGoingLive) {
  TreeFixture fp;
  TreeFixture fq;
  KCPQ_ASSERT_OK(fp.Build(MakeUniformItems(400, 11)));
  KCPQ_ASSERT_OK(fq.Build(MakeUniformItems(400, 12)));

  std::vector<BatchQuery> queries(1);
  queries[0].options.k = 16;

  for (const SchedulerMode mode :
       {SchedulerMode::kBlocking, SchedulerMode::kResumable}) {
    QueryRegistry registry;
    BatchOptions options;
    options.threads = 1;
    options.scheduler = mode;
    options.admission.mode = AdmissionMode::kEnforce;
    options.admission.memory_pool_bytes = 1;  // below any estimate
    options.query_registry = &registry;

    const std::vector<BatchQueryResult> results =
        BatchKClosestPairs(fp.tree(), fq.tree(), queries, options);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].outcome, QueryOutcome::kRejected);

    EXPECT_EQ(registry.live_count(), 0u);
    ASSERT_EQ(registry.done_count(), 1u);
    const std::string done = registry.QueriesJson("done");
    EXPECT_EQ(RawField(done, "outcome"), "rejected");
    EXPECT_EQ(RawField(done, "node_accesses"), "0");
    EXPECT_NE(RawField(done, "admission_estimate_bytes"), "0");
  }
}

// Acceptance criterion: while a batch runs against a throttled (latency
// injected, zero-buffer) storage stack, successive `/queries` scrapes
// must show the live query's certified bound actually changing as the
// engine tightens it.
TEST(BatchRegistryIntegrationTest, LiveBoundChangesAcrossScrapes) {
  MemoryStorageManager base_p;
  MemoryStorageManager base_q;
  const LatencyProfile profile{std::chrono::microseconds(1000),
                               std::chrono::microseconds(0), 0.0,
                               std::chrono::microseconds(0), 0};
  LatencyStorageManager slow_p(&base_p, profile);
  LatencyStorageManager slow_q(&base_q, profile);
  BufferManager buffer_p(&slow_p, 0);
  BufferManager buffer_q(&slow_q, 0);
  auto tree_p = RStarTree::BulkLoad(&buffer_p, MakeUniformItems(1500, 31));
  auto tree_q = RStarTree::BulkLoad(&buffer_q, MakeUniformItems(1500, 32));
  ASSERT_TRUE(tree_p.ok()) << tree_p.status().ToString();
  ASSERT_TRUE(tree_q.ok()) << tree_q.status().ToString();
  const RStarTree& tp = *tree_p.value();
  const RStarTree& tq = *tree_q.value();

  QueryRegistry registry;
  std::vector<BatchQuery> queries(1);
  queries[0].options.k = 64;
  queries[0].options.algorithm = CpqAlgorithm::kHeap;
  BatchOptions options;
  options.threads = 1;
  options.query_registry = &registry;

  std::vector<BatchQueryResult> results;
  std::thread runner([&] {
    results = BatchKClosestPairs(tp, tq, queries, options);
  });

  // Scrape the live listing like the exporter would, collecting every
  // distinct finite bound value the query publishes on the way down.
  std::set<std::string> bounds_seen;
  size_t live_scrapes = 0;
  while (true) {
    const std::string live = registry.QueriesJson("live");
    if (RawField(live, "live") == "0" && registry.done_count() > 0) break;
    const std::string bound = RawField(live, "bound");
    if (!bound.empty() && bound != "null") {
      bounds_seen.insert(bound);
      ++live_scrapes;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  runner.join();

  ASSERT_EQ(results.size(), 1u);
  KCPQ_ASSERT_OK(results[0].status);
  ASSERT_EQ(results[0].pairs.size(), 64u);
  EXPECT_GT(live_scrapes, 0u);
  EXPECT_GE(bounds_seen.size(), 2u)
      << "certified bound never changed across " << live_scrapes
      << " live scrapes";

  // The last live bound converges on the final certificate: the K-th
  // result distance, which is also what the done summary records.
  QuerySummary done;
  const std::string done_json = registry.QueriesJson("done");
  ASSERT_TRUE(registry.FindSummary(
      static_cast<uint64_t>(std::stoull(RawField(done_json, "id"))), &done));
  EXPECT_TRUE(done.exact);
  EXPECT_EQ(done.certified_bound, results[0].pairs.back().distance);
}

}  // namespace
}  // namespace obs
}  // namespace kcpq
