// End-to-end tests of the command-line tool: generate -> build -> stats ->
// queries, driving cli::Run directly and checking its output.

#include <cstdio>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "storage/stack.h"
#include "tests/test_util.h"
#include "tools/cli.h"

namespace kcpq {
namespace {

// Runs a CLI command, capturing stdout-equivalent output into a string.
Status RunCli(const std::vector<std::string>& args, std::string* output) {
  std::FILE* f = std::tmpfile();
  if (f == nullptr) return Status::IoError("tmpfile");
  const Status status = cli::Run(args, f);
  std::fflush(f);
  std::rewind(f);
  output->clear();
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) output->append(buf, n);
  std::fclose(f);
  return status;
}

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::string base =
        std::string("/tmp/kcpq_cli_") +
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    csv_p_ = base + "_p.csv";
    csv_q_ = base + "_q.csv";
    db_p_ = base + "_p.db";
    db_q_ = base + "_q.db";
    Cleanup();
  }
  void TearDown() override { Cleanup(); }
  void Cleanup() {
    for (const std::string& path : {csv_p_, csv_q_, db_p_, db_q_}) {
      std::remove(path.c_str());
    }
  }

  void BuildBoth(const std::string& count) {
    std::string out;
    KCPQ_ASSERT_OK(
        RunCli({"generate", "uniform", count, "1", csv_p_}, &out));
    KCPQ_ASSERT_OK(
        RunCli({"generate", "sequoia", count, "2", csv_q_}, &out));
    KCPQ_ASSERT_OK(RunCli({"build", csv_p_, db_p_}, &out));
    KCPQ_ASSERT_OK(RunCli({"build", csv_q_, db_q_}, &out));
  }

  std::string csv_p_, csv_q_, db_p_, db_q_;
};

TEST_F(CliTest, HelpSucceeds) {
  std::string out;
  KCPQ_ASSERT_OK(RunCli({"help"}, &out));
  EXPECT_NE(out.find("kcp <p.db>"), std::string::npos);
}

TEST_F(CliTest, UnknownCommandFails) {
  std::string out;
  EXPECT_FALSE(RunCli({"frobnicate"}, &out).ok());
}

// A misspelt or retired flag, or a switch given a value, is an error, not
// silently the default, and it is reported before any file is opened.
TEST_F(CliTest, UnknownFlagIsRejected) {
  BuildBoth("100");
  std::string out;
  struct Case {
    std::vector<std::string> args;
    const char* message;
  };
  const Case cases[] = {
      {{"kcp", db_p_, db_q_, "2", "--bufer=64"},
       "unknown flag --bufer for kcp"},
      {{"kcp", db_p_, db_q_, "2", "--kernel=nested"},
       "unknown flag --kernel for kcp"},
      {{"join", db_p_, db_q_, "0.01", "--explain"},
       "unknown flag --explain for join"},
      {{"kcp", "/tmp/kcpq_no_such_p.db", "/tmp/kcpq_no_such_q.db", "2",
        "--algoritm=naive"},
       "unknown flag --algoritm for kcp"},
      // A switch given a value would otherwise mean on, whatever the value.
      {{"kcp", db_p_, db_q_, "2", "--self=false"},
       "flag --self takes no value"},
  };
  for (const Case& c : cases) {
    const Status status = RunCli(c.args, &out);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << c.message;
    EXPECT_EQ(status.message(), c.message);
    EXPECT_TRUE(out.empty()) << c.message;
  }
  // The usage text is the accepted list: the retired flag is not in it.
  KCPQ_ASSERT_OK(RunCli({"help"}, &out));
  EXPECT_EQ(out.find("--kernel"), std::string::npos);
  EXPECT_NE(out.find("[--bulk]"), std::string::npos);
}

// A flag given twice is an error, not silently its last value, and it is
// reported before any file is opened.
TEST_F(CliTest, RepeatedFlagIsRejected) {
  BuildBoth("100");
  std::string out;
  struct Case {
    std::vector<std::string> args;
    const char* message;
  };
  const Case cases[] = {
      {{"kcp", db_p_, db_q_, "2", "--algorithm=naive", "--algorithm=heap"},
       "flag --algorithm given twice"},
      {{"kcp", db_p_, db_q_, "2", "--buffer=64", "--buffer=64"},
       "flag --buffer given twice"},
      {{"kcp", db_p_, db_q_, "2", "--self", "--self"},
       "flag --self given twice"},
      {{"kcp", "/tmp/kcpq_no_such_p.db", "/tmp/kcpq_no_such_q.db", "2",
        "--threads=2", "--threads=4"},
       "flag --threads given twice"},
  };
  for (const Case& c : cases) {
    const Status status = RunCli(c.args, &out);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << c.message;
    EXPECT_EQ(status.message(), c.message);
    EXPECT_TRUE(out.empty()) << c.message;
  }
}

TEST_F(CliTest, GenerateBuildStats) {
  BuildBoth("1000");
  std::string out;
  KCPQ_ASSERT_OK(RunCli({"stats", db_p_}, &out));
  EXPECT_NE(out.find("1000 points"), std::string::npos);
  EXPECT_NE(out.find("valid"), std::string::npos);
  EXPECT_NE(out.find("level 0:"), std::string::npos);
}

TEST_F(CliTest, BuildReportsPageIo) {
  std::string out;
  KCPQ_ASSERT_OK(RunCli({"generate", "uniform", "2000", "1", csv_p_}, &out));
  KCPQ_ASSERT_OK(RunCli({"build", csv_p_, db_p_}, &out));
  unsigned long long points = 0, pages = 0, reads = 0, writes = 0;
  int height = 0;
  const size_t at = out.find(": ");
  ASSERT_NE(at, std::string::npos) << out;
  ASSERT_EQ(std::sscanf(out.c_str() + at,
                        ": %llu points, height %d, %llu pages, %llu page "
                        "reads, %llu page writes,",
                        &points, &height, &pages, &reads, &writes),
            5)
      << out;
  EXPECT_EQ(points, 2000u);
  // Every page is written at least once, and every insert reads its whole
  // path. Writing its whole path too would cost points x height writes at
  // least; an insert skips the nodes whose bytes it leaves alone.
  EXPECT_GE(writes, pages);
  EXPECT_GE(reads, points * static_cast<unsigned long long>(height));
  EXPECT_LT(writes, points * static_cast<unsigned long long>(height));
}

TEST_F(CliTest, KcpAllAlgorithmsAgree) {
  BuildBoth("800");
  std::string baseline;
  for (const char* algorithm : {"exh", "sim", "std", "heap"}) {
    std::string out;
    KCPQ_ASSERT_OK(RunCli({"kcp", db_p_, db_q_, "3",
                           std::string("--algorithm=") + algorithm},
                          &out));
    // Strip the trailing stats comment line (differs per algorithm).
    const std::string pairs = out.substr(0, out.find("# disk"));
    if (baseline.empty()) {
      baseline = pairs;
      EXPECT_NE(pairs.find("dist="), std::string::npos);
    } else {
      EXPECT_EQ(pairs, baseline) << algorithm;
    }
  }
}

// The tall, thin repro of cpq_test's TallThinNodesKeepTheClosestPairs
// through the CLI: `kcp ... 1` prints the same pair under every algorithm
// and metric.
TEST_F(CliTest, KcpTallThinAllAlgorithmsAgree) {
  const auto [p_items, q_items] = testing::MakeTallThinItems(3000, 2611);
  for (const auto& [path, items] :
       {std::pair{csv_p_, &p_items}, std::pair{csv_q_, &q_items}}) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    for (const auto& [pt, id] : *items) {
      std::fprintf(f, "%.17g,%.17g\n", pt.coord[0], pt.coord[1]);
    }
    std::fclose(f);
  }
  std::string out;
  KCPQ_ASSERT_OK(RunCli({"build", csv_p_, db_p_}, &out));
  KCPQ_ASSERT_OK(RunCli({"build", csv_q_, db_q_}, &out));
  for (const char* metric : {"l1", "l2", "linf"}) {
    std::string baseline;
    for (const char* algorithm : {"naive", "exh", "sim", "std", "heap"}) {
      KCPQ_ASSERT_OK(RunCli({"kcp", db_p_, db_q_, "1",
                             std::string("--algorithm=") + algorithm,
                             std::string("--metric=") + metric},
                            &out));
      const std::string pairs = out.substr(0, out.find("# disk"));
      if (baseline.empty()) {
        baseline = pairs;
        EXPECT_NE(pairs.find("dist="), std::string::npos) << metric;
      } else {
        EXPECT_EQ(pairs, baseline) << metric << " " << algorithm;
      }
    }
  }
}

TEST_F(CliTest, KcpWithFlags) {
  BuildBoth("500");
  std::string out;
  KCPQ_ASSERT_OK(RunCli({"kcp", db_p_, db_q_, "2", "--metric=l1",
                         "--buffer=64", "--fix-at-leaves"},
                        &out));
  EXPECT_NE(out.find("1: ("), std::string::npos);
  EXPECT_NE(out.find("2: ("), std::string::npos);
  EXPECT_NE(out.find("# disk accesses:"), std::string::npos);
}

TEST_F(CliTest, SelfKcp) {
  BuildBoth("300");
  std::string out;
  KCPQ_ASSERT_OK(RunCli({"kcp", db_p_, db_p_, "2", "--self"}, &out));
  EXPECT_NE(out.find("dist="), std::string::npos);
}

TEST_F(CliTest, JoinCommand) {
  BuildBoth("400");
  std::string out;
  KCPQ_ASSERT_OK(RunCli({"join", db_p_, db_q_, "0.005"}, &out));
  EXPECT_NE(out.find("# disk accesses:"), std::string::npos);
}

TEST_F(CliTest, KnnCommand) {
  BuildBoth("400");
  std::string out;
  KCPQ_ASSERT_OK(RunCli({"knn", db_p_, "0.5", "0.5", "4"}, &out));
  EXPECT_NE(out.find("4: ("), std::string::npos);
}

TEST_F(CliTest, RangeCommand) {
  BuildBoth("400");
  std::string out;
  KCPQ_ASSERT_OK(
      RunCli({"range", db_p_, "0", "0", "1", "1"}, &out));
  EXPECT_NE(out.find("# 400 points"), std::string::npos);
}

TEST_F(CliTest, RangeRejectsInvertedRect) {
  BuildBoth("100");
  std::string out;
  EXPECT_FALSE(RunCli({"range", db_p_, "1", "0", "0", "1"}, &out).ok());
  EXPECT_FALSE(RunCli({"range", db_p_, "nan", "0", "1", "1"}, &out).ok());
}

TEST_F(CliTest, BulkBuildMatchesInsertBuildResults) {
  BuildBoth("600");
  std::string insert_out;
  KCPQ_ASSERT_OK(RunCli({"kcp", db_p_, db_q_, "1"}, &insert_out));
  // Rebuild P with --bulk; the closest pair must be identical.
  std::string out;
  KCPQ_ASSERT_OK(RunCli({"build", csv_p_, db_p_, "--bulk"}, &out));
  std::string bulk_out;
  KCPQ_ASSERT_OK(RunCli({"kcp", db_p_, db_q_, "1"}, &bulk_out));
  EXPECT_EQ(insert_out.substr(0, insert_out.find('\n')),
            bulk_out.substr(0, bulk_out.find('\n')));
}

TEST_F(CliTest, SemiCommand) {
  BuildBoth("300");
  std::string out;
  KCPQ_ASSERT_OK(RunCli({"semi", db_p_, db_q_}, &out));
  // One output line per P point plus the stats comment.
  EXPECT_NE(out.find("300: ("), std::string::npos);
  EXPECT_NE(out.find("# disk accesses:"), std::string::npos);
}

TEST_F(CliTest, PlanCommand) {
  BuildBoth("500");
  std::string out;
  KCPQ_ASSERT_OK(RunCli({"plan", db_p_, db_q_, "10"}, &out));
  EXPECT_NE(out.find("plan: algorithm=HEAP"), std::string::npos);
  KCPQ_ASSERT_OK(RunCli({"plan", db_p_, db_q_, "10", "--buffer=128"}, &out));
  EXPECT_NE(out.find("plan: algorithm=STD"), std::string::npos);
  EXPECT_NE(out.find("rationale:"), std::string::npos);
}

TEST_F(CliTest, MultiwayCommand) {
  BuildBoth("200");
  std::string out;
  // Two trees, default chain graph.
  KCPQ_ASSERT_OK(RunCli({"multiway", db_p_, db_q_, "3"}, &out));
  EXPECT_NE(out.find("aggregate="), std::string::npos);
  EXPECT_NE(out.find("# disk accesses:"), std::string::npos);
  // Three trees (reuse db_p_ twice), explicit clique edges.
  KCPQ_ASSERT_OK(RunCli({"multiway", db_p_, db_q_, db_p_, "2",
                         "--edges=0-1,1-2,0-2"},
                        &out));
  EXPECT_NE(out.find("2: ("), std::string::npos);
  // Bad edge spec.
  EXPECT_FALSE(
      RunCli({"multiway", db_p_, db_q_, "2", "--edges=01"}, &out).ok());
}

TEST_F(CliTest, KcpNodeBudgetPrintsQualityReport) {
  BuildBoth("800");
  std::string out;
  KCPQ_ASSERT_OK(
      RunCli({"kcp", db_p_, db_q_, "5", "--max-node-accesses=2"}, &out));
  EXPECT_NE(out.find("# partial (node-budget):"), std::string::npos);
  EXPECT_NE(out.find("guaranteed lower bound"), std::string::npos);
}

TEST_F(CliTest, KcpGenerousDeadlineIsExact) {
  BuildBoth("400");
  std::string out;
  // 1e300 ms overflows the clock: it means no deadline, not an expired one.
  for (const char* flag : {"--deadline-ms=60000", "--deadline-ms=1e300"}) {
    KCPQ_ASSERT_OK(RunCli({"kcp", db_p_, db_q_, "3", flag}, &out));
    EXPECT_EQ(out.find("# partial"), std::string::npos) << flag;
    EXPECT_NE(out.find("3: ("), std::string::npos) << flag;
  }
}

TEST_F(CliTest, KcpRejectsNegativeDeadline) {
  BuildBoth("100");
  std::string out;
  for (const char* flag :
       {"--deadline-ms=-5", "--deadline-ms=nan", "--deadline-ms=inf"}) {
    const Status status = RunCli({"kcp", db_p_, db_q_, "1", flag}, &out);
    ASSERT_FALSE(status.ok()) << flag;
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << flag;
  }
}

TEST_F(CliTest, KcpIoRetriesAccepted) {
  BuildBoth("300");
  std::string out;
  KCPQ_ASSERT_OK(RunCli({"kcp", db_p_, db_q_, "2", "--io-retries=2"}, &out));
  EXPECT_NE(out.find("2: ("), std::string::npos);
}

TEST_F(CliTest, KcpBatchOutcomesLineAndFailFast) {
  BuildBoth("400");
  std::string out;
  KCPQ_ASSERT_OK(RunCli({"kcp", db_p_, db_q_, "2", "--threads=4",
                         "--repeat=6", "--fail-fast"},
                        &out));
  EXPECT_NE(out.find("outcomes: ok=6 partial=0 cancelled=0 failed=0"),
            std::string::npos);
  // A batch under a tiny node budget reports every query partial.
  KCPQ_ASSERT_OK(RunCli({"kcp", db_p_, db_q_, "2", "--threads=2",
                         "--repeat=4", "--max-node-accesses=2"},
                        &out));
  EXPECT_NE(out.find("outcomes: ok=0 partial=4 cancelled=0 failed=0"),
            std::string::npos);
  EXPECT_NE(out.find("# partial (node-budget):"), std::string::npos);
}

TEST_F(CliTest, KcpResumableSchedulerMatchesBlocking) {
  BuildBoth("500");
  // Single-query: the inline-driven state machine must print the exact
  // pairs and disk-access line the blocking engine prints.
  std::string blocking, resumable;
  KCPQ_ASSERT_OK(
      RunCli({"kcp", db_p_, db_q_, "3", "--buffer=0"}, &blocking));
  KCPQ_ASSERT_OK(RunCli({"kcp", db_p_, db_q_, "3", "--buffer=0",
                         "--scheduler=resumable"},
                        &resumable));
  EXPECT_EQ(blocking.substr(0, blocking.find("# disk")),
            resumable.substr(0, resumable.find("# disk")));
  // Same stats line up to (but excluding) the wall-time suffix.
  const auto disk_line = [](const std::string& s) {
    const size_t start = s.find("# disk");
    std::string line = s.substr(start, s.find('\n', start) - start);
    return line.substr(0, line.rfind(';'));
  };
  EXPECT_EQ(disk_line(blocking), disk_line(resumable));
  EXPECT_NE(resumable.find("# scheduler:"), std::string::npos);
  EXPECT_NE(resumable.find("io parks"), std::string::npos);
  // Batch: the completion-driven executor reports the same outcomes.
  std::string out;
  KCPQ_ASSERT_OK(RunCli({"kcp", db_p_, db_q_, "2", "--threads=2",
                         "--repeat=8", "--scheduler=resumable",
                         "--max-inflight=4"},
                        &out));
  EXPECT_NE(out.find("outcomes: ok=8 partial=0 cancelled=0 failed=0"),
            std::string::npos);
}

// The single resumable kcp counts parks in one place, its NodeReader: the
// slow-query record shows the count the stats line prints. A retry layer
// hides the file's page-cache fast path, so every miss parks.
TEST_F(CliTest, KcpResumableSlowLogRecordsTheStatsParks) {
  BuildBoth("500");
  const std::string log = db_p_ + ".slow.jsonl";
  std::remove(log.c_str());
  std::string out;
  KCPQ_ASSERT_OK(RunCli({"kcp", db_p_, db_q_, "5", "--buffer=0",
                         "--scheduler=resumable", "--io-retries=1",
                         "--slow-query-log=" + log, "--slow-query-ms=0"},
                        &out));
  const size_t at = out.find("# scheduler: ");
  ASSERT_NE(at, std::string::npos) << out;
  const std::string parks =
      out.substr(at + 13, out.find(' ', at + 13) - (at + 13));
  EXPECT_GT(std::stoull(parks), 0u) << out;

  std::FILE* f = std::fopen(log.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char line[8192] = {};
  ASSERT_NE(std::fgets(line, sizeof(line), f), nullptr);
  std::fclose(f);
  std::remove(log.c_str());
  EXPECT_NE(std::string(line).find("\"io_parks\":" + parks + ","),
            std::string::npos)
      << line;
}

TEST_F(CliTest, SchedulerFlagValidation) {
  BuildBoth("100");
  std::string out;
  EXPECT_FALSE(
      RunCli({"kcp", db_p_, db_q_, "1", "--scheduler=fiber"}, &out).ok());
  // --max-inflight only makes sense for the resumable executor.
  EXPECT_FALSE(
      RunCli({"kcp", db_p_, db_q_, "1", "--max-inflight=8"}, &out).ok());
  EXPECT_FALSE(RunCli({"kcp", db_p_, db_q_, "1", "--scheduler=resumable",
                       "--max-inflight=0"},
                      &out)
                   .ok());
}

TEST_F(CliTest, IoBackendAndHedgeFlagValidation) {
  BuildBoth("100");
  std::string out;
  KCPQ_EXPECT_OK(
      RunCli({"kcp", db_p_, db_q_, "1", "--io-backend=pool"}, &out));
  Status status =
      RunCli({"kcp", db_p_, db_q_, "1", "--io-backend=sync"}, &out);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "--io-backend must be pool or uring");
  KCPQ_EXPECT_OK(RunCli(
      {"kcp", db_p_, db_q_, "1", "--replicas=2", "--hedge=static"}, &out));
  status = RunCli(
      {"kcp", db_p_, db_q_, "1", "--replicas=2", "--hedge=adaptive"}, &out);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "--hedge must be off or static");
  for (const std::string& db : {db_p_, db_q_}) {
    std::remove(ReplicaFilePath(db, 1).c_str());
  }
}

TEST_F(CliTest, JoinAndSemiHonorNodeBudget) {
  BuildBoth("500");
  std::string out;
  KCPQ_ASSERT_OK(RunCli({"join", db_p_, db_q_, "0.01",
                         "--max-node-accesses=2"},
                        &out));
  EXPECT_NE(out.find("# partial (node-budget):"), std::string::npos);
  KCPQ_ASSERT_OK(
      RunCli({"semi", db_p_, db_q_, "--max-node-accesses=2"}, &out));
  EXPECT_NE(out.find("# partial (node-budget):"), std::string::npos);
}

TEST_F(CliTest, BuildRejectsMissingCsv) {
  std::string out;
  EXPECT_FALSE(RunCli({"build", "/tmp/kcpq_no_such.csv", db_p_}, &out).ok());
}

// A finite CSV whose points span more than DBL_MAX once wrote a .db that
// every query rejected as Corruption; build now refuses it, with or
// without --bulk, before creating the file.
TEST_F(CliTest, BuildRejectsCoordinatesBeyondHalfDblMax) {
  std::string csv;
  for (int i = 0; i < 40; ++i) {
    csv += std::to_string(i * 0.01) + ",0.5\n";
  }
  csv += "-1e308,0.5\n1e308,0.5\n";
  {
    std::FILE* f = std::fopen(csv_p_.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(csv.c_str(), f);
    std::fclose(f);
  }
  std::string out;
  for (const bool bulk : {false, true}) {
    std::vector<std::string> args = {"build", csv_p_, db_p_};
    if (bulk) args.push_back("--bulk");
    const Status status = RunCli(args, &out);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << (bulk ? "--bulk: " : "") << status.ToString();
    // Nothing was written: no half-built .db is left to read as Corruption.
    std::FILE* db = std::fopen(db_p_.c_str(), "rb");
    EXPECT_EQ(db, nullptr);
    if (db != nullptr) std::fclose(db);
  }
}

TEST_F(CliTest, KcpRejectsBadAlgorithm) {
  BuildBoth("100");
  std::string out;
  const Status status =
      RunCli({"kcp", db_p_, db_q_, "1", "--algorithm=quantum"}, &out);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST_F(CliTest, CustomPageSizeBuild) {
  BuildBoth("500");
  std::string out;
  KCPQ_ASSERT_OK(RunCli({"build", csv_p_, db_p_, "--page-size=4096"}, &out));
  KCPQ_ASSERT_OK(RunCli({"stats", db_p_}, &out));
  EXPECT_NE(out.find("M=85"), std::string::npos);  // 4 KiB pages
}

// Reads a whole file into a string; empty string doubles as "missing".
std::string Slurp(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return "";
  std::string text;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  return text;
}

TEST_F(CliTest, KcpExplainReport) {
  BuildBoth("600");
  std::string out;
  KCPQ_ASSERT_OK(
      RunCli({"kcp", db_p_, db_q_, "10", "--algorithm=heap", "--explain"},
             &out));
  EXPECT_NE(out.find("EXPLAIN ANALYZE"), std::string::npos);
  EXPECT_NE(out.find("Per-level pruning"), std::string::npos);
  EXPECT_NE(out.find("total"), std::string::npos);
  EXPECT_NE(out.find("Bound progression"), std::string::npos);
}

TEST_F(CliTest, KcpTraceOutWritesChromeJson) {
  BuildBoth("500");
  const std::string trace_path = db_p_ + ".trace.json";
  std::string out;
  KCPQ_ASSERT_OK(
      RunCli({"kcp", db_p_, db_q_, "5", "--trace-out=" + trace_path}, &out));
  EXPECT_NE(out.find("# trace:"), std::string::npos);
  const std::string trace = Slurp(trace_path);
  ASSERT_FALSE(trace.empty());
  EXPECT_EQ(trace[0], '{');
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"query\""), std::string::npos);
  std::remove(trace_path.c_str());
}

TEST_F(CliTest, KcpStatsJsonWritesRegistryDelta) {
  BuildBoth("500");
  const std::string stats_path = db_p_ + ".stats.json";
  std::string out;
  KCPQ_ASSERT_OK(
      RunCli({"kcp", db_p_, db_q_, "5", "--stats-json=" + stats_path}, &out));
  const std::string stats = Slurp(stats_path);
  ASSERT_FALSE(stats.empty());
  EXPECT_EQ(stats[0], '{');
  EXPECT_NE(stats.find("kcpq_cpq_queries_total"), std::string::npos);
  std::remove(stats_path.c_str());
}

TEST_F(CliTest, DiagnosticsFlagValidation) {
  BuildBoth("100");
  std::string out;
  // --explain is single-query-only: incompatible with worker threads.
  Status status =
      RunCli({"kcp", db_p_, db_q_, "1", "--explain", "--threads=2"}, &out);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  // Path-valued flags require a value.
  status = RunCli({"kcp", db_p_, db_q_, "1", "--trace-out"}, &out);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  status = RunCli({"kcp", db_p_, db_q_, "1", "--stats-json"}, &out);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST_F(CliTest, AdmissionFeedbackFlagValidation) {
  BuildBoth("100");
  std::string out;
  // Out of range: alpha must lie in [0, 1].
  Status status = RunCli({"kcp", db_p_, db_q_, "1", "--admission=advisory",
                          "--admission-feedback=2"},
                         &out);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  // Feedback without an admission mode has nothing to update.
  status = RunCli({"kcp", db_p_, db_q_, "1", "--admission-feedback=0.5"}, &out);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST_F(CliTest, AdmissionFeedbackBatchRuns) {
  BuildBoth("400");
  std::string out;
  KCPQ_ASSERT_OK(RunCli({"kcp", db_p_, db_q_, "4", "--admission=advisory",
                         "--admission-feedback=0.5", "--repeat=2"},
                        &out));
  EXPECT_NE(out.find("outcomes:"), std::string::npos);
}

}  // namespace
}  // namespace kcpq
