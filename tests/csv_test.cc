// Tests for the CSV point reader/writer.

#include <cstdio>

#include "gtest/gtest.h"
#include "tests/test_util.h"
#include "tools/csv.h"

namespace kcpq {
namespace {

TEST(CsvTest, ParsesBasicLines) {
  auto items = ParseCsvPoints("0.5,0.25\n1.5,2.5\n");
  ASSERT_TRUE(items.ok()) << items.status().ToString();
  ASSERT_EQ(items.value().size(), 2u);
  EXPECT_DOUBLE_EQ(items.value()[0].first.x(), 0.5);
  EXPECT_DOUBLE_EQ(items.value()[0].first.y(), 0.25);
  EXPECT_EQ(items.value()[0].second, 0u);  // sequential ids
  EXPECT_EQ(items.value()[1].second, 1u);
}

TEST(CsvTest, ParsesExplicitIds) {
  auto items = ParseCsvPoints("1,2,42\n3,4\n5,6,7\n");
  ASSERT_TRUE(items.ok());
  EXPECT_EQ(items.value()[0].second, 42u);
  EXPECT_EQ(items.value()[1].second, 43u);  // continues after explicit id
  EXPECT_EQ(items.value()[2].second, 7u);
}

TEST(CsvTest, SkipsCommentsAndBlanks) {
  auto items = ParseCsvPoints("# header\n\n  \n1,2\n# mid comment\n3,4\n");
  ASSERT_TRUE(items.ok());
  EXPECT_EQ(items.value().size(), 2u);
}

TEST(CsvTest, HandlesCrLfAndMissingFinalNewline) {
  auto items = ParseCsvPoints("1,2\r\n3,4");
  ASSERT_TRUE(items.ok());
  ASSERT_EQ(items.value().size(), 2u);
  EXPECT_DOUBLE_EQ(items.value()[1].first.y(), 4.0);
}

TEST(CsvTest, NegativeAndScientificNumbers) {
  auto items = ParseCsvPoints("-1.5e-3,2E4\n");
  ASSERT_TRUE(items.ok());
  EXPECT_DOUBLE_EQ(items.value()[0].first.x(), -0.0015);
  EXPECT_DOUBLE_EQ(items.value()[0].first.y(), 20000.0);
}

TEST(CsvTest, RejectsMalformedLines) {
  EXPECT_FALSE(ParseCsvPoints("1;2\n").ok());
  EXPECT_FALSE(ParseCsvPoints("1\n").ok());
  EXPECT_FALSE(ParseCsvPoints("abc,2\n").ok());
  EXPECT_FALSE(ParseCsvPoints("1,2 trailing\n").ok());
  EXPECT_FALSE(ParseCsvPoints("1,2,-5\n").ok());
  EXPECT_FALSE(ParseCsvPoints("nan,0.5\n").ok());
  EXPECT_FALSE(ParseCsvPoints("0.5,inf\n").ok());
}

TEST(CsvTest, FormatParseRoundTripIsLossless) {
  std::vector<std::pair<Point, uint64_t>> items;
  Xoshiro256pp rng(1);
  for (int i = 0; i < 100; ++i) {
    items.emplace_back(Point{{rng.NextDouble() * 1e6 - 5e5,
                              rng.NextDouble() * 1e-6}},
                       rng.Next());
  }
  auto parsed = ParseCsvPoints(FormatCsvPoints(items));
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed.value().size(), items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(parsed.value()[i].first, items[i].first) << i;  // bit-exact
    EXPECT_EQ(parsed.value()[i].second, items[i].second);
  }
}

TEST(CsvTest, FileRoundTrip) {
  const std::string path = "/tmp/kcpq_csv_test.csv";
  std::vector<std::pair<Point, uint64_t>> items = {
      {Point{{0.1, 0.2}}, 5}, {Point{{0.3, 0.4}}, 9}};
  KCPQ_ASSERT_OK(WriteCsvPointFile(path, items));
  auto read = ReadCsvPointFile(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value().size(), 2u);
  EXPECT_EQ(read.value()[1].second, 9u);
  std::remove(path.c_str());
}

TEST(CsvTest, MissingFileIsIoError) {
  auto read = ReadCsvPointFile("/tmp/kcpq_definitely_missing.csv");
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace kcpq
