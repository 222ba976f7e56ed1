#include "log/log_io.h"

#include <filesystem>
#include <sstream>

#include <gtest/gtest.h>

namespace ems {
namespace {

TEST(TraceFormatTest, RoundTrip) {
  EventLog log;
  log.AddTrace({"a", "b", "c"});
  log.AddTrace({"b", "c"});
  std::ostringstream out;
  ASSERT_TRUE(WriteTraceFormat(log, out).ok());
  std::istringstream in(out.str());
  Result<EventLog> parsed = ReadTraceFormat(in);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->NumTraces(), 2u);
  EXPECT_EQ(parsed->EventName(parsed->trace(0)[0]), "a");
  EXPECT_EQ(parsed->trace(1).size(), 2u);
}

TEST(TraceFormatTest, SkipsCommentsAndBlankLines) {
  std::istringstream in("# header\n\na;b\n  \nb;c\n");
  Result<EventLog> parsed = ReadTraceFormat(in);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->NumTraces(), 2u);
}

TEST(TraceFormatTest, TrimsWhitespaceAroundNames) {
  std::istringstream in(" a ; b \n");
  Result<EventLog> parsed = ReadTraceFormat(in);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->EventName(parsed->trace(0)[0]), "a");
  EXPECT_EQ(parsed->EventName(parsed->trace(0)[1]), "b");
}

TEST(TraceFormatTest, RejectsEmptyEventName) {
  std::istringstream in("a;;b\n");
  Result<EventLog> parsed = ReadTraceFormat(in);
  EXPECT_TRUE(parsed.status().IsParseError());
}

TEST(TraceFormatTest, CustomDelimiter) {
  std::istringstream in("a|b|c\n");
  Result<EventLog> parsed = ReadTraceFormat(in, '|');
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->trace(0).size(), 3u);
}

TEST(TraceFileTest, MissingFileIsIOError) {
  Result<EventLog> r = ReadTraceFile("/nonexistent/path/log.txt");
  EXPECT_TRUE(r.status().IsIOError());
}

TEST(TraceFileTest, UnreadableFileIsIOError) {
  // A directory opens as a stream whose reads fail.
  const std::string dir = ::testing::TempDir() + "/ems_trace_test_dir.txt";
  std::filesystem::create_directories(dir);
  Result<EventLog> r = ReadTraceFile(dir);
  EXPECT_TRUE(r.status().IsIOError()) << r.status().ToString();
}

TEST(TraceFileTest, WriteAndReadBack) {
  EventLog log;
  log.AddTrace({"x", "y"});
  std::string path = ::testing::TempDir() + "/ems_log_io_test.txt";
  ASSERT_TRUE(WriteTraceFile(log, path).ok());
  Result<EventLog> parsed = ReadTraceFile(path);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->NumTraces(), 1u);
}

TEST(CsvTest, ParsesGroupedByCase) {
  std::istringstream in(
      "case,activity\n"
      "c1,a\n"
      "c2,a\n"
      "c1,b\n"
      "c2,c\n");
  Result<EventLog> parsed = ReadCsv(in);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->NumTraces(), 2u);
  // Case c1: a b; case c2: a c (rows interleaved but order kept per case).
  EXPECT_EQ(parsed->EventName(parsed->trace(0)[1]), "b");
  EXPECT_EQ(parsed->EventName(parsed->trace(1)[1]), "c");
}

TEST(CsvTest, RecognizesHeaderAliases) {
  std::istringstream in("Case ID,concept:name\n1,a\n");
  Result<EventLog> aliased = ReadCsv(in);
  ASSERT_TRUE(aliased.ok());
  EXPECT_EQ(aliased->NumTraces(), 1u);

  std::istringstream in2("case_id,Event\n1,a\n");
  Result<EventLog> good = ReadCsv(in2);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good->NumTraces(), 1u);
}

TEST(CsvTest, UnknownHeadersAreParseError) {
  std::istringstream in("id,thing\n1,a\n");
  EXPECT_TRUE(ReadCsv(in).status().IsParseError());
}

TEST(CsvTest, QuotedFieldsWithCommasAndEscapes) {
  std::istringstream in(
      "case,activity\n"
      "c1,\"check, inventory\"\n"
      "c1,\"say \"\"hi\"\"\"\n");
  Result<EventLog> parsed = ReadCsv(in);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->EventName(parsed->trace(0)[0]), "check, inventory");
  EXPECT_EQ(parsed->EventName(parsed->trace(0)[1]), "say \"hi\"");
}

TEST(CsvTest, RejectsRowWithTooFewColumns) {
  std::istringstream in("case,activity\nc1\n");
  EXPECT_TRUE(ReadCsv(in).status().IsParseError());
}

TEST(CsvTest, RejectsEmptyInput) {
  std::istringstream in("");
  EXPECT_TRUE(ReadCsv(in).status().IsParseError());
}

TEST(CsvTest, UnreadableFileIsIOError) {
  const std::string dir = ::testing::TempDir() + "/ems_csv_test_dir.csv";
  std::filesystem::create_directories(dir);
  Result<EventLog> r = ReadCsvFile(dir);
  EXPECT_TRUE(r.status().IsIOError()) << r.status().ToString();
}

TEST(CsvTest, RejectsUnterminatedQuote) {
  std::istringstream in("case,activity\nc1,\"oops\n");
  EXPECT_TRUE(ReadCsv(in).status().IsParseError());
}

TEST(CsvTest, RoundTripThroughWriter) {
  EventLog log;
  log.AddTrace({"a,x", "b"});
  log.AddTrace({"c"});
  std::ostringstream out;
  ASSERT_TRUE(WriteCsv(log, out).ok());
  std::istringstream in(out.str());
  Result<EventLog> parsed = ReadCsv(in);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->NumTraces(), 2u);
  EXPECT_EQ(parsed->EventName(parsed->trace(0)[0]), "a,x");
}

}  // namespace
}  // namespace ems
