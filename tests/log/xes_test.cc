#include "log/xes.h"

#include <filesystem>
#include <sstream>

#include <gtest/gtest.h>

namespace ems {
namespace {

TEST(XesTest, ParsesMinimalDocument) {
  std::istringstream in(
      "<?xml version=\"1.0\"?>\n"
      "<log>\n"
      "  <trace>\n"
      "    <event><string key=\"concept:name\" value=\"a\"/></event>\n"
      "    <event><string key=\"concept:name\" value=\"b\"/></event>\n"
      "  </trace>\n"
      "</log>\n");
  Result<EventLog> parsed = ReadXes(in);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->NumTraces(), 1u);
  EXPECT_EQ(parsed->EventName(parsed->trace(0)[0]), "a");
  EXPECT_EQ(parsed->EventName(parsed->trace(0)[1]), "b");
}

TEST(XesTest, IgnoresOtherAttributesAndComments) {
  std::istringstream in(
      "<log xes.version=\"1.0\">\n"
      "<!-- a comment <trace> inside -->\n"
      "<trace>\n"
      "  <string key=\"concept:name\" value=\"case1\"/>\n"
      "  <event>\n"
      "    <date key=\"time:timestamp\" value=\"2014-06-22\"/>\n"
      "    <string key=\"org:resource\" value=\"bob\"/>\n"
      "    <string key=\"concept:name\" value=\"ship\"/>\n"
      "  </event>\n"
      "</trace>\n"
      "</log>\n");
  Result<EventLog> parsed = ReadXes(in);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->NumTraces(), 1u);
  EXPECT_EQ(parsed->EventName(parsed->trace(0)[0]), "ship");
}

TEST(XesTest, CommentEndingInThreeDashes) {
  // The comment ends at the "-->" inside "--->"; the trace after it is
  // read, and the later comment does not swallow it.
  std::istringstream in(
      "<log>\n"
      "<trace><event><string key=\"concept:name\" value=\"a\"/></event>"
      "</trace>\n"
      "<!-- sep --->\n"
      "<trace><event><string key=\"concept:name\" value=\"b\"/></event>"
      "</trace>\n"
      "<!-- later -->\n"
      "<trace><event><string key=\"concept:name\" value=\"c\"/></event>"
      "</trace>\n"
      "</log>\n");
  Result<EventLog> parsed = ReadXes(in);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->NumTraces(), 3u);
  EXPECT_EQ(parsed->EventName(parsed->trace(1)[0]), "b");
}

TEST(XesTest, UnescapesEntities) {
  std::istringstream in(
      "<log><trace><event>"
      "<string key=\"concept:name\" value=\"a &amp; b &lt;x&gt;\"/>"
      "</event></trace></log>");
  Result<EventLog> parsed = ReadXes(in);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->EventName(0), "a & b <x>");
}

TEST(XesTest, EmptyTrace) {
  std::istringstream in("<log><trace/></log>");
  Result<EventLog> parsed = ReadXes(in);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->NumTraces(), 1u);
  EXPECT_TRUE(parsed->trace(0).empty());
}

TEST(XesTest, MissingLogElementIsParseError) {
  std::istringstream in("<trace></trace>");
  EXPECT_TRUE(ReadXes(in).status().IsParseError());
}

TEST(XesTest, EventWithoutNameIsParseError) {
  std::istringstream in("<log><trace><event></event></trace></log>");
  EXPECT_TRUE(ReadXes(in).status().IsParseError());
}

TEST(XesTest, RoundTrip) {
  EventLog log;
  log.AddTrace({"Check Inventory", "Ship & Bill", "<weird>"});
  log.AddTrace({"Check Inventory"});
  std::ostringstream out;
  ASSERT_TRUE(WriteXes(log, out).ok());
  std::istringstream in(out.str());
  Result<EventLog> parsed = ReadXes(in);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->NumTraces(), 2u);
  EXPECT_EQ(parsed->EventName(parsed->trace(0)[1]), "Ship & Bill");
  EXPECT_EQ(parsed->EventName(parsed->trace(0)[2]), "<weird>");
}

TEST(XesTest, FileRoundTrip) {
  EventLog log;
  log.AddTrace({"a", "b"});
  std::string path = ::testing::TempDir() + "/ems_xes_test.xes";
  ASSERT_TRUE(WriteXesFile(log, path).ok());
  Result<EventLog> parsed = ReadXesFile(path);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->NumTraces(), 1u);
}

TEST(XesTest, MissingFileIsIOError) {
  EXPECT_TRUE(ReadXesFile("/no/such/file.xes").status().IsIOError());
}

TEST(XesTest, UnreadableFileIsIOError) {
  // A directory opens as a stream whose reads fail.
  const std::string dir = ::testing::TempDir() + "/ems_xes_test_dir.xes";
  std::filesystem::create_directories(dir);
  Result<EventLog> parsed = ReadXesFile(dir);
  EXPECT_TRUE(parsed.status().IsIOError()) << parsed.status().ToString();
}

}  // namespace
}  // namespace ems
