#include "log/mxml.h"

#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace ems {
namespace {

TEST(MxmlTest, ParsesMinimalDocument) {
  std::istringstream in(
      "<WorkflowLog>\n"
      " <Process id=\"p\">\n"
      "  <ProcessInstance id=\"c1\">\n"
      "   <AuditTrailEntry>\n"
      "    <WorkflowModelElement>pay</WorkflowModelElement>\n"
      "    <EventType>complete</EventType>\n"
      "   </AuditTrailEntry>\n"
      "   <AuditTrailEntry>\n"
      "    <WorkflowModelElement>ship</WorkflowModelElement>\n"
      "    <EventType>complete</EventType>\n"
      "   </AuditTrailEntry>\n"
      "  </ProcessInstance>\n"
      " </Process>\n"
      "</WorkflowLog>\n");
  Result<EventLog> parsed = ReadMxml(in);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->NumTraces(), 1u);
  EXPECT_EQ(parsed->EventName(parsed->trace(0)[0]), "pay");
  EXPECT_EQ(parsed->EventName(parsed->trace(0)[1]), "ship");
}

TEST(MxmlTest, SkipsStartEvents) {
  std::istringstream in(
      "<WorkflowLog><Process><ProcessInstance>"
      "<AuditTrailEntry>"
      "<WorkflowModelElement>pay</WorkflowModelElement>"
      "<EventType>start</EventType>"
      "</AuditTrailEntry>"
      "<AuditTrailEntry>"
      "<WorkflowModelElement>pay</WorkflowModelElement>"
      "<EventType>complete</EventType>"
      "</AuditTrailEntry>"
      "</ProcessInstance></Process></WorkflowLog>");
  Result<EventLog> parsed = ReadMxml(in);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->NumTraces(), 1u);
  EXPECT_EQ(parsed->trace(0).size(), 1u);  // start/complete pair -> one event
}

TEST(MxmlTest, EntryWithoutEventTypeIsKept) {
  std::istringstream in(
      "<WorkflowLog><Process><ProcessInstance>"
      "<AuditTrailEntry>"
      "<WorkflowModelElement>check</WorkflowModelElement>"
      "</AuditTrailEntry>"
      "</ProcessInstance></Process></WorkflowLog>");
  Result<EventLog> parsed = ReadMxml(in);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->trace(0).size(), 1u);
}

TEST(MxmlTest, CommentEndingInThreeDashes) {
  // The comment ends at the "-->" inside "--->"; the instance after it
  // is read, and the later comment does not swallow it.
  std::istringstream in(
      "<WorkflowLog><Process>\n"
      "<ProcessInstance><AuditTrailEntry>"
      "<WorkflowModelElement>a</WorkflowModelElement>"
      "</AuditTrailEntry></ProcessInstance>\n"
      "<!-- sep --->\n"
      "<ProcessInstance><AuditTrailEntry>"
      "<WorkflowModelElement>b</WorkflowModelElement>"
      "</AuditTrailEntry></ProcessInstance>\n"
      "<!-- later -->\n"
      "<ProcessInstance><AuditTrailEntry>"
      "<WorkflowModelElement>c</WorkflowModelElement>"
      "</AuditTrailEntry></ProcessInstance>\n"
      "</Process></WorkflowLog>\n");
  Result<EventLog> parsed = ReadMxml(in);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->NumTraces(), 3u);
  EXPECT_EQ(parsed->EventName(parsed->trace(1)[0]), "b");
}

TEST(MxmlTest, MissingWorkflowLogIsParseError) {
  std::istringstream in("<Process></Process>");
  EXPECT_TRUE(ReadMxml(in).status().IsParseError());
}

TEST(MxmlTest, EntryWithoutElementIsParseError) {
  std::istringstream in(
      "<WorkflowLog><Process><ProcessInstance>"
      "<AuditTrailEntry><EventType>complete</EventType></AuditTrailEntry>"
      "</ProcessInstance></Process></WorkflowLog>");
  EXPECT_TRUE(ReadMxml(in).status().IsParseError());
}

TEST(MxmlTest, TextEntitiesUnescaped) {
  std::istringstream in(
      "<WorkflowLog><Process><ProcessInstance>"
      "<AuditTrailEntry>"
      "<WorkflowModelElement>ship &amp; bill</WorkflowModelElement>"
      "</AuditTrailEntry>"
      "</ProcessInstance></Process></WorkflowLog>");
  Result<EventLog> parsed = ReadMxml(in);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->EventName(0), "ship & bill");
}

TEST(MxmlTest, RoundTrip) {
  EventLog log;
  log.AddTrace({"Check Inventory", "Ship & Bill"});
  log.AddTrace({"Check Inventory"});
  std::ostringstream out;
  ASSERT_TRUE(WriteMxml(log, out).ok());
  std::istringstream in(out.str());
  Result<EventLog> parsed = ReadMxml(in);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->NumTraces(), 2u);
  EXPECT_EQ(parsed->EventName(parsed->trace(0)[1]), "Ship & Bill");
}

TEST(MxmlTest, FileRoundTripAndMissingFile) {
  EventLog log;
  log.AddTrace({"a"});
  std::string path = ::testing::TempDir() + "/ems_mxml_test.mxml";
  ASSERT_TRUE(WriteMxmlFile(log, path).ok());
  Result<EventLog> parsed = ReadMxmlFile(path);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->NumTraces(), 1u);
  EXPECT_TRUE(ReadMxmlFile("/no/such.mxml").status().IsIOError());
}

TEST(MxmlTest, UnreadableFileIsIOError) {
  // A directory opens as a stream whose reads fail.
  const std::string dir = ::testing::TempDir() + "/ems_mxml_test_dir.mxml";
  std::filesystem::create_directories(dir);
  Result<EventLog> parsed = ReadMxmlFile(dir);
  EXPECT_TRUE(parsed.status().IsIOError()) << parsed.status().ToString();
}

std::string Entry(const std::string& name) {
  return "<AuditTrailEntry><WorkflowModelElement>" + name +
         "</WorkflowModelElement></AuditTrailEntry>";
}

TEST(MxmlTest, VocabularyFollowsClosedInstancesInEventOrder) {
  // A new name repeated inside one instance gets one id, a known name
  // keeps its id, and an instance still open at end of input interns
  // none of its names.
  std::istringstream in("<WorkflowLog><Process><ProcessInstance>" +
                        Entry("a") + "</ProcessInstance><ProcessInstance>" +
                        Entry("n") + Entry("a") + Entry("n") +
                        "</ProcessInstance><ProcessInstance>" + Entry("b"));
  Result<EventLog> parsed = ReadMxml(in);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->event_names(), (std::vector<std::string>{"a", "n"}));
  ASSERT_EQ(parsed->NumTraces(), 2u);
  EXPECT_EQ(parsed->trace(1), (Trace{1, 0, 1}));
}

TEST(MxmlTest, EmptyProcessInstance) {
  std::istringstream in(
      "<WorkflowLog><Process><ProcessInstance/></Process></WorkflowLog>");
  Result<EventLog> parsed = ReadMxml(in);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->NumTraces(), 1u);
  EXPECT_TRUE(parsed->trace(0).empty());
}

}  // namespace
}  // namespace ems
