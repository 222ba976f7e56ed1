#include "log/event_log.h"

#include <gtest/gtest.h>

namespace ems {
namespace {

TEST(EventLogTest, InterningAssignsDenseIds) {
  EventLog log;
  EXPECT_EQ(log.AddEvent("a"), 0);
  EXPECT_EQ(log.AddEvent("b"), 1);
  EXPECT_EQ(log.AddEvent("a"), 0);  // idempotent
  EXPECT_EQ(log.NumEvents(), 2u);
  EXPECT_EQ(log.EventName(0), "a");
  EXPECT_EQ(log.EventName(1), "b");
}

TEST(EventLogTest, FindEvent) {
  EventLog log;
  log.AddEvent("x");
  EXPECT_EQ(log.FindEvent("x"), 0);
  EXPECT_EQ(log.FindEvent("missing"), kInvalidEvent);
}

TEST(EventLogTest, AppendTracesExtendsInPlace) {
  EventLog log;
  log.AddTrace({"a", "b"});
  log.AddTrace({"b", "c"});

  AppendDelta delta = log.AppendTraces({{"c", "a"}, {"a", "d"}});
  EXPECT_EQ(delta.first_new_trace, 2u);
  EXPECT_EQ(delta.first_new_event, 3u);
  EXPECT_EQ(delta.appended_traces, 2u);
  EXPECT_EQ(delta.new_events, 1u);  // only "d" is new

  // Strict extension: old ids, names, and traces are untouched; new
  // vocabulary interns at the end.
  EXPECT_EQ(log.NumTraces(), 4u);
  EXPECT_EQ(log.trace(0), (Trace{0, 1}));
  EXPECT_EQ(log.trace(2), (Trace{2, 0}));
  EXPECT_EQ(log.trace(3), (Trace{0, 3}));
  EXPECT_EQ(log.FindEvent("d"), 3);

  AppendDelta empty = log.AppendTraces({});
  EXPECT_EQ(empty.appended_traces, 0u);
  EXPECT_EQ(empty.new_events, 0u);
  EXPECT_EQ(log.NumTraces(), 4u);
}

TEST(EventLogTest, AddTraceInternsNames) {
  EventLog log;
  log.AddTrace({"a", "b", "a"});
  ASSERT_EQ(log.NumTraces(), 1u);
  EXPECT_EQ(log.trace(0), (Trace{0, 1, 0}));
  EXPECT_EQ(log.NumEvents(), 2u);
}

TEST(EventLogTest, OpenTraceInternsNewNamesInEventOrderOnAppend) {
  EventLog log;
  log.AddTrace({"a"});
  OpenTrace open;
  open.Add(log, "n");
  open.Add(log, "a");
  open.AddNew("m");
  open.Add(log, "n");  // still new: nothing is interned before AppendTo
  open.AddKnown(0);
  EXPECT_EQ(log.NumEvents(), 1u);
  open.AppendTo(&log);
  EXPECT_EQ(log.event_names(), (std::vector<std::string>{"a", "n", "m"}));
  ASSERT_EQ(log.NumTraces(), 2u);
  EXPECT_EQ(log.trace(1), (Trace{1, 0, 2, 1, 0}));

  // A cleared trace interns none of its names.
  open.Clear();
  open.Add(log, "z");
  open.Clear();
  open.Add(log, "m");
  open.AppendTo(&log);
  EXPECT_EQ(log.NumEvents(), 3u);
  EXPECT_EQ(log.trace(2), (Trace{2}));
}

TEST(EventLogTest, MultisetSemantics) {
  EventLog log;
  log.AddTrace({"a", "b"});
  log.AddTrace({"a", "b"});  // duplicate trace kept
  EXPECT_EQ(log.NumTraces(), 2u);
  EXPECT_EQ(log.TotalOccurrences(), 4u);
}

TEST(EventLogTest, AddTraceIds) {
  EventLog log;
  log.AddEvent("a");
  log.AddEvent("b");
  log.AddTraceIds({1, 0});
  EXPECT_EQ(log.trace(0), (Trace{1, 0}));
}

TEST(EventLogTest, EmptyTraceAllowed) {
  EventLog log;
  log.AddTrace({});
  EXPECT_EQ(log.NumTraces(), 1u);
  EXPECT_TRUE(log.trace(0).empty());
}

TEST(EventLogTest, RenameEvent) {
  EventLog log;
  log.AddTrace({"a", "b"});
  ASSERT_TRUE(log.RenameEvent(0, "alpha").ok());
  EXPECT_EQ(log.EventName(0), "alpha");
  EXPECT_EQ(log.FindEvent("alpha"), 0);
  EXPECT_EQ(log.FindEvent("a"), kInvalidEvent);
}

TEST(EventLogTest, RenameEventToSameNameIsOk) {
  EventLog log;
  log.AddTrace({"a"});
  EXPECT_TRUE(log.RenameEvent(0, "a").ok());
}

TEST(EventLogTest, RenameEventRejectsCollision) {
  EventLog log;
  log.AddTrace({"a", "b"});
  EXPECT_TRUE(log.RenameEvent(0, "b").IsInvalidArgument());
}

TEST(EventLogTest, RenameEventRejectsBadId) {
  EventLog log;
  EXPECT_TRUE(log.RenameEvent(0, "x").IsOutOfRange());
  EXPECT_TRUE(log.RenameEvent(-1, "x").IsOutOfRange());
}

TEST(EventLogTest, TransformTracesReInternsVocabulary) {
  EventLog log;
  log.AddTrace({"a", "b", "c"});
  log.AddTrace({"b", "c"});
  // Drop event "a" (id 0) from all traces.
  std::vector<Trace> transformed;
  for (const Trace& t : log.traces()) {
    Trace copy;
    for (EventId e : t) {
      if (e != 0) copy.push_back(e);
    }
    transformed.push_back(copy);
  }
  std::vector<EventId> id_map;
  EventLog out = log.TransformTraces(transformed, &id_map);
  EXPECT_EQ(out.NumEvents(), 2u);
  EXPECT_EQ(out.FindEvent("a"), kInvalidEvent);
  EXPECT_NE(out.FindEvent("b"), kInvalidEvent);
  EXPECT_EQ(id_map[0], kInvalidEvent);  // "a" dropped
  EXPECT_NE(id_map[1], kInvalidEvent);
  EXPECT_EQ(out.EventName(id_map[1]), "b");
}

TEST(EventLogTest, TransformTracesPreservesOrder) {
  EventLog log;
  log.AddTrace({"x", "y"});
  EventLog out = log.TransformTraces(log.traces(), nullptr);
  EXPECT_EQ(out.NumTraces(), 1u);
  EXPECT_EQ(out.EventName(out.trace(0)[0]), "x");
  EXPECT_EQ(out.EventName(out.trace(0)[1]), "y");
}

}  // namespace
}  // namespace ems
