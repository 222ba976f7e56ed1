#include "log/mxml.h"

#include <fstream>

#include "log/xml_scanner.h"
#include "util/string_util.h"

namespace ems {

Result<EventLog> ReadMxml(std::istream& input) {
  XmlScanner scanner(input);
  EventLog log;
  bool saw_workflow_log = false;
  bool in_instance = false;
  bool in_entry = false;
  bool in_element = false;
  bool in_event_type = false;
  PendingTrace current_trace;
  std::string current_activity;
  std::string current_event_type;

  while (true) {
    Status st = scanner.Next();
    if (st.IsNotFound()) break;
    EMS_RETURN_NOT_OK(st);
    const XmlScanner::Tag& tag = scanner.tag();

    // Text content arrives attached to the tag FOLLOWING it.
    if (in_element && tag.name == "WorkflowModelElement" && tag.closing) {
      scanner.PrecedingText(&current_activity);
      in_element = false;
      continue;
    }
    if (in_event_type && tag.name == "EventType" && tag.closing) {
      scanner.PrecedingText(&current_event_type);
      current_event_type = ToLower(current_event_type);
      in_event_type = false;
      continue;
    }

    if (tag.name == "WorkflowLog") {
      if (!tag.closing) saw_workflow_log = true;
    } else if (tag.name == "ProcessInstance") {
      if (tag.closing) {
        current_trace.AppendTo(&log);
        current_trace.Clear();
        in_instance = false;
      } else if (tag.self_closing) {
        log.AddTraceIds({});
      } else {
        in_instance = true;
        current_trace.Clear();
      }
    } else if (tag.name == "AuditTrailEntry" && in_instance) {
      if (tag.closing) {
        if (current_activity.empty()) {
          return Status::ParseError(
              "AuditTrailEntry without WorkflowModelElement");
        }
        // Keep complete events (and entries that never specify a type).
        if (current_event_type.empty() || current_event_type == "complete") {
          current_trace.Add(current_activity);
        }
        current_activity.clear();
        current_event_type.clear();
        in_entry = false;
      } else if (!tag.self_closing) {
        in_entry = true;
        current_activity.clear();
        current_event_type.clear();
      }
    } else if (tag.name == "WorkflowModelElement" && in_entry &&
               !tag.closing && !tag.self_closing) {
      in_element = true;
    } else if (tag.name == "EventType" && in_entry && !tag.closing &&
               !tag.self_closing) {
      in_event_type = true;
    }
  }
  if (!saw_workflow_log) {
    return Status::ParseError("no <WorkflowLog> element found");
  }
  return log;
}

Result<EventLog> ReadMxmlFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open '" + path + "' for reading");
  return ReadMxml(in);
}

Status WriteMxml(const EventLog& log, std::ostream& output) {
  output << "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n";
  output << "<WorkflowLog>\n";
  output << "  <Process id=\"process0\">\n";
  for (size_t i = 0; i < log.NumTraces(); ++i) {
    output << "    <ProcessInstance id=\"case_" << i << "\">\n";
    for (EventId v : log.trace(i)) {
      output << "      <AuditTrailEntry>\n";
      output << "        <WorkflowModelElement>"
             << XmlEscape(log.EventName(v)) << "</WorkflowModelElement>\n";
      output << "        <EventType>complete</EventType>\n";
      output << "      </AuditTrailEntry>\n";
    }
    output << "    </ProcessInstance>\n";
  }
  output << "  </Process>\n";
  output << "</WorkflowLog>\n";
  if (!output) return Status::IOError("write failed");
  return Status::OK();
}

Status WriteMxmlFile(const EventLog& log, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open '" + path + "' for writing");
  return WriteMxml(log, out);
}

}  // namespace ems
