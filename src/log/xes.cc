#include "log/xes.h"

#include <fstream>
#include <string>
#include <string_view>

#include "log/xml_scanner.h"
#include "util/string_util.h"

namespace ems {

Result<EventLog> ReadXes(std::istream& input) {
  XmlScanner scanner(input);
  EventLog log;
  bool in_log = false;
  bool in_trace = false;
  bool in_event = false;
  OpenTrace current_trace;
  // The current event's last concept:name: an id the log holds, or
  // kInvalidEvent and its text (empty for none).
  EventId event_id = kInvalidEvent;
  std::string event_text;
  bool saw_log = false;

  while (true) {
    Status st = scanner.Next();
    if (st.IsNotFound()) break;  // clean EOF
    EMS_RETURN_NOT_OK(st);
    const XmlScanner::Tag& tag = scanner.tag();
    switch (tag.name.size()) {
      case 3:
        if (tag.name == "log") {
          if (tag.closing) in_log = false;
          else {
            in_log = true;
            saw_log = true;
          }
        }
        break;
      case 5:
        if (tag.name == "trace" && in_log) {
          if (tag.closing) {
            current_trace.AppendTo(&log);
            current_trace.Clear();
            in_trace = false;
          } else if (tag.self_closing) {
            log.AddTraceIds({});
          } else {
            in_trace = true;
            current_trace.Clear();
          }
        } else if (tag.name == "event" && in_trace) {
          if (tag.closing) {
            if (event_id != kInvalidEvent) {
              current_trace.AddKnown(event_id);
            } else if (event_text.empty()) {
              return Status::ParseError("event without concept:name");
            } else {
              current_trace.AddNew(event_text);
            }
            in_event = false;
            event_id = kInvalidEvent;
            event_text.clear();
          } else if (tag.self_closing) {
            // <event/> with no attributes: nothing to record.
          } else {
            in_event = true;
            event_id = kInvalidEvent;
            event_text.clear();
          }
        }
        break;
      case 6:
        if (tag.name == "string" && in_event && !tag.closing) {
          // Unescaping cannot turn any other key into "concept:name",
          // which has no character an entity stands for: compare the raw
          // key. A value with no entity is looked up where it lies.
          const std::string_view* key = tag.Find("key");
          const std::string_view* value = tag.Find("value");
          if (key != nullptr && value != nullptr && *key == "concept:name") {
            if (value->find('&') == std::string_view::npos) {
              event_id = log.FindEvent(*value);
              if (event_id == kInvalidEvent) event_text.assign(*value);
            } else {
              XmlScanner::Unescape(*value, &event_text);
              event_id = log.FindEvent(event_text);
            }
          }
        }
        break;
      default:
        break;
    }
  }
  if (!saw_log) return Status::ParseError("no <log> element found");
  return log;
}

Result<EventLog> ReadXesFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open '" + path + "' for reading");
  return ReadXes(in);
}

Status WriteXes(const EventLog& log, std::ostream& output) {
  output << "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n";
  output << "<log xes.version=\"1.0\" xmlns=\"http://www.xes-standard.org/\">\n";
  output << "  <extension name=\"Concept\" prefix=\"concept\" "
            "uri=\"http://www.xes-standard.org/concept.xesext\"/>\n";
  for (size_t i = 0; i < log.NumTraces(); ++i) {
    output << "  <trace>\n";
    output << "    <string key=\"concept:name\" value=\"case_" << i
           << "\"/>\n";
    for (EventId v : log.trace(i)) {
      output << "    <event>\n";
      output << "      <string key=\"concept:name\" value=\""
             << XmlEscape(log.EventName(v)) << "\"/>\n";
      output << "    </event>\n";
    }
    output << "  </trace>\n";
  }
  output << "</log>\n";
  if (!output) return Status::IOError("write failed");
  return Status::OK();
}

Status WriteXesFile(const EventLog& log, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open '" + path + "' for writing");
  return WriteXes(log, out);
}

}  // namespace ems
