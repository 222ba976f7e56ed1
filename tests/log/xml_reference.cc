#include "log/xml_reference.h"

#include <cctype>
#include <istream>
#include <map>
#include <string>
#include <vector>

#include "util/string_util.h"

namespace ems {
namespace testing {
namespace {

// Pull-style tokenizer: yields element-open (with attributes),
// element-close, and self-closing events plus the text content preceding
// each tag. Comments, processing instructions, and doctypes are skipped.
class ReferenceScanner {
 public:
  explicit ReferenceScanner(std::istream& in) : in_(in) {}

  struct Tag {
    std::string name;
    std::map<std::string, std::string> attrs;
    bool closing = false;       // </name>
    bool self_closing = false;  // <name ... />

    /// Unescaped character data between the previous tag and this one
    /// (trimmed of surrounding whitespace).
    std::string preceding_text;
  };

  /// Returns the next tag, or NotFound at end of input.
  Result<Tag> Next();

  /// Unescapes the five predefined XML entities; unknown entities are
  /// left as literal text.
  static std::string Unescape(const std::string& s);

 private:
  Status SkipUntil(const std::string& terminator);
  Result<Tag> ParseTag(std::string preceding_text);

  std::istream& in_;
};

Result<ReferenceScanner::Tag> ReferenceScanner::Next() {
  std::string text;
  while (true) {
    int c = in_.get();
    if (c == EOF) return Status::NotFound("eof");
    if (c != '<') {
      text.push_back(static_cast<char>(c));
      continue;
    }
    int peek = in_.peek();
    if (peek == '?') {  // processing instruction
      EMS_RETURN_NOT_OK(SkipUntil("?>"));
      continue;
    }
    if (peek == '!') {  // comment, doctype, or CDATA
      in_.get();
      if (in_.peek() == '-') {
        EMS_RETURN_NOT_OK(SkipUntil("-->"));
      } else {
        EMS_RETURN_NOT_OK(SkipUntil(">"));
      }
      continue;
    }
    return ParseTag(std::string(Trim(Unescape(text))));
  }
}

// Compares the last terminator.size() chars read against the terminator,
// so a '-->' inside '--->' is found.
Status ReferenceScanner::SkipUntil(const std::string& terminator) {
  std::string window;
  int c;
  while ((c = in_.get()) != EOF) {
    window.push_back(static_cast<char>(c));
    if (window.size() > terminator.size()) window.erase(0, 1);
    if (window == terminator) return Status::OK();
  }
  return Status::ParseError("unterminated markup (expected '" + terminator +
                            "')");
}

Result<ReferenceScanner::Tag> ReferenceScanner::ParseTag(
    std::string preceding_text) {
  Tag tag;
  tag.preceding_text = std::move(preceding_text);
  if (in_.peek() == '/') {
    in_.get();
    tag.closing = true;
  }
  int c;
  while ((c = in_.peek()) != EOF && !std::isspace(c) && c != '>' &&
         c != '/') {
    tag.name.push_back(static_cast<char>(in_.get()));
  }
  if (tag.name.empty()) return Status::ParseError("empty element name");
  while (true) {
    while ((c = in_.peek()) != EOF && std::isspace(c)) in_.get();
    c = in_.peek();
    if (c == EOF) return Status::ParseError("unterminated tag");
    if (c == '>') {
      in_.get();
      return tag;
    }
    if (c == '/') {
      in_.get();
      if (in_.get() != '>') return Status::ParseError("malformed '/>'");
      tag.self_closing = true;
      return tag;
    }
    std::string key;
    while ((c = in_.peek()) != EOF && c != '=' && !std::isspace(c)) {
      key.push_back(static_cast<char>(in_.get()));
    }
    while ((c = in_.peek()) != EOF && std::isspace(c)) in_.get();
    if (in_.get() != '=') {
      return Status::ParseError("attribute '" + key + "' missing '='");
    }
    while ((c = in_.peek()) != EOF && std::isspace(c)) in_.get();
    int quote = in_.get();
    if (quote != '"' && quote != '\'') {
      return Status::ParseError("attribute '" + key + "' missing quote");
    }
    std::string value;
    while ((c = in_.get()) != EOF && c != quote) {
      value.push_back(static_cast<char>(c));
    }
    if (c == EOF) return Status::ParseError("unterminated attribute value");
    tag.attrs.emplace(std::move(key), Unescape(value));
  }
}

std::string ReferenceScanner::Unescape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '&') {
      out.push_back(s[i]);
      continue;
    }
    size_t semi = s.find(';', i);
    if (semi == std::string::npos) {
      out.push_back(s[i]);
      continue;
    }
    std::string ent = s.substr(i + 1, semi - i - 1);
    if (ent == "amp") out.push_back('&');
    else if (ent == "lt") out.push_back('<');
    else if (ent == "gt") out.push_back('>');
    else if (ent == "quot") out.push_back('"');
    else if (ent == "apos") out.push_back('\'');
    else {
      out.push_back('&');
      continue;  // unknown entity: keep literal '&', do not skip
    }
    i = semi;
  }
  return out;
}

}  // namespace

Result<EventLog> ReferenceReadXes(std::istream& input) {
  ReferenceScanner scanner(input);
  EventLog log;
  bool in_log = false;
  bool in_trace = false;
  bool in_event = false;
  std::vector<std::string> current_trace;
  std::string current_event_name;
  bool saw_log = false;

  while (true) {
    auto tag_result = scanner.Next();
    if (!tag_result.ok()) {
      if (tag_result.status().IsNotFound()) break;  // clean EOF
      return tag_result.status();
    }
    const ReferenceScanner::Tag& tag = *tag_result;
    if (tag.name == "log") {
      if (tag.closing) in_log = false;
      else {
        in_log = true;
        saw_log = true;
      }
    } else if (tag.name == "trace" && in_log) {
      if (tag.closing) {
        log.AddTrace(current_trace);
        current_trace.clear();
        in_trace = false;
      } else if (tag.self_closing) {
        log.AddTrace({});
      } else {
        in_trace = true;
        current_trace.clear();
      }
    } else if (tag.name == "event" && in_trace) {
      if (tag.closing) {
        if (current_event_name.empty()) {
          return Status::ParseError("event without concept:name");
        }
        current_trace.push_back(current_event_name);
        in_event = false;
        current_event_name.clear();
      } else if (tag.self_closing) {
        // <event/> with no attributes: nothing to record.
      } else {
        in_event = true;
        current_event_name.clear();
      }
    } else if (tag.name == "string" && in_event && !tag.closing) {
      auto key_it = tag.attrs.find("key");
      auto val_it = tag.attrs.find("value");
      if (key_it != tag.attrs.end() && val_it != tag.attrs.end() &&
          key_it->second == "concept:name") {
        current_event_name = val_it->second;
      }
    }
  }
  if (!saw_log) return Status::ParseError("no <log> element found");
  return log;
}

Result<EventLog> ReferenceReadMxml(std::istream& input) {
  ReferenceScanner scanner(input);
  EventLog log;
  bool saw_workflow_log = false;
  bool in_instance = false;
  bool in_entry = false;
  bool in_element = false;
  bool in_event_type = false;
  std::vector<std::string> current_trace;
  std::string current_activity;
  std::string current_event_type;

  while (true) {
    auto tag_result = scanner.Next();
    if (!tag_result.ok()) {
      if (tag_result.status().IsNotFound()) break;
      return tag_result.status();
    }
    const ReferenceScanner::Tag& tag = *tag_result;

    // Text content arrives attached to the tag FOLLOWING it.
    if (in_element && tag.name == "WorkflowModelElement" && tag.closing) {
      current_activity = tag.preceding_text;
      in_element = false;
      continue;
    }
    if (in_event_type && tag.name == "EventType" && tag.closing) {
      current_event_type = ToLower(tag.preceding_text);
      in_event_type = false;
      continue;
    }

    if (tag.name == "WorkflowLog") {
      if (!tag.closing) saw_workflow_log = true;
    } else if (tag.name == "ProcessInstance") {
      if (tag.closing) {
        log.AddTrace(current_trace);
        current_trace.clear();
        in_instance = false;
      } else if (tag.self_closing) {
        log.AddTrace({});
      } else {
        in_instance = true;
        current_trace.clear();
      }
    } else if (tag.name == "AuditTrailEntry" && in_instance) {
      if (tag.closing) {
        if (current_activity.empty()) {
          return Status::ParseError(
              "AuditTrailEntry without WorkflowModelElement");
        }
        // Keep complete events (and entries that never specify a type).
        if (current_event_type.empty() || current_event_type == "complete") {
          current_trace.push_back(current_activity);
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

}  // namespace testing
}  // namespace ems
