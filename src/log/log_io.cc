#include "log/log_io.h"

#include <fstream>
#include <sstream>
#include <unordered_map>

#include "util/string_util.h"

namespace ems {

Result<EventLog> ReadTraceFormat(std::istream& input, char delim) {
  EventLog log;
  std::string line;
  size_t line_no = 0;
  while (std::getline(input, line)) {
    ++line_no;
    std::string_view trimmed = Trim(line);
    if (trimmed.empty() || trimmed.front() == '#') continue;
    std::vector<std::string> fields = Split(trimmed, delim);
    std::vector<std::string> names;
    names.reserve(fields.size());
    for (auto& f : fields) {
      std::string_view name = Trim(f);
      if (name.empty()) {
        return Status::ParseError("empty event name at line " +
                                  std::to_string(line_no));
      }
      names.emplace_back(name);
    }
    log.AddTrace(names);
  }
  // getline stops on a read error (say, a directory opened as a file)
  // exactly as on end of input; only badbit tells them apart.
  if (input.bad()) return Status::IOError("read failed");
  return log;
}

Result<EventLog> ReadTraceFile(const std::string& path, char delim) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open '" + path + "' for reading");
  return ReadTraceFormat(in, delim);
}

Status WriteTraceFormat(const EventLog& log, std::ostream& output,
                        char delim) {
  for (const Trace& t : log.traces()) {
    for (size_t i = 0; i < t.size(); ++i) {
      if (i > 0) output << delim;
      output << log.EventName(t[i]);
    }
    output << '\n';
  }
  if (!output) return Status::IOError("write failed");
  return Status::OK();
}

Status WriteTraceFile(const EventLog& log, const std::string& path,
                      char delim) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open '" + path + "' for writing");
  return WriteTraceFormat(log, out, delim);
}

namespace {

// Minimal CSV field splitter handling double-quoted fields with "" escapes.
Result<std::vector<std::string>> SplitCsvRow(const std::string& line,
                                             size_t line_no) {
  std::vector<std::string> fields;
  std::string cur;
  bool in_quotes = false;
  for (size_t i = 0; i < line.size(); ++i) {
    char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cur.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        cur.push_back(c);
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == ',') {
      fields.push_back(std::move(cur));
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (in_quotes) {
    return Status::ParseError("unterminated quote at line " +
                              std::to_string(line_no));
  }
  fields.push_back(std::move(cur));
  return fields;
}

bool IsCaseHeader(const std::string& h) {
  std::string l = ToLower(Trim(h));
  return l == "case" || l == "case_id" || l == "caseid" || l == "case id" ||
         l == "trace";
}

bool IsActivityHeader(const std::string& h) {
  std::string l = ToLower(Trim(h));
  return l == "activity" || l == "event" || l == "concept:name" ||
         l == "task" || l == "name";
}

}  // namespace

Result<EventLog> ReadCsv(std::istream& input) {
  std::string line;
  if (!std::getline(input, line)) {
    if (input.bad()) return Status::IOError("read failed");
    return Status::ParseError("empty CSV input");
  }
  EMS_ASSIGN_OR_RETURN(std::vector<std::string> header, SplitCsvRow(line, 1));
  int case_col = -1;
  int act_col = -1;
  for (size_t i = 0; i < header.size(); ++i) {
    if (case_col < 0 && IsCaseHeader(header[i])) case_col = static_cast<int>(i);
    if (act_col < 0 && IsActivityHeader(header[i])) act_col = static_cast<int>(i);
  }
  if (case_col < 0 || act_col < 0) {
    return Status::ParseError(
        "CSV header must contain case and activity columns");
  }

  // Group rows by case id, preserving first-appearance order of cases and
  // row order within each case.
  std::vector<std::string> case_order;
  std::unordered_map<std::string, std::vector<std::string>> by_case;
  size_t line_no = 1;
  while (std::getline(input, line)) {
    ++line_no;
    if (Trim(line).empty()) continue;
    EMS_ASSIGN_OR_RETURN(std::vector<std::string> row,
                         SplitCsvRow(line, line_no));
    size_t needed = static_cast<size_t>(std::max(case_col, act_col)) + 1;
    if (row.size() < needed) {
      return Status::ParseError("too few columns at line " +
                                std::to_string(line_no));
    }
    std::string case_id(Trim(row[static_cast<size_t>(case_col)]));
    std::string activity(Trim(row[static_cast<size_t>(act_col)]));
    if (activity.empty()) {
      return Status::ParseError("empty activity at line " +
                                std::to_string(line_no));
    }
    auto [it, inserted] = by_case.try_emplace(case_id);
    if (inserted) case_order.push_back(case_id);
    it->second.push_back(std::move(activity));
  }
  if (input.bad()) return Status::IOError("read failed");

  EventLog log;
  for (const std::string& cid : case_order) log.AddTrace(by_case.at(cid));
  return log;
}

Result<EventLog> ReadCsvFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open '" + path + "' for reading");
  return ReadCsv(in);
}

namespace {

std::string CsvQuote(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += "\"\"";
    else out.push_back(c);
  }
  out.push_back('"');
  return out;
}

}  // namespace

Status WriteCsv(const EventLog& log, std::ostream& output) {
  output << "case,activity\n";
  for (size_t i = 0; i < log.NumTraces(); ++i) {
    for (EventId v : log.trace(i)) {
      output << 'c' << i << ',' << CsvQuote(log.EventName(v)) << '\n';
    }
  }
  if (!output) return Status::IOError("write failed");
  return Status::OK();
}

}  // namespace ems
