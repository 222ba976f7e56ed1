// Seeded fuzz test of the trace-format and CSV readers (src/log/log_io.h)
// and of what they feed: every generated document, and truncations and
// byte mutations of it, must give a Status or an EventLog — never a
// crash or a hang (the sanitizer job runs this binary too) — and every
// log that parses must give the by-id TraceCounter the counts of the
// trace-scan reference (trace_count_reference.h), and DependencyGraph::
// Build the snapshot bytes of the reference graph.
//
// Documents mix comment, blank and CRLF lines, empty fields (`;;`, an
// empty CSV case column), quoted CSV fields holding "" and commas,
// one-event traces, `a;a` self-successions, duplicated events and `+` in
// names. A fixed set of documents adds pathologies the Event Data
// Quality survey (PAPERS.md) catalogues for real logs: missing case ids
// and activities, duplicated and interleaved events, equal or unsorted
// timestamps in an ignored column, and mixed-granularity labels.

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/dependency_graph.h"
#include "log/log_io.h"
#include "log/trace_count_reference.h"
#include "log/trace_counter.h"
#include "store/snapshot.h"
#include "util/random.h"

namespace ems {
namespace {

std::string Pick(Rng& rng, const std::vector<std::string>& options) {
  return options[rng.UniformIndex(options.size())];
}

// Activity names: plain, padded, composite-looking, mixed granularity
// and case, and one that needs CSV quoting.
std::string Name(Rng& rng) {
  return Pick(rng, {"a", "b", "c", "d", "a+b", "Check", "Check Inventory",
                    "check inventory", "  padded  ", "x+y+z", "Pay Invoice",
                    "tab\tname", "e", "f", "ship, bill", "say \"hi\""});
}

std::string LineEnd(Rng& rng) { return rng.Bernoulli(0.2) ? "\r\n" : "\n"; }

// One trace: one event, a run with self-successions and duplicates, or
// occasionally an empty field.
std::vector<std::string> TraceNames(Rng& rng) {
  const int len = rng.Bernoulli(0.15) ? 1 : rng.UniformInt(1, 12);
  std::vector<std::string> names;
  for (int i = 0; i < len; ++i) {
    if (!names.empty() && rng.Bernoulli(0.2)) {
      names.push_back(names.back());  // a;a
    } else {
      names.push_back(Name(rng));
    }
  }
  return names;
}

std::string MakeTraceDocument(Rng& rng, int traces, char delim) {
  std::string out;
  for (int t = 0; t < traces; ++t) {
    if (rng.Bernoulli(0.1)) out += Pick(rng, {"# comment", "#", "  # indented"}) + LineEnd(rng);
    if (rng.Bernoulli(0.1)) out += Pick(rng, {"", "   ", "\t"}) + LineEnd(rng);
    const std::vector<std::string> names = TraceNames(rng);
    std::string line;
    for (size_t i = 0; i < names.size(); ++i) {
      if (i > 0) line += delim;
      line += names[i];
      if (rng.Bernoulli(0.01)) line += delim;  // an empty field: `;;`
    }
    if (rng.Bernoulli(0.2)) {
      line = Pick(rng, {" ", "\t"}) + line + Pick(rng, {" ", "  "});
    }
    out += line + LineEnd(rng);
  }
  if (rng.Bernoulli(0.3) && !out.empty()) out.pop_back();  // no final newline
  return out;
}

std::string CsvField(const std::string& raw, Rng& rng) {
  const bool must_quote = raw.find_first_of(",\"") != std::string::npos;
  if (!must_quote && !rng.Bernoulli(0.1)) return raw;
  std::string out = "\"";
  for (char c : raw) {
    if (c == '"') out += "\"\"";
    else out.push_back(c);
  }
  return out + "\"";
}

std::string MakeCsvDocument(Rng& rng, int traces) {
  // Header variants: both column orders, aliases, extra columns.
  const int layout = rng.UniformInt(0, 3);
  std::string out;
  switch (layout) {
    case 0: out = "case,activity"; break;
    case 1: out = "Activity,Case ID,timestamp"; break;
    case 2: out = "trace,resource,concept:name"; break;
    default: out = "case_id,event,timestamp,resource"; break;
  }
  out += LineEnd(rng);
  std::vector<std::pair<std::string, std::vector<std::string>>> cases;
  for (int t = 0; t < traces; ++t) {
    // A missing case id groups its rows under the empty case.
    std::string id = rng.Bernoulli(0.05) ? "" : "c" + std::to_string(t);
    if (rng.Bernoulli(0.1)) id = "\"case, " + std::to_string(t) + "\"";
    cases.emplace_back(id, TraceNames(rng));
  }
  // Rows of different cases interleave; equal timestamps are common.
  std::vector<size_t> next(cases.size(), 0);
  size_t remaining = 0;
  for (const auto& c : cases) remaining += c.second.size();
  int clock = 0;
  while (remaining > 0) {
    size_t k = rng.UniformIndex(cases.size());
    while (next[k] == cases[k].second.size()) k = (k + 1) % cases.size();
    const std::string& id = cases[k].first;
    const std::string activity = CsvField(cases[k].second[next[k]++], rng);
    --remaining;
    const std::string stamp =
        "2024-01-01T00:00:" + std::to_string(rng.Bernoulli(0.5) ? clock
                                                               : clock++);
    switch (layout) {
      case 0: out += id + "," + activity; break;
      case 1: out += activity + "," + id + "," + stamp; break;
      case 2: out += id + ",r1," + activity; break;
      default: out += id + "," + activity + "," + stamp + ","; break;
    }
    out += LineEnd(rng);
    if (rng.Bernoulli(0.05)) out += LineEnd(rng);  // blank line
  }
  return out;
}

// Pathologies from the Event Data Quality survey, as fixed documents.
const std::vector<std::string>& TracePathologies() {
  static const std::vector<std::string> docs = {
      "",                                  // no traces at all
      "# only a comment\n\n   \n",         // no traces, only noise
      "a\n",                               // one one-event trace
      "a;a;a;a\n",                         // self-successions
      "a;b;a;b\na;b;a;b\n",                // duplicated traces
      "a;;b\n",                            // missing activity
      ";\n",                               // an empty trace, spelled out
      "Check;Check Inventory;check inventory+validate\n",  // granularity
      "a+b;a;b\nb;a+b\n",                  // '+' names beside their parts
      "a;b\r\nb;a\r\n",                    // CRLF
  };
  return docs;
}

const std::vector<std::string>& CsvPathologies() {
  static const std::vector<std::string> docs = {
      "",                                             // empty input
      "case,activity\n",                              // header only
      "case,activity\n,a\n,b\n",                      // missing case ids
      "case,activity\nc1,\n",                         // missing activity
      "case,activity\nc1,a\nc1,a\nc1,a\n",            // duplicated events
      "case,activity,timestamp\nc1,a,1\nc2,a,1\nc1,b,1\nc2,b,0\n",
      "case,activity,timestamp\nc1,b,5\nc1,a,3\n",    // unsorted times
      "case,activity\nc1,\"Check, then ship\"\nc1,\"say \"\"hi\"\"\"\n",
      "case,activity\nc1,\"open\n",                   // unterminated quote
      "activity\na\n",                                // no case column
      "case,activity\nc1\n",                          // too few columns
      "case,activity\r\nc1,Check\r\nc1,Check Inventory\r\n",
  };
  return docs;
}

char MutationByte(Rng& rng) {
  static const char kSyntax[] = ";,\"#\n\r \t+a";
  if (rng.Bernoulli(0.2)) return static_cast<char>(rng.UniformInt(0, 255));
  return kSyntax[rng.UniformIndex(sizeof(kSyntax) - 1)];
}

std::string Mutate(Rng& rng, std::string doc) {
  const int edits = rng.UniformInt(1, 4);
  for (int i = 0; i < edits && !doc.empty(); ++i) {
    const size_t at = rng.UniformIndex(doc.size());
    switch (rng.UniformInt(0, 2)) {
      case 0: doc[at] = MutationByte(rng); break;
      case 1: doc.insert(doc.begin() + static_cast<long>(at),
                         MutationByte(rng)); break;
      default: doc.erase(at, 1); break;
    }
  }
  return doc;
}

struct Tally {
  int documents = 0;
  int ok = 0;
};

// Parses `doc`; a parsed log must count and build like the reference.
template <typename Read>
void Check(const std::string& doc, const Read& read, const std::string& label,
           Tally* tally) {
  std::istringstream in(doc);
  const Result<EventLog> log = read(in);
  ++tally->documents;
  if (!log.ok()) return;
  ++tally->ok;
  const testing::ReferenceTraceCounts want = testing::CountByTraceScan(*log);
  TraceCounter counter;
  counter.Add(*log);
  ASSERT_EQ(testing::CountsDifference(counter, want), "") << label;
  for (double min_edge_frequency : {0.0, 0.25}) {
    DependencyGraphOptions options;
    options.min_edge_frequency = min_edge_frequency;
    ASSERT_EQ(
        store::EncodeDependencyGraph(DependencyGraph::Build(*log, options)),
        store::EncodeDependencyGraph(
            testing::BuildByTraceScan(*log, options)))
        << label << " at min_edge_frequency " << min_edge_frequency;
  }
}

// Checks each fixed document, then `bases` generated ones with two
// truncations and three mutations of each.
template <typename Make, typename Read>
Tally RunCorpus(uint64_t seed, int bases, const std::vector<std::string>& fixed,
                const Make& make, const Read& read) {
  Rng rng(seed);
  Tally tally;
  std::vector<std::string> docs = fixed;
  for (int b = 0; b < bases; ++b) docs.push_back(make(rng, rng.UniformInt(0, 30)));
  for (size_t d = 0; d < docs.size(); ++d) {
    const std::string& doc = docs[d];
    const std::string label = "seed " + std::to_string(seed) + " doc " +
                              std::to_string(d);
    Check(doc, read, label, &tally);
    for (int k = 0; k < 2; ++k) {
      Check(doc.substr(0, rng.UniformIndex(doc.size() + 1)), read,
            label + " truncation " + std::to_string(k), &tally);
    }
    for (int k = 0; k < 3; ++k) {
      Check(Mutate(rng, doc), read, label + " mutation " + std::to_string(k),
            &tally);
    }
    if (::testing::Test::HasFatalFailure()) break;
  }
  return tally;
}

void ExpectMixedOutcomes(const Tally& tally) {
  // The corpus must exercise both outcomes.
  EXPECT_GT(tally.ok, tally.documents / 5);
  EXPECT_LT(tally.ok, tally.documents * 19 / 20);
}

TEST(TextReaderFuzzTest, TraceFormatCountsLikeReference) {
  const Tally tally = RunCorpus(
      41, 400, TracePathologies(),
      [](Rng& rng, int traces) { return MakeTraceDocument(rng, traces, ';'); },
      [](std::istream& in) { return ReadTraceFormat(in); });
  ExpectMixedOutcomes(tally);
}

TEST(TextReaderFuzzTest, TraceFormatWithCommaDelimiter) {
  const Tally tally = RunCorpus(
      43, 100, {},
      [](Rng& rng, int traces) { return MakeTraceDocument(rng, traces, ','); },
      [](std::istream& in) { return ReadTraceFormat(in, ','); });
  ExpectMixedOutcomes(tally);
}

TEST(TextReaderFuzzTest, CsvCountsLikeReference) {
  const Tally tally = RunCorpus(
      47, 400, CsvPathologies(),
      [](Rng& rng, int traces) { return MakeCsvDocument(rng, traces); },
      [](std::istream& in) { return ReadCsv(in); });
  ExpectMixedOutcomes(tally);
}

}  // namespace
}  // namespace ems
