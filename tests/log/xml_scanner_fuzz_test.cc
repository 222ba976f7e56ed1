// Seeded differential fuzz test of the XES and MXML readers: each
// generated document, and byte mutations and truncations of it, must give
// the chunked-buffer scanner (src/log/xml_scanner.h) the same Status
// message as the istream reference (xml_reference.h), or an identical
// EventLog: the same names in id order and the same traces. The readers
// under test read through a stream buffer that serves 1, 7 or 4096 bytes
// per read, so their refills land at every offset of a document.

#include <algorithm>
#include <cstring>
#include <functional>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "log/mxml.h"
#include "log/xes.h"
#include "log/xml_reference.h"
#include "util/random.h"

namespace ems {
namespace {

// Serves at most `step` bytes per bulk read.
class SteppedBuf : public std::streambuf {
 public:
  SteppedBuf(const std::string& data, std::streamsize step) : step_(step) {
    char* begin = const_cast<char*>(data.data());
    setg(begin, begin, begin + data.size());
  }

 protected:
  std::streamsize xsgetn(char* out, std::streamsize n) override {
    const std::streamsize k =
        std::min({n, step_, static_cast<std::streamsize>(egptr() - gptr())});
    std::memcpy(out, gptr(), static_cast<size_t>(k));
    gbump(static_cast<int>(k));
    return k;
  }

 private:
  std::streamsize step_;
};

std::string Pick(Rng& rng, const std::vector<std::string>& options) {
  return options[rng.UniformIndex(options.size())];
}

// Comments (one ending in three dashes), PIs and doctypes, with the
// shortest forms each rule accepts.
std::string Markup(Rng& rng) {
  return Pick(rng, {"<!-- note -->", "<!-- sep --->", "<!---->", "<!-->",
                    "<!-- <trace> </event> -->", "<?pi data?>", "<?x ? ?>",
                    "<?>", "<!>", "<!DOCTYPE log>", "<![CDATA[text]]>",
                    "<!-- a -- b -->"});
}

// Whitespace between tags, sometimes with markup in it.
std::string Gap(Rng& rng) {
  std::string out = Pick(rng, {"", "\n", "\n  ", " ", "\t", "\r\n    "});
  if (rng.Bernoulli(0.08)) out += Markup(rng) + Pick(rng, {"", "\n", " "});
  return out;
}

// Activity names with the five entities, unknown and bare ampersands,
// '>' and whitespace, already escaped for attribute values and text.
std::string Name(Rng& rng) {
  return Pick(rng, {"a", "b", "c", "Check Inventory", "ship &amp; bill",
                    "&lt;weird&gt;", "x > y", "say &quot;hi&quot;",
                    "it&apos;s", "&unknown; tag", "bare & amp", "&amp",
                    "a;b", "  padded  ", "tab\tname", "&#65;", "A & B; C",
                    "&amp;amp;", "Pay Invoice", "d"});
}

// One attribute, in either quote kind, with optional spaces around '='.
// A "value" attribute sometimes holds the other quote kind.
std::string Attr(Rng& rng, const std::string& key, std::string value) {
  const char quote = rng.Bernoulli(0.3) ? '\'' : '"';
  if (key == "value" && rng.Bernoulli(0.2)) {
    value += quote == '"' ? "'q'" : "\"q\"";
  }
  const std::string eq = Pick(rng, {"=", "=", "=", " = ", "\n=\t"});
  return Pick(rng, {" ", " ", "\n\t", "  "}) + key + eq + quote + value +
         quote;
}

std::string XesString(Rng& rng, const std::string& key,
                      const std::string& value) {
  std::string out = "<string" + Attr(rng, "key", key);
  out += Attr(rng, "value", value);
  if (rng.Bernoulli(0.05)) out += Attr(rng, "value", "dup");  // first wins
  if (rng.Bernoulli(0.05)) out += Attr(rng, "key", "org:resource");
  return out + (rng.Bernoulli(0.8) ? "/>" : "></string>");
}

std::string XesEvent(Rng& rng) {
  if (rng.Bernoulli(0.03)) return "<event/>";
  std::string out = "<event>" + Gap(rng);
  if (rng.Bernoulli(0.3)) {
    out += "<date" + Attr(rng, "key", "time:timestamp") +
           Attr(rng, "value", "2014-06-22T10:00:00") + "/>" + Gap(rng);
  }
  if (rng.Bernoulli(0.998)) out += XesString(rng, "concept:name", Name(rng));
  out += Gap(rng);
  if (rng.Bernoulli(0.2)) {
    out += XesString(rng, "org:resource", "bob") + Gap(rng);
  }
  return out + "</event>";
}

std::string MakeXes(Rng& rng, int traces) {
  std::string out;
  if (rng.Bernoulli(0.8)) out += "<?xml version=\"1.0\" encoding=\"UTF-8\"?>";
  out += Gap(rng) + "<log" + Attr(rng, "xes.version", "1.0") + ">" + Gap(rng);
  if (rng.Bernoulli(0.5)) {
    out += "<extension name=\"Concept\" prefix=\"concept\" "
           "uri=\"http://www.xes-standard.org/concept.xesext\"/>" +
           Gap(rng);
  }
  for (int t = 0; t < traces; ++t) {
    if (rng.Bernoulli(0.08)) {
      out += "<trace/>" + Gap(rng);
      continue;
    }
    out += "<trace>" + Gap(rng);
    if (rng.Bernoulli(0.7)) {
      out += XesString(rng, "concept:name", "case_" + std::to_string(t)) +
             Gap(rng);
    }
    const int events = rng.UniformInt(0, 8);
    for (int e = 0; e < events; ++e) out += XesEvent(rng) + Gap(rng);
    out += "</trace>" + Gap(rng);
  }
  return out + "</log>" + Gap(rng);
}

// MXML text content: names, sometimes split by markup (an entity may
// span the split).
std::string Text(Rng& rng) {
  if (rng.Bernoulli(0.05)) return "&am" + Markup(rng) + "p; split";
  std::string out = Pick(rng, {"", " ", "\n  "}) + Name(rng);
  if (rng.Bernoulli(0.05)) out += Markup(rng) + Name(rng);
  return out + Pick(rng, {"", " ", "\n"});
}

std::string MakeMxml(Rng& rng, int traces) {
  std::string out;
  if (rng.Bernoulli(0.8)) out += "<?xml version=\"1.0\"?>";
  out += Gap(rng) + "<WorkflowLog>" + Gap(rng);
  if (rng.Bernoulli(0.3)) out += "<Source program=\"x\"/>" + Gap(rng);
  out += "<Process" + Attr(rng, "id", "p") + ">" + Gap(rng);
  for (int t = 0; t < traces; ++t) {
    if (rng.Bernoulli(0.08)) {
      out += "<ProcessInstance/>" + Gap(rng);
      continue;
    }
    out += "<ProcessInstance" + Attr(rng, "id", "c" + std::to_string(t)) +
           ">" + Gap(rng);
    const int entries = rng.UniformInt(0, 8);
    for (int e = 0; e < entries; ++e) {
      out += "<AuditTrailEntry>" + Gap(rng);
      if (rng.Bernoulli(0.1)) {
        out += "<Data><Attribute name=\"n\">v</Attribute></Data>" + Gap(rng);
      }
      if (rng.Bernoulli(0.998)) {
        out += "<WorkflowModelElement>" + Text(rng) +
               "</WorkflowModelElement>" + Gap(rng);
      }
      if (rng.Bernoulli(0.7)) {
        out += "<EventType>" +
               Pick(rng, {"complete", "complete", "start", "COMPLETE",
                          " Complete\n", "assign"}) +
               "</EventType>" + Gap(rng);
      }
      if (rng.Bernoulli(0.2)) {
        out += "<Timestamp>2014-06-22T10:00:00</Timestamp>" + Gap(rng);
      }
      out += "</AuditTrailEntry>" + Gap(rng);
    }
    out += "</ProcessInstance>" + Gap(rng);
  }
  return out + "</Process>" + Gap(rng) + "</WorkflowLog>" + Gap(rng);
}

// Bytes the scanner's rules turn on, plus arbitrary ones.
char MutationByte(Rng& rng) {
  static const char kSyntax[] = "<>/!?-=\"'&; \t\nak";
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

std::string Describe(const Result<EventLog>& r) {
  if (!r.ok()) return r.status().ToString();
  return "ok: " + std::to_string(r->NumEvents()) + " names, " +
         std::to_string(r->NumTraces()) + " traces";
}

using Reader = std::function<Result<EventLog>(std::istream&)>;

struct Tally {
  int documents = 0;
  int ok = 0;
  int large = 0;
};

// Requires `read` on every step size to agree with `reference`.
void ExpectSame(const std::string& doc, const Reader& reference,
                const Reader& read, const std::string& label, Tally* tally) {
  std::istringstream ref_in(doc);
  const Result<EventLog> expected = reference(ref_in);
  ++tally->documents;
  if (expected.ok()) ++tally->ok;
  if (doc.size() > 64 * 1024) ++tally->large;
  for (std::streamsize step : {1, 7, 4096}) {
    SteppedBuf buf(doc, step);
    std::istream in(&buf);
    const Result<EventLog> got = read(in);
    const std::string where = label + " step " + std::to_string(step) +
                              " (" + std::to_string(doc.size()) + " bytes)";
    ASSERT_EQ(got.ok(), expected.ok())
        << where << ": got " << Describe(got) << ", reference "
        << Describe(expected);
    if (!expected.ok()) {
      ASSERT_EQ(got.status().code(), expected.status().code()) << where;
      ASSERT_EQ(got.status().message(), expected.status().message())
          << where;
      continue;
    }
    ASSERT_EQ(got->event_names(), expected->event_names()) << where;
    ASSERT_EQ(got->traces(), expected->traces()) << where;
  }
}

// Runs `bases` generated documents and five variants of each: two
// truncations and three mutations.
Tally RunCorpus(uint64_t seed, int bases,
                const std::function<std::string(Rng&, int)>& make,
                const Reader& reference, const Reader& read) {
  Rng rng(seed);
  Tally tally;
  for (int b = 0; b < bases; ++b) {
    // One document in twelve spans several 64 KiB chunks; one in forty
    // carries a comment longer than a chunk.
    const int traces = b % 12 == 5 ? rng.UniformInt(300, 500)
                                   : rng.UniformInt(0, 12);
    std::string doc = make(rng, traces);
    if (b % 40 == 17) {
      doc.insert(rng.UniformIndex(doc.size() + 1),
                 "<!--" + std::string(70 * 1024, 'x') + "-->");
    }
    const std::string label = "seed " + std::to_string(seed) + " doc " +
                              std::to_string(b);
    ExpectSame(doc, reference, read, label, &tally);
    for (int k = 0; k < 2; ++k) {
      ExpectSame(doc.substr(0, rng.UniformIndex(doc.size() + 1)), reference,
                 read, label + " truncation " + std::to_string(k), &tally);
    }
    for (int k = 0; k < 3; ++k) {
      ExpectSame(Mutate(rng, doc), reference, read,
                 label + " mutation " + std::to_string(k), &tally);
    }
    if (::testing::Test::HasFatalFailure()) break;
  }
  return tally;
}

void ExpectMixedOutcomes(const Tally& tally) {
  // The corpus must exercise both outcomes and the multi-chunk path.
  EXPECT_GT(tally.ok, tally.documents / 5);
  EXPECT_LT(tally.ok, tally.documents * 4 / 5);
  EXPECT_GT(tally.large, 0);
}

TEST(XmlScannerFuzzTest, XesMatchesReference) {
  const Tally tally =
      RunCorpus(17, 330, MakeXes, testing::ReferenceReadXes,
                [](std::istream& in) { return ReadXes(in); });
  ExpectMixedOutcomes(tally);
}

TEST(XmlScannerFuzzTest, MxmlMatchesReference) {
  const Tally tally =
      RunCorpus(29, 330, MakeMxml, testing::ReferenceReadMxml,
                [](std::istream& in) { return ReadMxml(in); });
  ExpectMixedOutcomes(tally);
}

// Requires `read` to agree with `reference` on `doc` served `step` bytes
// per read.
void ExpectSameAtStep(const std::string& doc, const Reader& reference,
                      const Reader& read, std::streamsize step,
                      const std::string& label) {
  std::istringstream ref_in(doc);
  const Result<EventLog> expected = reference(ref_in);
  SteppedBuf buf(doc, step);
  std::istream in(&buf);
  const Result<EventLog> got = read(in);
  ASSERT_EQ(got.ok(), expected.ok())
      << label << ": got " << Describe(got) << ", reference "
      << Describe(expected);
  if (!expected.ok()) {
    ASSERT_EQ(got.status().message(), expected.status().message()) << label;
    return;
  }
  ASSERT_EQ(got->event_names(), expected->event_names()) << label;
  ASSERT_EQ(got->traces(), expected->traces()) << label;
}

// Reads `doc` behind every amount of leading padding below the step, so
// the refill boundary falls at every byte offset of each of its tags and
// the parser restarts each tag from every split; then every truncation,
// so each check that meets the end of input runs at every offset too.
void ExpectEverySplit(const std::string& doc, const Reader& reference,
                      const Reader& read) {
  std::istringstream whole(doc);
  ASSERT_TRUE(reference(whole).ok());
  constexpr std::streamsize kStep = 64;  // longer than any tag in `doc`
  for (std::streamsize pad = 0; pad < kStep; ++pad) {
    ExpectSameAtStep(std::string(static_cast<size_t>(pad), ' ') + doc,
                     reference, read, kStep,
                     "padding " + std::to_string(pad));
    if (::testing::Test::HasFatalFailure()) return;
  }
  for (size_t cut = 0; cut < doc.size(); ++cut) {
    ExpectSameAtStep(doc.substr(0, cut), reference, read, kStep,
                     "truncation at " + std::to_string(cut));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(XmlScannerFuzzTest, EveryRefillSplitOfEachTagKind) {
  // An XES <string> in either quote kind with an entity-bearing value,
  // <event/>, and closing tags.
  const std::string xes =
      "<log xes.version=\"1.0\"><trace>\n"
      "<event><string key=\"concept:name\" value=\"ship &amp; bill\"/>"
      "</event>\n"
      "<event/>\n"
      "<event><string key='concept:name' value='it&apos;s \"q\"'/>"
      "</event>\n"
      "</trace></log>\n";
  ExpectEverySplit(xes, testing::ReferenceReadXes,
                   [](std::istream& in) { return ReadXes(in); });
  // MXML text with an entity before a closing tag.
  const std::string mxml =
      "<WorkflowLog><Process id=\"p\"><ProcessInstance id='c'>\n"
      "<AuditTrailEntry><WorkflowModelElement>say &quot;hi&quot; &amp; go"
      "</WorkflowModelElement><EventType>complete</EventType>"
      "</AuditTrailEntry>\n"
      "</ProcessInstance></Process></WorkflowLog>\n";
  ExpectEverySplit(mxml, testing::ReferenceReadMxml,
                   [](std::istream& in) { return ReadMxml(in); });
}

}  // namespace
}  // namespace ems
