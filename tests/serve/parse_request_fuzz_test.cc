// Seeded byte-mutation fuzzing of serve::ParseRequest, the one parser of
// every request line the service reads. Valid lines of every kind —
// match jobs with every option key, appends with inline traces or a
// delta file, top-k queries by members or by corpus, admin commands —
// are generated with string, numeric and absent ids, then truncated and
// mutated byte by byte. For every input ParseRequest must return (no
// crash, no hang; the ASan/UBSan job runs this too), and:
//   - a JSON object with a string "id" keeps that id;
//   - the kind follows the dispatch documented in service.h: "cmd":
//     "append" is an append, any other non-empty string "cmd" an admin
//     command, else a "query" key a top-k query, else a match job;
//   - a line that is not JSON is a match job failing with ParseError, and
//     JSON that is not an object is no valid request.
// The oracle reads the line with the same JSON parser: what is checked
// here is the dispatch and the id rule, not the parser.
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "serve/service.h"
#include "util/json_parser.h"
#include "util/json_writer.h"
#include "util/random.h"

namespace ems {
namespace serve {
namespace {

using Kind = Request::Kind;

// One generated line and what a valid parse of it must hold.
struct Seed {
  std::string line;
  Kind kind = Kind::kMatch;
  std::string cmd;
  bool composites = false;
  size_t traces = 0;   // kAppend: inline traces
  size_t members = 0;  // kTopK: explicit members
};

template <typename T>
const T& Pick(Rng* rng, const std::vector<T>& items) {
  return items[rng->UniformIndex(items.size())];
}

void WriteId(Rng* rng, JsonWriter* w) {
  switch (rng->UniformInt(0, 3)) {
    case 0:
      return;  // no id
    case 1:
      w->Key("id");
      w->String(Pick<std::string>(rng, {"j1", "", "req-7",
                                         "with \"quotes\" and \\",
                                         "\xc3\xa9t\xc3\xa9", "tab\there",
                                         "\x01"}));
      return;
    case 2:
      w->Key("id");
      w->Number(Pick<double>(rng, {7, -3, 2.75, 1e300, 0, 4294967301.0}));
      return;
    default:
      w->Key("id");
      w->String(rng->HexString(1 + rng->UniformIndex(12)));
  }
}

// A random subset of the option keys every request kind shares, each
// with a valid value, in random order. Appends skip "delta" (their
// "delta" names the batch file).
bool WriteOptions(Rng* rng, JsonWriter* w, bool append) {
  bool composites = false;
  std::vector<int> keys;
  for (int k = 0; k < 16; ++k) {
    if (rng->Bernoulli(0.5)) keys.push_back(k);
  }
  rng->Shuffle(&keys);
  for (int k : keys) {
    switch (k) {
      case 0:
        w->Key("labels");
        w->String(Pick<std::string>(
            rng, {"none", "qgram", "levenshtein", "jaro", "tokens"}));
        break;
      case 1:
        w->Key("alpha");
        w->Number(rng->UniformDouble());
        break;
      case 2:
        w->Key("c");
        w->Number(0.05 + 0.9 * rng->UniformDouble());
        break;
      case 3:
        w->Key("engine");
        w->String(Pick<std::string>(rng, {"exact", "estimated"}));
        break;
      case 4:
        w->Key("iterations");
        w->Int(rng->UniformInt(0, 12));
        break;
      case 5:
        composites = rng->Bernoulli(0.5);
        w->Key("composites");
        w->Bool(composites);
        break;
      case 6:
        if (append) break;
        w->Key("delta");
        w->Number(0.1 * rng->UniformDouble());
        break;
      case 7:
        w->Key("selection");
        w->String(Pick<std::string>(rng, {"hungarian", "greedy", "mutual"}));
        break;
      case 8:
        w->Key("min_similarity");
        w->Number(rng->UniformDouble());
        break;
      case 9:
        w->Key("min_edge_frequency");
        w->Number(0.5 * rng->UniformDouble());
        break;
      case 10:
        w->Key("prob");
        w->Bool(rng->Bernoulli(0.5));
        break;
      case 11:
        w->Key("prob_temp");
        w->Number(0.01 + rng->UniformDouble());
        break;
      case 12:
        w->Key("prob_tol");
        w->Number(1e-6 + rng->UniformDouble() * 1e-3);
        break;
      case 13:
        w->Key("prob_iters");
        w->Int(rng->UniformInt(1, 80));
        break;
      case 14:
        w->Key("prob_min_confidence");
        w->Number(rng->UniformDouble());
        break;
      default:
        w->Key("format");
        w->String(
            Pick<std::string>(rng, {"auto", "trace", "csv", "xes", "mxml"}));
    }
  }
  return composites;
}

Seed MakeSeed(Rng* rng) {
  Seed seed;
  JsonWriter w;
  w.BeginObject();
  WriteId(rng, &w);
  switch (rng->UniformInt(0, 3)) {
    case 0:
      seed.kind = Kind::kMatch;
      w.Key("log1");
      w.String("logs/a.xes");
      w.Key("log2");
      w.String("logs/b+c.txt");
      seed.composites = WriteOptions(rng, &w, /*append=*/false);
      break;
    case 1:
      seed.kind = Kind::kAppend;
      w.Key("cmd");
      w.String("append");
      w.Key("log1");
      w.String("live.txt");
      w.Key("log2");
      w.String("ref.txt");
      if (rng->Bernoulli(0.5)) {
        w.Key("delta");
        w.String("batch.txt");
      } else {
        seed.traces = 1 + rng->UniformIndex(3);
        w.Key("traces");
        w.BeginArray();
        for (size_t t = 0; t < seed.traces; ++t) {
          w.BeginArray();
          for (int e = rng->UniformInt(0, 4); e > 0; --e) {
            w.String(Pick<std::string>(rng, {"a", "b", "a+b", "", "\"x\""}));
          }
          w.EndArray();
        }
        w.EndArray();
      }
      seed.composites = WriteOptions(rng, &w, /*append=*/true);
      break;
    case 2:
      seed.kind = Kind::kTopK;
      w.Key("query");
      w.String("q.txt");
      w.Key("topk");
      w.Int(rng->UniformInt(0, 9));
      if (rng->Bernoulli(0.5)) {
        seed.members = 1 + rng->UniformIndex(4);
        w.Key("members");
        w.BeginArray();
        for (size_t m = 0; m < seed.members; ++m) {
          w.String(std::to_string(m) + ".txt");
        }
        w.EndArray();
      } else {
        w.Key("corpus");
        w.String("warehouse/");
      }
      if (rng->Bernoulli(0.3)) {
        w.Key("brute_force");
        w.Bool(rng->Bernoulli(0.5));
      }
      seed.composites = WriteOptions(rng, &w, /*append=*/false);
      break;
    default:
      seed.kind = Kind::kAdmin;
      seed.cmd = Pick<std::string>(rng, {"stats", "health", "slow", "drain",
                                         "nope", "APPEND", " "});
      w.Key("cmd");
      w.String(seed.cmd);
  }
  w.EndObject();
  seed.line = w.str();
  return seed;
}

// Empty when a valid generated line parses as generated.
std::string SeedViolation(const Seed& seed) {
  const Request r = ParseRequest(seed.line);
  if (!r.status.ok()) return "rejected: " + r.status.ToString();
  if (r.kind != seed.kind) return "wrong kind";
  switch (seed.kind) {
    case Kind::kMatch:
      if (r.match.options.match_composites != seed.composites) {
        return "composites lost";
      }
      if (r.match.log2 != "logs/b+c.txt") return "log2 lost";
      return "";
    case Kind::kAppend:
      if (r.append.traces.size() != seed.traces) return "traces lost";
      if (seed.traces == 0 && r.append.delta != "batch.txt") {
        return "delta file lost";
      }
      if (r.append.options.match_composites != seed.composites) {
        return "composites lost";
      }
      return "";
    case Kind::kTopK:
      if (r.topk.members.size() != seed.members) return "members lost";
      if (seed.members == 0 && r.topk.corpus != "warehouse/") {
        return "corpus lost";
      }
      return "";
    case Kind::kAdmin:
      return r.cmd == seed.cmd ? "" : "cmd lost";
  }
  return "";
}

// Empty when ParseRequest honours the id rule and the dispatch on `line`.
std::string Violation(const std::string& line) {
  const Request r = ParseRequest(line);
  Result<JsonValue> doc = ParseJson(line);
  if (!doc.ok()) {
    if (r.kind != Kind::kMatch) return "non-JSON line is not a match job";
    if (r.status.code() != StatusCode::kParseError) {
      return "non-JSON line did not fail with ParseError";
    }
    return r.id.empty() ? "" : "non-JSON line got an id";
  }
  const JsonValue* id = doc->Find("id");
  if (id != nullptr && id->is_string() && r.id != id->string_value()) {
    return "string id not kept";
  }
  const std::string cmd = doc->GetString("cmd", "");
  const Kind want = cmd == "append"               ? Kind::kAppend
                    : !cmd.empty()                ? Kind::kAdmin
                    : doc->Find("query") != nullptr ? Kind::kTopK
                                                    : Kind::kMatch;
  if (r.kind != want) return "kind does not follow the dispatch";
  if (want == Kind::kAdmin && r.cmd != cmd) return "admin cmd not kept";
  if (!doc->is_object() && r.status.ok()) return "non-object accepted";
  return "";
}

// Truncations and one- to three-byte edits of `line`: replace, delete,
// insert, and duplicate a slice; bytes favour JSON structure.
std::vector<std::string> Mutants(Rng* rng, const std::string& line) {
  static const char kAlphabet[] =
      "{}[]\":,\\ 0123456789.-+eEtfnul\x00\x7f\xc3\xff\n";
  static const std::string kBytes(kAlphabet, sizeof(kAlphabet) - 1);
  const auto byte = [&] { return kBytes[rng->UniformIndex(kBytes.size())]; };
  std::vector<std::string> out;
  for (int i = 0; i < 6; ++i) {
    out.push_back(line.substr(0, rng->UniformIndex(line.size() + 1)));
  }
  for (int i = 0; i < 14; ++i) {
    std::string m = line;
    for (int edits = rng->UniformInt(1, 3); edits > 0 && !m.empty(); --edits) {
      const size_t at = rng->UniformIndex(m.size());
      const std::string head = m.substr(0, at);
      const std::string tail = m.substr(at);
      switch (rng->UniformInt(0, 3)) {
        case 0:
          m = head + byte() + tail.substr(1);
          break;
        case 1:
          m = head + tail.substr(1);
          break;
        case 2:
          m = head + byte() + tail;
          break;
        default:
          m = head + tail.substr(0, rng->UniformIndex(8)) + tail;
      }
    }
    out.push_back(std::move(m));
  }
  return out;
}

TEST(ParseRequestFuzzTest, ValidLinesParseAsGenerated) {
  Rng rng(20);
  size_t kinds[4] = {0, 0, 0, 0};
  for (int i = 0; i < 2000; ++i) {
    const Seed seed = MakeSeed(&rng);
    ++kinds[static_cast<int>(seed.kind)];
    ASSERT_EQ(SeedViolation(seed), "") << seed.line;
    ASSERT_EQ(Violation(seed.line), "") << seed.line;
  }
  for (size_t count : kinds) EXPECT_GT(count, 300u);
}

TEST(ParseRequestFuzzTest, MutatedLinesKeepIdAndDispatch) {
  Rng rng(2020);
  size_t inputs = 0;
  size_t violations = 0;
  std::string first;
  for (int i = 0; i < 3000; ++i) {
    const Seed seed = MakeSeed(&rng);
    for (const std::string& line : Mutants(&rng, seed.line)) {
      ++inputs;
      const std::string why = Violation(line);
      if (why.empty()) continue;
      if (violations++ == 0) first = why + " on: " + line;
    }
  }
  EXPECT_EQ(violations, 0u) << first;
  EXPECT_EQ(inputs, 60000u);
}

// Fixed edge shapes the generator does not reach.
TEST(ParseRequestFuzzTest, EdgeShapes) {
  const std::vector<std::string> lines = {
      "", " ", "null", "[]", "7", "\"id\"", "{}", "{\"id\":\"x\"}",
      "{\"cmd\":\"\"}", "{\"cmd\":5,\"query\":\"q\"}",
      "{\"cmd\":\"append\",\"query\":\"q\"}", "{\"query\":null}",
      "{\"id\":\"x\",\"id\":\"y\"}", "{\"id\":{\"a\":1}}",
      std::string("{\"id\":\"a\0b\"}", 12), "{\"traces\":[[[]]]}"};
  for (const std::string& line : lines) {
    EXPECT_EQ(Violation(line), "") << line;
  }
}

}  // namespace
}  // namespace serve
}  // namespace ems
