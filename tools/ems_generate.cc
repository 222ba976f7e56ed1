// ems_generate: synthetic heterogeneous log-pair generator — exports the
// corpus this repository evaluates on so external tools (ProM, PM4Py,
// other matchers) can be compared on identical inputs.
//
//   ems_generate [options] OUTPUT_DIR
//
// Options:
//   --corpus=N           generate an N-member warehouse corpus instead
//                        of pairs: many process families with private
//                        vocabularies, --family-size members each
//                        (docs/CORPUS.md); writes <dir>/famK_<m>.<ext>
//   --family-size=N      members per corpus family (default 2)
//   --pairs=N            log pairs to generate (default 10)
//   --testbed=dsf|dsb|dsfb   dislocation testbed (default dsfb)
//   --activities=N       activities per process (default 20)
//   --traces=N           traces per log (default 150)
//   --dislocation=N      events removed from trace boundaries (default 2)
//   --composites=N       composite events injected per pair (default 0)
//   --append=N           traces per streaming delta batch (default 0:
//                        no batches); continues log a's own play-out, so
//                        a + batches in order == one longer play-out
//   --append-batches=B   delta batches per pair (default 1)
//   --seed=N             master seed (default 2014)
//   --format=xes|mxml|csv|trace  export format (default xes)
//
// OUTPUT_DIR is created, parents included, when it does not exist.
// Each pair becomes <dir>/pairK_a.<ext>, <dir>/pairK_b.<ext>, and
// <dir>/pairK_truth.tsv (left<TAB>right per correspondence link); with
// --append also <dir>/pairK_a_append<j>.<ext> per batch, ready to feed
// the serve layer's {"cmd": "append"} as `delta` files
// (docs/STREAMING.md).
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <system_error>

#include "log/log_io.h"
#include "log/mxml.h"
#include "log/xes.h"
#include "synth/dataset.h"
#include "util/string_util.h"

namespace {

using namespace ems;

Status ExportLog(const EventLog& log, const std::string& path,
                 const std::string& format) {
  if (format == "xes") return WriteXesFile(log, path + ".xes");
  if (format == "mxml") return WriteMxmlFile(log, path + ".mxml");
  if (format == "csv") {
    std::ofstream out(path + ".csv");
    if (!out) return Status::IOError("cannot open " + path + ".csv");
    return WriteCsv(log, out);
  }
  if (format == "trace") return WriteTraceFile(log, path + ".txt");
  return Status::InvalidArgument("unknown format '" + format + "'");
}

Status ExportTruth(const GroundTruth& truth, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open " + path);
  out << "left\tright\n";
  for (const auto& [l, r] : truth.Links()) {
    out << l << '\t' << r << '\n';
  }
  return out ? Status::OK() : Status::IOError("write failed");
}

}  // namespace

int main(int argc, char** argv) {
  int pairs = 10;
  int corpus = 0;
  int family_size = 2;
  std::string testbed = "dsfb";
  int activities = 20;
  int traces = 150;
  int dislocation = 2;
  int composites = 0;
  int append = 0;
  int append_batches = 1;
  uint64_t seed = 2014;
  std::string format = "xes";
  std::string dir;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value_of = [&](const char* name) -> const char* {
      std::string prefix = std::string("--") + name + "=";
      return arg.rfind(prefix, 0) == 0 ? arg.c_str() + prefix.size()
                                       : nullptr;
    };
    Status parsed;
    if (const char* v = value_of("pairs")) {
      parsed = ParseFlagNumber("pairs", v, &pairs);
    } else if (const char* v = value_of("corpus")) {
      parsed = ParseFlagNumber("corpus", v, &corpus);
    } else if (const char* v = value_of("family-size")) {
      parsed = ParseFlagNumber("family-size", v, &family_size);
    } else if (const char* v = value_of("testbed")) {
      testbed = v;
    } else if (const char* v = value_of("activities")) {
      parsed = ParseFlagNumber("activities", v, &activities);
    } else if (const char* v = value_of("traces")) {
      parsed = ParseFlagNumber("traces", v, &traces);
    } else if (const char* v = value_of("dislocation")) {
      parsed = ParseFlagNumber("dislocation", v, &dislocation);
    } else if (const char* v = value_of("composites")) {
      parsed = ParseFlagNumber("composites", v, &composites);
    } else if (const char* v = value_of("append")) {
      parsed = ParseFlagNumber("append", v, &append);
    } else if (const char* v = value_of("append-batches")) {
      parsed = ParseFlagNumber("append-batches", v, &append_batches);
    } else if (const char* v = value_of("seed")) {
      parsed = ParseFlagNumber("seed", v, &seed);
    } else if (const char* v = value_of("format")) {
      format = v;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      return 2;
    } else {
      dir = arg;
    }
    if (!parsed.ok()) {
      std::fprintf(stderr, "error: %s\n", parsed.message().c_str());
      return 2;
    }
  }
  if (dir.empty()) {
    std::fprintf(stderr, "usage: %s [options] OUTPUT_DIR\n", argv[0]);
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    const Status s = Status::IOError("cannot create directory '" + dir +
                                     "': " + ec.message());
    std::fprintf(stderr, "export failed: %s\n", s.ToString().c_str());
    return 1;
  }
  Testbed tb = testbed == "dsf"   ? Testbed::kDsF
               : testbed == "dsb" ? Testbed::kDsB
                                  : Testbed::kDsFB;

  if (corpus > 0) {
    SynthCorpusOptions corpus_opts;
    corpus_opts.num_members = corpus;
    corpus_opts.members_per_family = family_size;
    corpus_opts.seed = seed;
    corpus_opts.min_activities = std::max(4, activities - 5);
    corpus_opts.max_activities = activities + 5;
    corpus_opts.num_traces = traces;
    std::vector<CorpusMember> members = MakeCorpus(corpus_opts);
    for (const CorpusMember& member : members) {
      Status s = ExportLog(member.log, dir + "/" + member.name, format);
      if (!s.ok()) {
        std::fprintf(stderr, "export failed: %s\n", s.ToString().c_str());
        return 1;
      }
    }
    const int families =
        members.empty() ? 0 : members.back().family + 1;
    std::printf("generated a %zu-member corpus (%d families, ~%d members "
                "each, %d traces) in %s\n",
                members.size(), families, family_size, traces, dir.c_str());
    return 0;
  }

  Rng meta(seed);
  for (int k = 0; k < pairs; ++k) {
    PairOptions opts;
    opts.num_activities = activities;
    opts.num_traces = traces;
    opts.dislocation = dislocation;
    opts.num_composites = composites;
    opts.seed = meta.engine()();
    LogPair pair = MakeLogPair(tb, opts);

    std::string base = dir + "/pair" + std::to_string(k);
    Status s = ExportLog(pair.log1, base + "_a", format);
    if (s.ok()) s = ExportLog(pair.log2, base + "_b", format);
    if (s.ok()) s = ExportTruth(pair.truth, base + "_truth.tsv");
    if (s.ok() && append > 0) {
      std::vector<EventLog> batches =
          MakeAppendBatches(opts, append, append_batches);
      for (size_t j = 0; j < batches.size() && s.ok(); ++j) {
        s = ExportLog(batches[j], base + "_a_append" + std::to_string(j),
                      format);
      }
    }
    if (!s.ok()) {
      std::fprintf(stderr, "export failed: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  std::printf("generated %d %s pairs (%d activities, %d traces, "
              "dislocation %d, %d composites%s) in %s\n",
              pairs, TestbedName(tb), activities, traces, dislocation,
              composites,
              append > 0 ? (", " + std::to_string(append_batches) + "x" +
                            std::to_string(append) + "-trace append batches")
                               .c_str()
                         : "",
              dir.c_str());
  return 0;
}
