// Comparing two subsidiaries' implementations of the same process — the
// "find common parts for simplification and reuse" application of the
// paper's introduction. Pipeline: match events across the heterogeneous
// logs, translate one log into the other's vocabulary, quantify
// cross-log conformance, and emit a Graphviz rendering of the matched
// graphs.
#include <cstdio>
#include <fstream>

#include "core/match_report.h"
#include "core/translation.h"
#include "graph/dot_export.h"
#include "synth/dataset.h"

int main(int argc, char** argv) {
  using namespace ems;

  // Two subsidiaries running the same 16-step process: subsidiary B's
  // log has drifted branching odds, renamed events, one unrecorded
  // activity, and starts its traces one step later.
  PairOptions opts;
  opts.num_activities = 16;
  opts.num_traces = 120;
  opts.dislocation = 1;
  opts.seed = 77;
  LogPair pair = MakeLogPair(Testbed::kDsB, opts);

  // Raw conformance is meaningless before matching: the vocabularies
  // barely overlap.
  ConformanceReport raw = CrossLogConformance(pair.log1, pair.log2);
  std::printf("before matching: vocabulary overlap %.2f, trace coverage "
              "%.2f\n",
              raw.vocabulary_overlap, raw.trace_coverage_1in2);

  MatchOptions match_opts;
  match_opts.ems.alpha = 0.5;
  match_opts.label_measure = LabelMeasure::kQGramCosine;
  Matcher matcher(match_opts);
  Result<MatchResult> match = matcher.Match(pair.log1, pair.log2);
  if (!match.ok()) {
    std::fprintf(stderr, "match failed: %s\n",
                 match.status().ToString().c_str());
    return 1;
  }
  std::printf("matched %zu event pairs\n", match->correspondences.size());

  // Translate subsidiary A's log into B's vocabulary and re-measure.
  auto table = TranslationTable(match->correspondences);
  EventLog translated = TranslateLog(pair.log1, table);
  ConformanceReport unified = CrossLogConformance(translated, pair.log2);
  std::printf("after matching:  vocabulary overlap %.2f, direct-follows "
              "overlap %.2f\n",
              unified.vocabulary_overlap, unified.relation_overlap);
  std::printf("                 trace coverage A-in-B %.2f, B-in-A %.2f, "
              "F %.2f\n\n",
              unified.trace_coverage_1in2, unified.trace_coverage_2in1,
              unified.f_conformance);

  std::printf("match report (JSON):\n%s\n",
              MatchResultToJson(*match).c_str());

  if (argc > 1) {
    std::ofstream dot(argv[1]);
    if (dot && WriteMatchDot(*match, dot).ok()) {
      std::printf("\nGraphviz rendering written to %s (render with "
                  "`dot -Tsvg`)\n",
                  argv[1]);
    }
  } else {
    std::printf("\n(pass a filename to export the matched graphs as "
                "Graphviz DOT)\n");
  }
  return 0;
}
