// The pair workloads: one seeded log pair, matched serially over and
// over from its files, the way `ems_match --threads=0 A B` runs it.
#include "eval/metrics.h"
#include "obs/context.h"
#include "obs/report.h"
#include "perfbench.h"
#include "util/json_writer.h"

namespace perfbench {

using namespace ems;

namespace {

bool SameCounts(const EmsStats& a, const EmsStats& b) {
  return a.iterations == b.iterations &&
         a.formula_evaluations == b.formula_evaluations &&
         a.pairs_pruned_converged == b.pairs_pruned_converged &&
         a.pairs_skipped_unchanged == b.pairs_skipped_unchanged;
}

}  // namespace

int RunPairWorkload(const Flags& flags, const PairWorkload& def) {
  const std::string a = flags.work_dir + "/log_a.xes";
  const std::string b = flags.work_dir + "/log_b.xes";

  // Set-up: generate, write and first-read the pair, several times over.
  std::vector<double> setup_s;
  GroundTruth truth;
  for (int k = 0; k < kSetups; ++k) {
    const Clock::time_point t0 = Clock::now();
    {
      GeneratedPair pair = MakePair(def.spec, flags.seed);
      WriteLogFile(pair.log1, a);
      WriteLogFile(pair.log2, b);
      truth = std::move(pair.truth);
    }
    {
      const EventLog first1 = LoadLog(a);
      const EventLog first2 = LoadLog(b);
    }
    setup_s.push_back(SecondsSince(t0));
  }

  MatchOptions options;  // ems_match's defaults with --threads=0
  options.label_measure = LabelMeasure::kQGramCosine;
  options.ems.alpha = 0.5;
  options.ems.num_threads = 1;

  // Timed phase. A traced run alternates untraced ops with layered,
  // spanned ones, so both see the same host speed.
  ObsContext obs;
  ResetPeakRss(0);
  std::vector<double> op_ms;
  std::vector<double> untraced_ms;
  std::vector<PairOp> layered_ops;
  std::vector<std::string> mismatches;
  PairOp first;
  std::string first_digest;
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < def.ops; ++i) {
    const bool layered = flags.trace && i % 2 == 1;
    PairOp op = RunPairOp(a, b, options, layered, flags.trace ? &obs : nullptr);
    op_ms.push_back(op.millis);
    if (!layered) untraced_ms.push_back(op.millis);
    const std::string digest = Digest(op.found);
    if (i == 0) {
      first_digest = digest;
      first = op;
    } else if (digest != first_digest || !SameCounts(op.ems, first.ems)) {
      mismatches.push_back("op " + std::to_string(i) + " (" +
                           (layered ? "layered" : "Matcher::Match") +
                           ") differs from op 0");
    }
    if (layered) layered_ops.push_back(std::move(op));
  }
  const double timed_wall_s = SecondsSince(start);
  const double peak_rss_mb = PeakRssMb(0);

  if (!flags.trace) {
    // The untraced run checks its Matcher::Match ops against the layered
    // pipeline once, untimed.
    const PairOp check = RunPairOp(a, b, options, true, nullptr);
    if (Digest(check.found) != first_digest ||
        !SameCounts(check.ems, first.ems)) {
      mismatches.push_back("layered pipeline differs from Matcher::Match");
    }
  } else {
    PipelineReport report =
        BuildPipelineReport(&obs, first.ems, CompositeStats{}, 0.0);
    Status s = report.WriteChromeTraceFile(flags.trace_path);
    if (!s.ok()) Die("writing the trace: " + s.ToString());
  }

  JsonWriter w;
  w.BeginObject();
  w.Key("kind");
  w.String("pair");
  w.Key("setup_s");
  w.BeginArray();
  for (double s : setup_s) w.Number(s);
  w.EndArray();
  w.Key("op_ms");
  w.BeginArray();
  for (double ms : op_ms) w.Number(ms);
  w.EndArray();
  w.Key("timed_wall_s");
  w.Number(timed_wall_s);
  w.Key("peak_rss_mb");
  w.Number(peak_rss_mb);
  w.Key("f_measure");
  w.Number(Evaluate(truth, first.found).f_measure);
  w.Key("mismatches");
  w.BeginArray();
  for (const std::string& m : mismatches) w.String(m);
  w.EndArray();
  if (flags.trace) {
    w.Key("untraced_op_ms");
    w.BeginArray();
    for (double ms : untraced_ms) w.Number(ms);
    w.EndArray();
    w.Key("traced_ops");
    WriteTracedOps(obs, layered_ops, &w);
  }
  w.EndObject();
  WriteTextFile(flags.out_path, w.str());
  return mismatches.empty() ? 0 : 1;
}

}  // namespace perfbench
