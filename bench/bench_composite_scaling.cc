// Composite-search benchmark: times the full greedy composite matching
// loop (matcher construction with both logs' trace summaries and the
// singleton label matrix, candidate discovery, per-candidate graph builds
// and label matrices, inner EMS runs) on a Figure-12-style synthetic
// instance, serially and with 4 worker threads — each with the Uc/Bd
// prunings on and off.
//
// Doubles as an equivalence harness, exiting nonzero on any mismatch:
//   - within each pruning mode the 4-thread run's composites, objective
//     and similarity matrix are bit-identical to the serial run's, so the
//     CI perf-smoke step guards the determinism contract of
//     docs/CONCURRENCY.md;
//   - every configuration's final graphs equal, byte for byte, the
//     test-only string-rewriting trace scan (tests/log/
//     trace_count_reference.h) rebuilt from that configuration's
//     composites, and so does each side's graph under every discovered
//     candidate alone — the graphs the first greedy step builds — which
//     still covers composite nodes when the search accepts no merge.
//
// When EMS_BENCH_JSON_DIR names a directory, writes BENCH_composite.json
// there (atomically, tmp + rename) with per-configuration timing and the
// headline end-to-end speedup (serial / 4 threads, prunings on).
//
// Flags: --activities=N (default 14), --traces=N (default 600),
//        --composites=N (default 3), --reps=N (default 3), --seed=N.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "core/composite_candidates.h"
#include "core/composite_matcher.h"
#include "graph/dependency_graph_builder.h"
#include "log/trace_count_reference.h"
#include "synth/dataset.h"
#include "text/label_similarity.h"
#include "util/json_writer.h"
#include "util/timer.h"

namespace ems {
namespace {

struct Config {
  const char* name;
  int threads;
};

struct ConfigResult {
  std::string name;
  bool pruning = false;
  double best_millis = 0.0;  // fastest rep (noise-robust)
  double mean_millis = 0.0;
  int candidates_evaluated = 0;
  int pruned_by_bound = 0;
  uint64_t ems_runs = 0;
  uint64_t formula_evaluations = 0;
  CompositeMatchResult result;  // from rep 0, for the equivalence check
};

ConfigResult RunConfig(const Config& cfg, bool pruning, const LogPair& pair,
                       const LabelSimilarity& labels, int reps) {
  ConfigResult r;
  r.name = cfg.name;
  r.pruning = pruning;
  double total = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    CompositeOptions opts;
    opts.delta = 0.005;
    opts.ems.alpha = 0.5;
    opts.ems.c = 0.8;
    opts.prune_unchanged = pruning;
    opts.prune_bounds = pruning;
    opts.num_threads = cfg.threads;
    // A fresh matcher per rep: the summaries and the singleton label
    // matrix pay their construction cost inside the timed region.
    Timer timer;
    CompositeMatcher matcher(pair.log1, pair.log2, opts, &labels);
    Result<CompositeMatchResult> result = matcher.Match();
    const double ms = timer.ElapsedMillis();
    if (!result.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", cfg.name,
                   result.status().ToString().c_str());
      std::exit(1);
    }
    total += ms;
    if (rep == 0 || ms < r.best_millis) r.best_millis = ms;
    if (rep == 0) {
      r.candidates_evaluated = result->stats.candidates_evaluated;
      r.pruned_by_bound = result->stats.candidates_pruned_by_bound;
      r.ems_runs = result->stats.ems_runs;
      r.formula_evaluations = result->stats.formula_evaluations;
      r.result = std::move(*result);
    }
  }
  r.mean_millis = total / reps;
  return r;
}

// Composites, objective, and matrix must match the serial run to the last
// bit (stats may differ: prune counts depend on evaluation order).
bool BitIdentical(const CompositeMatchResult& ref,
                  const CompositeMatchResult& got, std::string* why) {
  if (ref.composites1 != got.composites1 ||
      ref.composites2 != got.composites2) {
    *why = "composites differ";
    return false;
  }
  if (ref.average_similarity != got.average_similarity) {
    *why = "objective differs";
    return false;
  }
  if (ref.similarity.rows() != got.similarity.rows() ||
      ref.similarity.cols() != got.similarity.cols()) {
    *why = "matrix shape differs";
    return false;
  }
  const double diff = ref.similarity.MaxAbsDifference(got.similarity);
  if (diff != 0.0) {
    *why = "matrix differs by " + std::to_string(diff);
    return false;
  }
  return true;
}

// The final graphs are the trace scan's graphs of the final composites.
bool GraphsMatchTraceScan(const LogPair& pair,
                          const CompositeMatchResult& result,
                          std::string* why) {
  *why = testing::TraceScanDifference(result.graph1, pair.log1,
                                      result.composites1);
  if (why->empty()) {
    *why = testing::TraceScanDifference(result.graph2, pair.log2,
                                        result.composites2);
  }
  return why->empty();
}

// Each discovered candidate's one-composite graph is the trace scan's.
bool CandidateGraphsMatchTraceScan(const EventLog& log, size_t* checked,
                                   std::string* why) {
  const DependencyGraphBuilder builder(log);
  for (const CompositeCandidate& cand : DiscoverCandidates(log)) {
    Result<DependencyGraph> got = builder.BuildWithComposites({cand.events});
    *why = got.ok()
               ? testing::TraceScanDifference(*got, log, {cand.events})
               : got.status().ToString();
    if (!why->empty()) return false;
    ++*checked;
  }
  return true;
}

void WriteJson(const std::vector<ConfigResult>& results, int activities,
               int traces, int reps, double speedup) {
  const char* env = std::getenv("EMS_BENCH_JSON_DIR");
  if (env == nullptr || env[0] == '\0') return;
  JsonWriter w;
  w.BeginObject();
  w.Key("figure");
  w.String("composite");
  w.Key("description");
  w.String("Composite search: serial vs 4 threads, prunings on and off");
  w.Key("activities");
  w.Int(activities);
  w.Key("traces");
  w.Int(traces);
  w.Key("reps");
  w.Int(reps);
  w.Key("speedup_end_to_end");
  w.Number(speedup);
  w.Key("groups");
  w.BeginArray();
  for (const ConfigResult& r : results) {
    w.BeginObject();
    w.Key("method");
    w.String(r.name);
    w.Key("pruning");
    w.Bool(r.pruning);
    w.Key("best_millis");
    w.Number(r.best_millis);
    w.Key("mean_millis");
    w.Number(r.mean_millis);
    w.Key("candidates_evaluated");
    w.Int(r.candidates_evaluated);
    w.Key("candidates_pruned_by_bound");
    w.Int(r.pruned_by_bound);
    w.Key("ems_runs");
    w.Int(static_cast<long long>(r.ems_runs));
    w.Key("formula_evaluations");
    w.Int(static_cast<long long>(r.formula_evaluations));
    w.Key("merges_accepted");
    w.Int(static_cast<int>(r.result.composites1.size() +
                           r.result.composites2.size()));
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  const std::string path = std::string(env) + "/BENCH_composite.json";
  const std::string tmp = path + ".tmp";
  std::ofstream out(tmp);
  if (!out) return;
  out << w.str() << "\n";
  out.flush();
  const bool good = out.good();
  out.close();
  if (good) std::rename(tmp.c_str(), path.c_str());
  else std::remove(tmp.c_str());
}

int Main(int argc, char** argv) {
  int activities = 14;
  int traces = 600;
  int composites = 3;
  int reps = 3;
  uint64_t seed = 4;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&arg](const char* prefix) -> const char* {
      const std::string p = prefix;
      return arg.rfind(p, 0) == 0 ? arg.c_str() + p.size() : nullptr;
    };
    if (const char* v = value("--activities=")) activities = std::atoi(v);
    else if (const char* v = value("--traces=")) traces = std::atoi(v);
    else if (const char* v = value("--composites=")) composites = std::atoi(v);
    else if (const char* v = value("--reps=")) reps = std::atoi(v);
    else if (const char* v = value("--seed=")) seed = std::strtoull(v, nullptr, 10);
    else std::fprintf(stderr, "warning: ignoring unknown option '%s'\n",
                      arg.c_str());
  }
  if (activities < 4 || traces < 1 || reps < 1) {
    std::fprintf(stderr, "invalid --activities/--traces/--reps\n");
    return 2;
  }

  std::printf("=====================================================\n");
  std::printf("composite — greedy search, serial vs 4 threads\n");
  std::printf("=====================================================\n");
  PairOptions pair_opts;
  pair_opts.num_activities = activities;
  pair_opts.num_traces = traces;
  pair_opts.num_composites = composites;
  pair_opts.dislocation = 1;
  pair_opts.seed = seed;
  const LogPair pair = MakeLogPair(Testbed::kDsFB, pair_opts);
  std::printf("logs: %zu x %zu events, %zu x %zu traces\n",
              pair.log1.NumEvents(), pair.log2.NumEvents(),
              pair.log1.NumTraces(), pair.log2.NumTraces());
  QGramCosineSimilarity labels;

  size_t candidate_graphs = 0;
  for (const EventLog* log : {&pair.log1, &pair.log2}) {
    std::string why;
    if (!CandidateGraphsMatchTraceScan(*log, &candidate_graphs, &why)) {
      std::fprintf(stderr, "GRAPH FAILURE: candidate vs trace scan: %s\n",
                   why.c_str());
      return 1;
    }
  }
  std::printf("candidate graphs equal to the trace scan: %zu\n",
              candidate_graphs);

  const Config configs[] = {
      {"serial_1t", 1},
      {"parallel_4t", 4},
  };

  std::vector<ConfigResult> results;
  double speedup = 0.0;
  for (bool pruning : {true, false}) {
    const size_t base = results.size();
    for (const Config& cfg : configs) {
      results.push_back(RunConfig(cfg, pruning, pair, labels, reps));
      const ConfigResult& r = results.back();
      std::printf(
          "%-15s %-9s best %8.2f ms  mean %8.2f ms  %3d cands  %3d pruned  "
          "%4llu ems runs  %9llu evals\n",
          r.name.c_str(), pruning ? "(Uc+Bd)" : "(none)", r.best_millis,
          r.mean_millis, r.candidates_evaluated, r.pruned_by_bound,
          static_cast<unsigned long long>(r.ems_runs),
          static_cast<unsigned long long>(r.formula_evaluations));
      std::string why;
      if (!GraphsMatchTraceScan(pair, r.result, &why)) {
        std::fprintf(stderr, "GRAPH FAILURE: %s (%s) vs trace scan: %s\n",
                     r.name.c_str(), pruning ? "Uc+Bd" : "no pruning",
                     why.c_str());
        return 1;
      }
    }
    // Within one pruning mode the parallel run must reproduce the serial
    // run to the last bit.
    for (size_t i = base + 1; i < results.size(); ++i) {
      std::string why;
      if (!BitIdentical(results[base].result, results[i].result, &why)) {
        std::fprintf(stderr, "EQUIVALENCE FAILURE: %s (%s) vs %s: %s\n",
                     results[i].name.c_str(),
                     pruning ? "Uc+Bd" : "no pruning",
                     results[base].name.c_str(), why.c_str());
        return 1;
      }
    }
    if (pruning) {
      speedup = results[base + 1].best_millis > 0.0
                    ? results[base].best_millis / results[base + 1].best_millis
                    : 0.0;
    }
  }
  std::printf("equivalence: serial and 4 threads bit-identical per pruning "
              "mode; final graphs equal the trace scan\n");
  std::printf("end-to-end speedup (serial_1t / parallel_4t, Uc+Bd): %.2fx\n",
              speedup);
  WriteJson(results, activities, traces, reps, speedup);
  return 0;
}

}  // namespace
}  // namespace ems

int main(int argc, char** argv) { return ems::Main(argc, argv); }
