// ems_match: command-line event matcher. Reads two event logs (XES, CSV,
// or trace-per-line format, auto-detected by extension), runs the full
// matching pipeline, and prints the correspondences.
//
//   ems_match [options] LOG1 LOG2
//   ems_match [options] --corpus=DIR --topk=K QUERY
//
// The second form ranks every log in DIR against QUERY and prints the
// top-k, scheduled through the corpus index (docs/CORPUS.md): candidates
// are ranked by an admissible score bound and exact matching stops once
// the k-th best exact score beats every remaining bound — same ranking
// as matching QUERY against every member, at a fraction of the runs.
// With --cache-dir the built index persists as a corpus snapshot, so
// re-querying an unchanged directory skips parsing and graph builds.
//
// Options:
//   --corpus=DIR                  corpus directory (top-k mode)
//   --topk=K                      hits to return (default 5)
//   --brute-force                 rank by matching every member (the
//                                 equivalence baseline for the index)
//   --format=auto|trace|csv|xes|mxml  input format (default auto)
//   --labels=none|qgram|levenshtein|jaro|tokens
//                                 label similarity (default qgram)
//   --alpha=F                     structural weight (default 0.5 with
//                                 labels, forced to 1 with --labels=none)
//   --c=F                         propagation decay (default 0.8)
//   --engine=exact|estimated      similarity engine (default exact)
//   --iterations=N                exact iterations for the estimated
//                                 engine (default 5)
//   --composites                  enable m:n composite matching
//   --delta=F                     composite acceptance threshold (0.005)
//   --selection=hungarian|greedy|mutual
//   --min-similarity=F            correspondence threshold (default 0.05)
//   --min-edge-frequency=F        dependency-graph edge filter (default 0)
//   --threads=N                   worker threads for the EMS iteration
//                                 and, with --composites, for parallel
//                                 candidate evaluation (default hardware
//                                 concurrency, 0 = serial)
//   --prob                        probabilistic matching (src/prob/):
//                                 EM posterior over the converged
//                                 similarity, MAP selection with
//                                 calibrated per-pair confidences
//   --prob-temp=F                 softmax temperature (default 0.05)
//   --prob-tol=F                  EM convergence tolerance (default 1e-6)
//   --prob-iters=N                EM iteration cap (default 50)
//   --prob-min-confidence=F       drop MAP pairs whose posterior is
//                                 below F (default 0.02)
//   --prob-out=PATH               write the full posterior as TSV
//                                 (row, col, names, posterior, map flag)
//   --matrix                      also print the similarity matrix
//   --tsv                         machine-readable tab-separated output
//   --json                        JSON output (correspondences + stats)
//   --metrics-out=PATH            write a PipelineReport JSON (span tree,
//                                 counters, gauges, quantile histograms)
//                                 to PATH
//   --trace-out=PATH              write Chrome trace_event JSON to PATH
//                                 (open in chrome://tracing / Perfetto)
//   --cache-dir=PATH              persistent artifact store
//                                 (docs/PERSISTENCE.md): parsed logs are
//                                 snapshotted there and re-runs load the
//                                 snapshot instead of re-parsing
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>

#include "core/match_report.h"
#include "core/matcher.h"
#include "exec/thread_pool.h"
#include "index/corpus_io.h"
#include "index/topk_scheduler.h"
#include "obs/context.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "serve/log_cache.h"
#include "store/artifact_store.h"
#include "util/json_writer.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace {

using namespace ems;

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [options] LOG1 LOG2\n"
               "run '%s --help' style options are documented at the top of "
               "tools/ems_match.cc\n",
               argv0, argv0);
}

struct Flags {
  std::string format = "auto";
  std::string labels = "qgram";
  double alpha = 0.5;
  bool alpha_set = false;
  double c = 0.8;
  std::string engine = "exact";
  int iterations = 5;
  bool composites = false;
  double delta = 0.005;
  std::string selection = "hungarian";
  double min_similarity = 0.05;
  double min_edge_frequency = 0.0;
  int threads = -1;  // -1 = unset -> hardware concurrency
  bool prob = false;
  double prob_temp = 0.05;
  double prob_tol = 1e-6;
  int prob_iters = 50;
  double prob_min_confidence = 0.02;
  std::string prob_out;
  bool matrix = false;
  bool tsv = false;
  bool json = false;
  std::string metrics_out;
  std::string trace_out;
  std::string cache_dir;
  std::string corpus;
  int topk = 5;
  bool brute_force = false;
  std::vector<std::string> positional;
};

bool ParseFlag(const std::string& arg, const char* name, std::string* out) {
  std::string prefix = std::string("--") + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *out = arg.substr(prefix.size());
  return true;
}

Result<Flags> ParseArgs(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    if (arg == "--composites") flags.composites = true;
    else if (arg == "--prob") flags.prob = true;
    else if (ParseFlag(arg, "prob-temp", &value)) {
      EMS_RETURN_NOT_OK(ParseFlagNumber("prob-temp", value, &flags.prob_temp));
      if (flags.prob_temp <= 0.0) {
        return Status::InvalidArgument("--prob-temp must be > 0");
      }
    } else if (ParseFlag(arg, "prob-tol", &value)) {
      EMS_RETURN_NOT_OK(ParseFlagNumber("prob-tol", value, &flags.prob_tol));
      if (flags.prob_tol <= 0.0) {
        return Status::InvalidArgument("--prob-tol must be > 0");
      }
    } else if (ParseFlag(arg, "prob-iters", &value)) {
      EMS_RETURN_NOT_OK(
          ParseFlagNumber("prob-iters", value, &flags.prob_iters));
      if (flags.prob_iters < 1) {
        return Status::InvalidArgument("--prob-iters must be >= 1");
      }
    } else if (ParseFlag(arg, "prob-min-confidence", &value)) {
      EMS_RETURN_NOT_OK(ParseFlagNumber("prob-min-confidence", value,
                                        &flags.prob_min_confidence));
      if (flags.prob_min_confidence < 0.0 || flags.prob_min_confidence > 1.0) {
        return Status::InvalidArgument(
            "--prob-min-confidence must be in [0, 1]");
      }
    } else if (ParseFlag(arg, "prob-out", &value)) {
      flags.prob_out = value;
    } else if (arg == "--matrix") flags.matrix = true;
    else if (arg == "--tsv") flags.tsv = true;
    else if (arg == "--json") flags.json = true;
    else if (ParseFlag(arg, "format", &value)) flags.format = value;
    else if (ParseFlag(arg, "labels", &value)) flags.labels = value;
    else if (ParseFlag(arg, "alpha", &value)) {
      EMS_RETURN_NOT_OK(ParseFlagNumber("alpha", value, &flags.alpha));
      flags.alpha_set = true;
    } else if (ParseFlag(arg, "c", &value)) {
      EMS_RETURN_NOT_OK(ParseFlagNumber("c", value, &flags.c));
    } else if (ParseFlag(arg, "engine", &value)) {
      flags.engine = value;
    } else if (ParseFlag(arg, "iterations", &value)) {
      EMS_RETURN_NOT_OK(
          ParseFlagNumber("iterations", value, &flags.iterations));
      if (flags.iterations < 0) {
        return Status::InvalidArgument("--iterations must be >= 0");
      }
    } else if (ParseFlag(arg, "delta", &value)) {
      EMS_RETURN_NOT_OK(ParseFlagNumber("delta", value, &flags.delta));
    } else if (ParseFlag(arg, "selection", &value)) flags.selection = value;
    else if (ParseFlag(arg, "min-similarity", &value)) {
      EMS_RETURN_NOT_OK(
          ParseFlagNumber("min-similarity", value, &flags.min_similarity));
    } else if (ParseFlag(arg, "min-edge-frequency", &value)) {
      EMS_RETURN_NOT_OK(ParseFlagNumber("min-edge-frequency", value,
                                        &flags.min_edge_frequency));
    } else if (ParseFlag(arg, "threads", &value)) {
      EMS_RETURN_NOT_OK(ParseFlagNumber("threads", value, &flags.threads));
      if (flags.threads < 0) {
        return Status::InvalidArgument("--threads must be >= 0");
      }
    } else if (ParseFlag(arg, "metrics-out", &value)) {
      flags.metrics_out = value;
    } else if (ParseFlag(arg, "trace-out", &value)) {
      flags.trace_out = value;
    } else if (ParseFlag(arg, "cache-dir", &value)) {
      flags.cache_dir = value;
    } else if (ParseFlag(arg, "corpus", &value)) {
      flags.corpus = value;
    } else if (ParseFlag(arg, "topk", &value)) {
      EMS_RETURN_NOT_OK(ParseFlagNumber("topk", value, &flags.topk));
      if (flags.topk < 0) {
        return Status::InvalidArgument("--topk must be >= 0");
      }
    } else if (arg == "--brute-force") {
      flags.brute_force = true;
    } else if (arg.rfind("--", 0) == 0) {
      return Status::InvalidArgument("unknown option '" + arg + "'");
    } else {
      flags.positional.push_back(arg);
    }
  }
  if (flags.corpus.empty()) {
    if (flags.positional.size() != 2) {
      return Status::InvalidArgument("expected exactly two log files");
    }
  } else if (flags.positional.size() != 1) {
    return Status::InvalidArgument(
        "--corpus mode expects exactly one query log");
  }
  return flags;
}

Result<MatchOptions> ToMatchOptions(const Flags& flags) {
  MatchOptions options;
  if (flags.labels == "none") options.label_measure = LabelMeasure::kNone;
  else if (flags.labels == "qgram") {
    options.label_measure = LabelMeasure::kQGramCosine;
  } else if (flags.labels == "levenshtein") {
    options.label_measure = LabelMeasure::kLevenshtein;
  } else if (flags.labels == "jaro") {
    options.label_measure = LabelMeasure::kJaroWinkler;
  } else if (flags.labels == "tokens") {
    options.label_measure = LabelMeasure::kTokenJaccard;
  } else {
    return Status::InvalidArgument("unknown label measure '" + flags.labels +
                                   "'");
  }
  options.ems.alpha = options.label_measure == LabelMeasure::kNone
                          ? 1.0
                          : (flags.alpha_set ? flags.alpha : 0.5);
  if (options.ems.alpha < 0.0 || options.ems.alpha > 1.0) {
    return Status::InvalidArgument("--alpha must be in [0, 1]");
  }
  if (flags.c <= 0.0 || flags.c >= 1.0) {
    return Status::InvalidArgument("--c must be in (0, 1)");
  }
  options.ems.c = flags.c;
  if (flags.engine == "exact") options.engine = SimilarityEngine::kExact;
  else if (flags.engine == "estimated") {
    options.engine = SimilarityEngine::kEstimated;
  } else {
    return Status::InvalidArgument("unknown engine '" + flags.engine + "'");
  }
  options.estimation_iterations = flags.iterations;
  options.match_composites = flags.composites;
  options.composite.delta = flags.delta;
  if (flags.selection == "hungarian") {
    options.selection = SelectionStrategy::kMaxTotalSimilarity;
  } else if (flags.selection == "greedy") {
    options.selection = SelectionStrategy::kGreedy;
  } else if (flags.selection == "mutual") {
    options.selection = SelectionStrategy::kMutualBest;
  } else {
    return Status::InvalidArgument("unknown selection '" + flags.selection +
                                   "'");
  }
  options.min_match_similarity = flags.min_similarity;
  options.min_edge_frequency = flags.min_edge_frequency;
  options.prob.enabled = flags.prob;
  options.prob.temperature = flags.prob_temp;
  options.prob.rtole = flags.prob_tol;
  options.prob.max_iterations = flags.prob_iters;
  options.prob.min_confidence = flags.prob_min_confidence;
  // CLI contract: default = hardware concurrency, 0 = serial. EmsOptions
  // spells those 0 and 1 respectively.
  options.ems.num_threads =
      flags.threads < 0 ? 0 : (flags.threads == 0 ? 1 : flags.threads);
  return options;
}

std::string JoinNames(const std::vector<std::string>& names) {
  std::string out;
  for (size_t i = 0; i < names.size(); ++i) {
    if (i > 0) out += " + ";
    out += names[i];
  }
  return out;
}

// Display name of real-node index `real_index` (composite members joined).
std::string RealNodeName(const DependencyGraph& g, const EventLog& log,
                         int real_index) {
  const NodeId off = g.has_artificial() ? 1 : 0;
  std::vector<std::string> names;
  for (EventId e : g.Members(real_index + off)) names.push_back(log.EventName(e));
  return JoinNames(names);
}

// Full posterior as TSV: one line per (row, col) cell with the node
// names, the posterior mass, and whether the MAP assignment picked the
// pair. scripts/check_posterior.py verifies row-stochasticity on this.
Status WritePosteriorTsv(const std::string& path, const MatchResult& result,
                         const EventLog& log1, const EventLog& log2) {
  const prob::SoftMatchResult& soft = *result.soft;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IOError("cannot open " + path + " for writing");
  }
  std::fprintf(f, "# rows=%zu cols=%zu iterations=%d converged=%d\n",
               soft.posterior.rows(), soft.posterior.cols(),
               soft.stats.iterations, soft.stats.converged ? 1 : 0);
  std::fprintf(f, "row\tcol\tleft\tright\tposterior\tmap\n");
  for (size_t i = 0; i < soft.posterior.rows(); ++i) {
    const std::string left = RealNodeName(result.graph1, log1,
                                          static_cast<int>(i));
    for (size_t j = 0; j < soft.posterior.cols(); ++j) {
      const int map = i < soft.map_assignment.size() &&
                              soft.map_assignment[i] == static_cast<int>(j)
                          ? 1
                          : 0;
      std::fprintf(f, "%zu\t%zu\t%s\t%s\t%.17g\t%d\n", i, j, left.c_str(),
                   RealNodeName(result.graph2, log2, static_cast<int>(j))
                       .c_str(),
                   soft.posterior.at(static_cast<NodeId>(i),
                                     static_cast<NodeId>(j)),
                   map);
    }
  }
  std::fclose(f);
  return Status::OK();
}

int RunCorpusQuery(const Flags& flags, store::ArtifactStore* store,
                   ObsContext* obs) {
  Result<MatchOptions> options = ToMatchOptions(flags);
  if (!options.ok()) {
    std::fprintf(stderr, "error: %s\n", options.status().message().c_str());
    return 2;
  }
  MatchOptions match_options = *options;
  if (obs != nullptr) match_options.obs.context = obs;
  // Parallelism goes across candidates, not inside one EMS run.
  match_options.ems.num_threads = 1;

  index::CorpusLoadOptions load;
  load.format = flags.format;
  load.index.min_edge_frequency = match_options.min_edge_frequency;
  load.index.obs = obs;
  load.store = store;

  Timer build_timer;
  Result<index::CorpusIndex> corpus =
      index::LoadCorpusFromDirectory(flags.corpus, load);
  if (!corpus.ok()) {
    std::fprintf(stderr, "error loading corpus %s: %s\n",
                 flags.corpus.c_str(), corpus.status().ToString().c_str());
    return 1;
  }
  const double build_millis = build_timer.ElapsedMillis();

  Result<EventLog> query = serve::LoadEventLogThroughStore(
      store, flags.positional[0], flags.format);
  if (!query.ok()) {
    std::fprintf(stderr, "error reading %s: %s\n", flags.positional[0].c_str(),
                 query.status().ToString().c_str());
    return 1;
  }

  exec::ThreadPoolOptions pool_options;
  pool_options.num_threads =
      flags.threads < 0 ? 0 : (flags.threads == 0 ? 1 : flags.threads);
  exec::ThreadPool pool(pool_options);

  index::TopKOptions topk_options;
  topk_options.k = static_cast<size_t>(flags.topk);
  topk_options.match = match_options;
  topk_options.pool = &pool;
  topk_options.obs = obs;
  topk_options.force_brute_force = flags.brute_force;
  index::TopKScheduler scheduler(*corpus, topk_options);

  Timer query_timer;
  Result<std::vector<index::TopKHit>> hits = scheduler.Query(
      PrepareLog(*std::move(query), PrepareOptionsFor(match_options)));
  const double query_millis = query_timer.ElapsedMillis();
  if (!hits.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 hits.status().ToString().c_str());
    return 1;
  }
  const index::TopKStats& stats = scheduler.stats();

  if (flags.json) {
    JsonWriter w;
    w.BeginObject();
    w.Key("query");
    w.String(flags.positional[0]);
    w.Key("corpus");
    w.String(flags.corpus);
    w.Key("k");
    w.Int(flags.topk);
    w.Key("build_millis");
    w.Number(build_millis);
    w.Key("query_millis");
    w.Number(query_millis);
    w.Key("hits");
    w.BeginArray();
    for (size_t i = 0; i < hits->size(); ++i) {
      const index::TopKHit& hit = (*hits)[i];
      w.BeginObject();
      w.Key("member");
      w.String(hit.name);
      w.Key("rank");
      w.Int(static_cast<long long>(i + 1));
      w.Key("score");
      w.Number(hit.score);
      w.Key("bound");
      w.Number(hit.bound);
      w.Key("correspondences");
      w.Int(static_cast<long long>(hit.match.correspondences.size()));
      w.EndObject();
    }
    w.EndArray();
    w.Key("index");
    w.BeginObject();
    w.Key("candidates_retrieved");
    w.Int(static_cast<long long>(stats.candidates_retrieved));
    w.Key("pruned_by_bound");
    w.Int(static_cast<long long>(stats.pruned_by_bound));
    w.Key("exact_runs");
    w.Int(static_cast<long long>(stats.exact_runs));
    w.Key("aborted_runs");
    w.Int(static_cast<long long>(stats.aborted_runs));
    w.Key("brute_force");
    w.Bool(stats.used_brute_force);
    w.EndObject();
    w.EndObject();
    std::printf("%s\n", w.str().c_str());
  } else if (flags.tsv) {
    std::printf("rank\tmember\tscore\n");
    for (size_t i = 0; i < hits->size(); ++i) {
      std::printf("%zu\t%s\t%.12f\n", i + 1, (*hits)[i].name.c_str(),
                  (*hits)[i].score);
    }
  } else {
    std::printf("corpus %s: %zu members (indexed in %.1f ms)\n",
                flags.corpus.c_str(), corpus->size(), build_millis);
    std::printf("top %d for %s:\n", flags.topk, flags.positional[0].c_str());
    for (size_t i = 0; i < hits->size(); ++i) {
      const index::TopKHit& hit = (*hits)[i];
      std::printf("  %2zu. %-48s score %.6f (%zu correspondences)\n", i + 1,
                  hit.name.c_str(), hit.score,
                  hit.match.correspondences.size());
    }
    if (stats.used_brute_force) {
      std::printf("\nbrute force: %llu exact runs in %.1f ms\n",
                  static_cast<unsigned long long>(stats.exact_runs),
                  query_millis);
    } else {
      std::printf("\nindex: %llu candidates, %llu pruned by bound, %llu "
                  "exact runs (%llu aborted) in %.1f ms\n",
                  static_cast<unsigned long long>(stats.candidates_retrieved),
                  static_cast<unsigned long long>(stats.pruned_by_bound),
                  static_cast<unsigned long long>(stats.exact_runs),
                  static_cast<unsigned long long>(stats.aborted_runs),
                  query_millis);
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Result<Flags> flags_result = ParseArgs(argc, argv);
  if (!flags_result.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 flags_result.status().message().c_str());
    Usage(argv[0]);
    return 2;
  }
  const Flags& flags = *flags_result;

  const bool want_obs = !flags.metrics_out.empty() || !flags.trace_out.empty();
  ObsContext obs;

  std::optional<store::ArtifactStore> artifact_store;
  if (!flags.cache_dir.empty()) {
    store::ArtifactStoreOptions store_options;
    store_options.dir = flags.cache_dir;
    store_options.obs = want_obs ? &obs : nullptr;
    Result<store::ArtifactStore> opened =
        store::ArtifactStore::Open(std::move(store_options));
    if (opened.ok()) {
      artifact_store = std::move(opened).value();
    } else {
      std::fprintf(stderr, "warning: %s; running without cache\n",
                   opened.status().message().c_str());
    }
  }
  store::ArtifactStore* store_ptr =
      artifact_store.has_value() ? &*artifact_store : nullptr;

  if (!flags.corpus.empty()) {
    return RunCorpusQuery(flags, store_ptr, want_obs ? &obs : nullptr);
  }

  Timer total_timer;
  ScopedSpan load_span(want_obs ? &obs : nullptr, "load_logs");
  Result<EventLog> log1 = serve::LoadEventLogThroughStore(
      store_ptr, flags.positional[0], flags.format);
  if (!log1.ok()) {
    std::fprintf(stderr, "error reading %s: %s\n",
                 flags.positional[0].c_str(),
                 log1.status().ToString().c_str());
    return 1;
  }
  Result<EventLog> log2 = serve::LoadEventLogThroughStore(
      store_ptr, flags.positional[1], flags.format);
  if (!log2.ok()) {
    std::fprintf(stderr, "error reading %s: %s\n",
                 flags.positional[1].c_str(),
                 log2.status().ToString().c_str());
    return 1;
  }
  load_span.End();

  Result<MatchOptions> options = ToMatchOptions(flags);
  if (!options.ok()) {
    std::fprintf(stderr, "error: %s\n", options.status().message().c_str());
    return 2;
  }

  MatchOptions match_options = *options;
  if (want_obs) match_options.obs.context = &obs;

  Matcher matcher(match_options);
  Result<MatchResult> result = matcher.Match(*log1, *log2);
  const double total_millis = total_timer.ElapsedMillis();
  if (!result.ok()) {
    std::fprintf(stderr, "matching failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  if (want_obs) {
    PipelineReport report =
        BuildPipelineReport(&obs, result->ems_stats, result->composite_stats,
                            total_millis);
    if (!flags.metrics_out.empty()) {
      Status st = report.WriteJsonFile(flags.metrics_out);
      if (!st.ok()) {
        std::fprintf(stderr, "error writing %s: %s\n",
                     flags.metrics_out.c_str(), st.ToString().c_str());
        return 1;
      }
    }
    if (!flags.trace_out.empty()) {
      Status st = report.WriteChromeTraceFile(flags.trace_out);
      if (!st.ok()) {
        std::fprintf(stderr, "error writing %s: %s\n",
                     flags.trace_out.c_str(), st.ToString().c_str());
        return 1;
      }
    }
  }

  // The posterior as TSV for external tooling (prob runs only).
  if (result->soft.has_value() && !flags.prob_out.empty()) {
    Status st = WritePosteriorTsv(flags.prob_out, *result, *log1, *log2);
    if (!st.ok()) {
      std::fprintf(stderr, "error writing %s: %s\n", flags.prob_out.c_str(),
                   st.ToString().c_str());
      return 1;
    }
  }

  if (flags.json) {
    std::printf("%s\n", MatchResultToJson(*result).c_str());
  } else if (flags.tsv) {
    if (result->soft.has_value()) {
      std::printf("left\tright\tsimilarity\tconfidence\n");
      for (const Correspondence& c : result->correspondences) {
        std::printf("%s\t%s\t%.6f\t%.6f\n", JoinNames(c.events1).c_str(),
                    JoinNames(c.events2).c_str(), c.similarity, c.confidence);
      }
    } else {
      std::printf("left\tright\tsimilarity\n");
      for (const Correspondence& c : result->correspondences) {
        std::printf("%s\t%s\t%.6f\n", JoinNames(c.events1).c_str(),
                    JoinNames(c.events2).c_str(), c.similarity);
      }
    }
  } else {
    std::printf("%s: %zu events, %zu traces\n", flags.positional[0].c_str(),
                log1->NumEvents(), log1->NumTraces());
    std::printf("%s: %zu events, %zu traces\n\n", flags.positional[1].c_str(),
                log2->NumEvents(), log2->NumTraces());
    std::printf("correspondences:\n");
    for (const Correspondence& c : result->correspondences) {
      if (result->soft.has_value()) {
        std::printf("  %-40s <-> %-40s (%.3f, conf %.3f)\n",
                    JoinNames(c.events1).c_str(), JoinNames(c.events2).c_str(),
                    c.similarity, c.confidence);
      } else {
        std::printf("  %-40s <-> %-40s (%.3f)\n", JoinNames(c.events1).c_str(),
                    JoinNames(c.events2).c_str(), c.similarity);
      }
    }
    std::printf("\n%zu correspondences; EMS: %d iterations, %llu formula "
                "evaluations\n",
                result->correspondences.size(), result->ems_stats.iterations,
                static_cast<unsigned long long>(
                    result->ems_stats.formula_evaluations));
    if (result->soft.has_value()) {
      const prob::EmStats& em = result->soft->stats;
      std::printf("prob: %d EM iterations (%s, final delta %.2e), mean "
                  "posterior entropy %.3f\n",
                  em.iterations, em.converged ? "converged" : "iteration cap",
                  em.final_delta, em.mean_entropy);
    }
  }
  if (flags.matrix) {
    std::printf("\nsimilarity matrix:\n%s",
                result->similarity.DebugString(result->graph1, result->graph2)
                    .c_str());
  }
  return 0;
}
