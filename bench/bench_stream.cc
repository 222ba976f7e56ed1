// Streaming-ingestion benchmark: cold full re-match vs incremental graph
// maintenance + warm-started EMS after append batches (docs/STREAMING.md).
// Runs a ladder of batch sizes over one growing log pair and reports,
// per rung, the cold rebuild+match time against the streaming path's
// append+warm-match time, with the iteration counts behind the saving
// and the graph part of each side (the cold Build, the streamed fold).
//
// Doubles as the contract harness — the binary exits nonzero unless:
//  * the incrementally maintained dependency graph re-encodes to the
//    exact snapshot bytes of a from-scratch rebuild after every batch;
//  * on the cyclic (epsilon-stop) config, the warm similarity matrix
//    stays within 10*epsilon of the cold one, small-batch warm
//    re-matches converge in <= 1/3 of the cold iteration count, and the
//    streamed ladder is >= 2x faster end to end than cold recomputation;
//  * on the acyclic run-to-horizon config, the warm similarity matrix
//    and correspondences are BYTE-identical to the cold recompute;
//  * a seed snapshot round-trip plus assume_unchanged resume reproduces
//    the last fixpoint byte-identically in one iteration (the restarted
//    ems_serve resume path).
//
// When EMS_BENCH_JSON_DIR names a directory, writes BENCH_stream.json
// there (atomically, tmp + rename) with the per-rung ladder and the
// identity-check verdicts.
//
// Flags: --activities=N (default 40), --traces=N (default 4000),
//        --batches=N (rungs per batch size, default 3),
//        --seed=N (default 17).
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/matcher.h"
#include "graph/dependency_graph.h"
#include "graph/streaming_graph.h"
#include "log/event_log.h"
#include "store/snapshot.h"
#include "synth/dataset.h"
#include "util/json_writer.h"
#include "util/timer.h"

namespace ems {
namespace {

struct Rung {
  int batch_traces = 0;
  int cold_iterations = 0;
  int warm_iterations = 0;
  int iterations_saved = 0;
  double cold_millis = 0.0;
  double warm_millis = 0.0;
  // The graph part of each side, timed inside its region: the cold
  // side's Build and the streamed side's AppendTraces + ApplyAppend. The
  // rest of each region is the match.
  double cold_build_millis = 0.0;
  double warm_fold_millis = 0.0;
};

struct ConfigReport {
  std::string name;
  std::vector<Rung> rungs;
  double total_cold_millis = 0.0;
  double total_warm_millis = 0.0;
};

int g_failures = 0;

void Check(bool ok, const std::string& what) {
  if (ok) return;
  ++g_failures;
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

std::vector<std::vector<std::string>> BatchNames(const EventLog& batch) {
  std::vector<std::vector<std::string>> names;
  names.reserve(batch.NumTraces());
  for (size_t t = 0; t < batch.NumTraces(); ++t) {
    std::vector<std::string> trace;
    trace.reserve(batch.trace(t).size());
    for (EventId id : batch.trace(t)) trace.push_back(batch.EventName(id));
    names.push_back(std::move(trace));
  }
  return names;
}

bool MatricesBitIdentical(const SimilarityMatrix& a,
                          const SimilarityMatrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  return a.data().empty() ||
         std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(double)) == 0;
}

bool AlignmentsBitIdentical(const MatchResult& a, const MatchResult& b) {
  if (a.correspondences.size() != b.correspondences.size()) return false;
  for (size_t i = 0; i < a.correspondences.size(); ++i) {
    const Correspondence& ca = a.correspondences[i];
    const Correspondence& cb = b.correspondences[i];
    if (ca.events1 != cb.events1 || ca.events2 != cb.events2) return false;
    if (std::memcmp(&ca.similarity, &cb.similarity, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

// One config: seed the warm chain with a cold match, then per ladder
// rung append a batch and race the streaming path against a from-scratch
// rebuild over the identical extended log.
//
// With byte_identity (the acyclic run-to-horizon regime) warm results
// must match cold bit for bit; otherwise (the cyclic epsilon-stop
// regime) both runs stop within epsilon of the true fixpoint, so warm
// and cold matrices must agree to `tolerance` but near-tied assignment
// choices may legitimately differ.
ConfigReport RunConfig(const std::string& name, const PairOptions& popts,
                       const MatchOptions& mopts,
                       const std::vector<int>& batch_sizes, int batches,
                       bool byte_identity, double tolerance) {
  ConfigReport report;
  report.name = name;

  LogPair pair = MakeLogPair(Testbed::kDsFB, popts);
  DependencyGraphOptions gopts;
  gopts.min_edge_frequency = mopts.min_edge_frequency;

  EventLog stream_log = pair.log1;
  StreamingDependencyGraph stream_graph(stream_log, gopts);
  DependencyGraph graph2 = DependencyGraph::Build(pair.log2, gopts);

  WarmSeed seed;
  PipelineInputs chain;  // each run seeds the next
  chain.seed = &seed;
  chain.next_seed = &seed;
  Result<MatchResult> cold_start = MatchGraphs(
      mopts, stream_log, pair.log2, stream_graph.graph(), graph2, chain);
  Check(cold_start.ok(), name + ": initial cold match failed");
  if (!cold_start.ok()) return report;

  // The batches continue log 1's own play-out; slice them off one shared
  // extension so every rung appends genuinely new traces.
  int total_batch_traces = 0;
  for (int b : batch_sizes) total_batch_traces += b * batches;
  PairOptions stream_popts = popts;
  std::vector<EventLog> extension =
      MakeAppendBatches(stream_popts, total_batch_traces, 1);
  std::vector<std::vector<std::string>> all_names = BatchNames(extension[0]);
  size_t next_trace = 0;

  for (int batch_traces : batch_sizes) {
    for (int rep = 0; rep < batches; ++rep) {
      std::vector<std::vector<std::string>> batch(
          all_names.begin() + static_cast<long>(next_trace),
          all_names.begin() + static_cast<long>(next_trace) +
              batch_traces);
      next_trace += static_cast<size_t>(batch_traces);

      Rung rung;
      rung.batch_traces = batch_traces;

      // Streaming path: fold the delta in place, warm re-match.
      Timer warm_timer;
      const AppendDelta delta = stream_log.AppendTraces(batch);
      (void)stream_graph.ApplyAppend(delta.first_new_trace);
      rung.warm_fold_millis = warm_timer.ElapsedMillis();
      WarmMatchStats warm_stats;
      chain.stats = &warm_stats;
      Result<MatchResult> warm = MatchGraphs(
          mopts, stream_log, pair.log2, stream_graph.graph(), graph2, chain);
      rung.warm_millis = warm_timer.ElapsedMillis();
      Check(warm.ok(), name + ": warm match failed");
      if (!warm.ok()) return report;

      // Cold path: rebuild the graph from the extended log, match
      // without a seed. (Parsing is excluded on both sides; the cold
      // side is flattered by that, not the stream side.)
      Timer cold_timer;
      DependencyGraph rebuilt = DependencyGraph::Build(stream_log, gopts);
      rung.cold_build_millis = cold_timer.ElapsedMillis();
      WarmMatchStats cold_stats;
      PipelineInputs cold_inputs;
      cold_inputs.stats = &cold_stats;
      Result<MatchResult> cold = MatchGraphs(mopts, stream_log, pair.log2,
                                             rebuilt, graph2, cold_inputs);
      rung.cold_millis = cold_timer.ElapsedMillis();
      Check(cold.ok(), name + ": cold match failed");
      if (!cold.ok()) return report;

      // The maintained graph must be indistinguishable from the rebuild
      // — same snapshot bytes, hence same nodes, CSR, frequencies, and
      // distance caches.
      Check(store::EncodeDependencyGraph(stream_graph.graph()) ==
                store::EncodeDependencyGraph(rebuilt),
            name + ": incremental graph != rebuilt graph after append");

      if (byte_identity) {
        Check(MatricesBitIdentical(warm->similarity, cold->similarity),
              name + ": warm similarity matrix not byte-identical to cold");
        Check(AlignmentsBitIdentical(*warm, *cold),
              name + ": warm alignment not byte-identical to cold");
      } else {
        Check(warm->similarity.MaxAbsDifference(cold->similarity) <=
                  tolerance,
              name + ": warm similarity drifted past tolerance from cold");
      }

      rung.cold_iterations = cold_stats.iterations;
      rung.warm_iterations = warm_stats.iterations;
      rung.iterations_saved = warm_stats.iterations_saved;
      report.total_cold_millis += rung.cold_millis;
      report.total_warm_millis += rung.warm_millis;
      report.rungs.push_back(rung);

      std::printf("%-16s batch %3d  cold %3d iters %8.2fms (build %6.3f)"
                  "   warm %3d iters %8.2fms (fold %6.3f)  (saved %d)\n",
                  name.c_str(), batch_traces, rung.cold_iterations,
                  rung.cold_millis, rung.cold_build_millis,
                  rung.warm_iterations, rung.warm_millis,
                  rung.warm_fold_millis, rung.iterations_saved);
    }
  }

  // Restart resume: the seed survives a snapshot round-trip and an
  // assume_unchanged re-match returns the persisted per-direction
  // fixpoints byte-identically in one iteration — what a restarted
  // ems_serve session serves. The horizon floor is a convergence aid for
  // real re-matches, not for identical-state resume, so it is off here
  // (as it is on the serve path).
  Result<WarmSeed> decoded = store::DecodeWarmSeed(store::EncodeWarmSeed(seed));
  Check(decoded.ok(), name + ": seed snapshot round-trip failed");
  if (decoded.ok()) {
    MatchOptions resume_opts = mopts;
    resume_opts.ems.run_to_horizon = false;
    WarmSeed next;
    WarmMatchStats resume_stats;
    PipelineInputs resume;
    resume.seed = &*decoded;
    resume.assume_unchanged = true;
    resume.next_seed = &next;
    resume.stats = &resume_stats;
    Result<MatchResult> resumed =
        MatchGraphs(resume_opts, stream_log, pair.log2, stream_graph.graph(),
                    graph2, resume);
    Check(resumed.ok(), name + ": resume match failed");
    if (resumed.ok()) {
      Check(resume_stats.iterations == 1,
            name + ": resume took more than one iteration");
      Check(MatricesBitIdentical(next.forward, seed.forward) &&
                MatricesBitIdentical(next.backward, seed.backward),
            name + ": resumed fixpoint != persisted fixpoint");
    }
  }
  return report;
}

void WriteJson(const std::vector<ConfigReport>& reports, int activities,
               int traces) {
  const char* env = std::getenv("EMS_BENCH_JSON_DIR");
  if (env == nullptr || env[0] == '\0') return;
  JsonWriter w;
  w.BeginObject();
  w.Key("figure");
  w.String("stream");
  w.Key("description");
  w.String("cold re-match vs incremental graph + warm-start EMS");
  w.Key("activities");
  w.Int(activities);
  w.Key("traces");
  w.Int(traces);
  w.Key("checks_failed");
  w.Int(g_failures);
  w.Key("configs");
  w.BeginArray();
  for (const ConfigReport& report : reports) {
    w.BeginObject();
    w.Key("name");
    w.String(report.name);
    w.Key("total_cold_millis");
    w.Number(report.total_cold_millis);
    w.Key("total_warm_millis");
    w.Number(report.total_warm_millis);
    w.Key("speedup");
    w.Number(report.total_warm_millis > 0.0
                 ? report.total_cold_millis / report.total_warm_millis
                 : 0.0);
    w.Key("rungs");
    w.BeginArray();
    for (const Rung& rung : report.rungs) {
      w.BeginObject();
      w.Key("batch_traces");
      w.Int(rung.batch_traces);
      w.Key("cold_iterations");
      w.Int(rung.cold_iterations);
      w.Key("warm_iterations");
      w.Int(rung.warm_iterations);
      w.Key("iterations_saved");
      w.Int(rung.iterations_saved);
      w.Key("cold_millis");
      w.Number(rung.cold_millis);
      w.Key("warm_millis");
      w.Number(rung.warm_millis);
      w.Key("cold_build_millis");
      w.Number(rung.cold_build_millis);
      w.Key("warm_fold_millis");
      w.Number(rung.warm_fold_millis);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  const std::string path = std::string(env) + "/BENCH_stream.json";
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

}  // namespace
}  // namespace ems

int main(int argc, char** argv) {
  using namespace ems;
  int activities = 40;
  int traces = 4000;
  int batches = 3;
  uint64_t seed = 17;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&](const char* name) -> const char* {
      std::string prefix = std::string("--") + name + "=";
      return arg.rfind(prefix, 0) == 0 ? arg.c_str() + prefix.size()
                                       : nullptr;
    };
    if (const char* v = value_of("activities")) activities = std::atoi(v);
    else if (const char* v = value_of("traces")) traces = std::atoi(v);
    else if (const char* v = value_of("batches")) batches = std::atoi(v);
    else if (const char* v = value_of("seed")) {
      seed = static_cast<uint64_t>(std::atoll(v));
    } else {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      return 2;
    }
  }

  std::vector<ConfigReport> reports;

  // Cyclic epsilon-stop config: loops give the dependency graphs cycles,
  // so pairs on them have infinite horizons and the fixpoint stops on
  // epsilon — the regime where a warm start saves iterations. A small
  // batch over a long history perturbs every coefficient by only
  // ~batch/traces, so the warm start opens within that distance of the
  // new fixpoint while a cold start contracts all the way from S^0; the
  // iteration ratio is roughly log(eps/(batch/traces)) / log(eps), which
  // is why the contract runs at the production epsilon over a long log
  // instead of an artificially tight one.
  {
    PairOptions popts;
    popts.num_activities = activities;
    popts.num_traces = traces;
    popts.seed = seed;
    MatchOptions mopts;
    reports.push_back(RunConfig("cyclic/eps", popts, mopts, {1, 5, 25},
                                batches, /*byte_identity=*/false,
                                /*tolerance=*/10.0 * mopts.ems.epsilon));
    const ConfigReport& cyclic = reports.back();
    // Contract: small appends re-converge in <= 1/3 of the cold count.
    for (const Rung& rung : cyclic.rungs) {
      if (rung.batch_traces > 5) continue;
      Check(rung.warm_iterations * 3 <= rung.cold_iterations,
            "cyclic/eps: batch of " + std::to_string(rung.batch_traces) +
                " warm took " + std::to_string(rung.warm_iterations) +
                " iterations vs cold " +
                std::to_string(rung.cold_iterations) + " (> 1/3)");
    }
    // Contract: the streamed ladder beats cold recomputation >= 2x.
    Check(cyclic.total_cold_millis >= 2.0 * cyclic.total_warm_millis,
          "cyclic/eps: end-to-end speedup below 2x (cold " +
              std::to_string(cyclic.total_cold_millis) + "ms, warm " +
              std::to_string(cyclic.total_warm_millis) + "ms)");
  }

  // Acyclic run-to-horizon config: without LOOP or AND operators the
  // direct-follows graphs are acyclic, every pair has a finite horizon,
  // and running to the horizon floor makes the fixpoint seed-independent
  // — warm results must be BYTE-identical to cold, not just close.
  {
    PairOptions popts;
    popts.num_activities = activities;
    popts.num_traces = traces;
    popts.seed = seed + 1;
    popts.tree.weight_loop = 0.0;
    popts.tree.weight_and = 0.0;
    MatchOptions mopts;
    mopts.ems.run_to_horizon = true;
    reports.push_back(RunConfig("acyclic/horizon", popts, mopts, {1, 5},
                                batches, /*byte_identity=*/true,
                                /*tolerance=*/0.0));
  }

  WriteJson(reports, activities, traces);
  for (const ConfigReport& report : reports) {
    std::printf("%-16s total cold %9.2fms  total warm %9.2fms  "
                "speedup %.2fx\n",
                report.name.c_str(), report.total_cold_millis,
                report.total_warm_millis,
                report.total_warm_millis > 0.0
                    ? report.total_cold_millis / report.total_warm_millis
                    : 0.0);
  }
  if (g_failures > 0) {
    std::fprintf(stderr, "%d streaming contract check(s) failed\n",
                 g_failures);
    return 1;
  }
  std::printf("all streaming contract checks passed\n");
  return 0;
}
