// Fixpoint-kernel benchmark: times the EMS iteration to convergence on a
// Figure-8-style scalability instance, comparing the naive test reference
// (tests/core/ems_reference.h, serial) against the kernel (CSR +
// frequency-class coefficient table + fused scan + delta-driven
// recomputation), serially and with 4 worker threads.
//
// Doubles as an equivalence harness: every kernel configuration's matrix
// is checked bit-identical against the reference, and the binary exits
// nonzero on any mismatch — so the CI perf-smoke step also guards the
// determinism contract.
//
// When EMS_BENCH_JSON_DIR names a directory, writes BENCH_fixpoint.json
// there (atomically, tmp + rename) with per-configuration timing,
// per-iteration kernel throughput, and the single-thread speedup of the
// kernel over the reference.
//
// Flags: --events=N (default 80), --reps=N (default 5), --seed=N.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "core/ems_reference.h"
#include "core/ems_similarity.h"
#include "graph/dependency_graph.h"
#include "synth/dataset.h"
#include "util/json_writer.h"
#include "util/timer.h"

namespace ems {
namespace {

struct ConfigResult {
  std::string name;
  double best_millis = 0.0;       // fastest rep (noise-robust)
  double mean_millis = 0.0;
  int iterations = 0;
  uint64_t formula_evaluations = 0;
  uint64_t pairs_pruned = 0;
  uint64_t pairs_skipped = 0;
  size_t coeff_table_bytes = 0;
  double pair_updates_per_sec = 0.0;  // evaluations / best time
};

// `reference` runs the serial test reference instead of the kernel.
ConfigResult RunConfig(const std::string& name, const DependencyGraph& g1,
                       const DependencyGraph& g2, bool reference, int threads,
                       int reps, SimilarityMatrix* out) {
  ConfigResult r;
  r.name = name;
  double total = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    EmsOptions opts;
    opts.direction = Direction::kBoth;
    opts.num_threads = threads;
    testing::ReferenceEms ref(g1, g2, opts);
    EmsSimilarity sim(g1, g2, opts);
    Timer timer;
    SimilarityMatrix s = reference ? ref.Compute() : sim.Compute();
    const double ms = timer.ElapsedMillis();
    total += ms;
    if (rep == 0 || ms < r.best_millis) r.best_millis = ms;
    if (rep == 0) {
      const EmsStats& stats = reference ? ref.stats() : sim.stats();
      *out = s;
      r.iterations = stats.iterations;
      r.formula_evaluations = stats.formula_evaluations;
      r.pairs_pruned = stats.pairs_pruned_converged;
      r.pairs_skipped = stats.pairs_skipped_unchanged;
      r.coeff_table_bytes = sim.coefficient_table_bytes();
    }
  }
  r.mean_millis = total / reps;
  r.pair_updates_per_sec = r.best_millis > 0.0
                               ? static_cast<double>(r.formula_evaluations) /
                                     (r.best_millis / 1000.0)
                               : 0.0;
  return r;
}

void WriteJson(const std::vector<ConfigResult>& results, int events,
               int reps, double speedup) {
  const char* env = std::getenv("EMS_BENCH_JSON_DIR");
  if (env == nullptr || env[0] == '\0') return;
  JsonWriter w;
  w.BeginObject();
  w.Key("figure");
  w.String("fixpoint");
  w.Key("description");
  w.String("EMS fixpoint: naive test reference vs kernel, serial and 4 "
           "threads");
  w.Key("events");
  w.Int(events);
  w.Key("reps");
  w.Int(reps);
  w.Key("speedup_single_thread");
  w.Number(speedup);
  w.Key("groups");
  w.BeginArray();
  for (const ConfigResult& r : results) {
    w.BeginObject();
    w.Key("method");
    w.String(r.name);
    w.Key("best_millis");
    w.Number(r.best_millis);
    w.Key("mean_millis");
    w.Number(r.mean_millis);
    w.Key("iterations");
    w.Int(r.iterations);
    w.Key("formula_evaluations");
    w.Int(static_cast<long long>(r.formula_evaluations));
    w.Key("pairs_pruned_converged");
    w.Int(static_cast<long long>(r.pairs_pruned));
    w.Key("pairs_skipped_unchanged");
    w.Int(static_cast<long long>(r.pairs_skipped));
    w.Key("coefficient_table_bytes");
    w.Int(static_cast<long long>(r.coeff_table_bytes));
    w.Key("pair_updates_per_sec");
    w.Number(r.pair_updates_per_sec);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  const std::string path = std::string(env) + "/BENCH_fixpoint.json";
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
  int events = 80;
  int reps = 5;
  uint64_t seed = 8;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&arg](const char* prefix) -> const char* {
      const std::string p = prefix;
      return arg.rfind(p, 0) == 0 ? arg.c_str() + p.size() : nullptr;
    };
    if (const char* v = value("--events=")) events = std::atoi(v);
    else if (const char* v = value("--reps=")) reps = std::atoi(v);
    else if (const char* v = value("--seed=")) seed = std::strtoull(v, nullptr, 10);
    else std::fprintf(stderr, "warning: ignoring unknown option '%s'\n",
                      arg.c_str());
  }
  if (events < 2 || reps < 1) {
    std::fprintf(stderr, "invalid --events/--reps\n");
    return 2;
  }

  std::printf("=====================================================\n");
  std::printf("fixpoint — EMS: test reference vs kernel (%d events)\n",
              events);
  std::printf("=====================================================\n");
  const LogPair pair = MakeScalabilityPairs(events, 1, seed).front();
  const DependencyGraph g1 = DependencyGraph::Build(pair.log1);
  const DependencyGraph g2 = DependencyGraph::Build(pair.log2);
  std::printf("graphs: %zu x %zu nodes, %zu / %zu edges\n", g1.NumNodes(),
              g2.NumNodes(), g1.NumEdges(), g2.NumEdges());

  struct Config {
    const char* name;
    bool reference;
    int threads;
  };
  const Config configs[] = {
      {"naive_1t", true, 1},
      {"optimized_1t", false, 1},
      {"optimized_4t", false, 4},
  };
  constexpr size_t kConfigs = sizeof(configs) / sizeof(configs[0]);

  std::vector<ConfigResult> results;
  std::vector<SimilarityMatrix> matrices(kConfigs);
  for (size_t i = 0; i < kConfigs; ++i) {
    results.push_back(RunConfig(configs[i].name, g1, g2, configs[i].reference,
                                configs[i].threads, reps, &matrices[i]));
    const ConfigResult& r = results.back();
    std::printf(
        "%-14s best %8.2f ms  mean %8.2f ms  %2d iters  %10llu evals  "
        "%8llu skipped  %.2e updates/s\n",
        r.name.c_str(), r.best_millis, r.mean_millis, r.iterations,
        static_cast<unsigned long long>(r.formula_evaluations),
        static_cast<unsigned long long>(r.pairs_skipped),
        r.pair_updates_per_sec);
  }

  // Equivalence harness: every kernel configuration must match the test
  // reference to the last bit.
  for (size_t i = 1; i < kConfigs; ++i) {
    const double diff = matrices[0].MaxAbsDifference(matrices[i]);
    if (diff != 0.0) {
      std::fprintf(stderr,
                   "EQUIVALENCE FAILURE: %s differs from naive_1t by %g\n",
                   results[i].name.c_str(), diff);
      return 1;
    }
  }
  std::printf("equivalence: all configurations bit-identical to naive_1t\n");

  const double speedup = results[1].best_millis > 0.0
                             ? results[0].best_millis / results[1].best_millis
                             : 0.0;
  std::printf("single-thread speedup (naive_1t / optimized_1t): %.2fx\n",
              speedup);
  WriteJson(results, events, reps, speedup);
  return 0;
}

}  // namespace
}  // namespace ems

int main(int argc, char** argv) { return ems::Main(argc, argv); }
