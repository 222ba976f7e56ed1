// google-benchmark microbenchmarks of the computational kernels: graph
// construction, one EMS iteration sweep, estimation, Hungarian selection,
// and q-gram label similarity.
#include <benchmark/benchmark.h>

#include "assignment/hungarian.h"
#include "core/estimation.h"
#include "core/ems_similarity.h"
#include "obs/context.h"
#include "synth/dataset.h"
#include "text/qgram.h"

namespace ems {
namespace {

LogPair MakeBenchPair(int activities) {
  PairOptions opts;
  opts.num_activities = activities;
  opts.num_traces = 100;
  opts.dislocation = 1;
  opts.seed = 77;
  return MakeLogPair(Testbed::kDsFB, opts);
}

void BM_DependencyGraphBuild(benchmark::State& state) {
  LogPair pair = MakeBenchPair(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    DependencyGraph g = DependencyGraph::Build(pair.log1);
    benchmark::DoNotOptimize(g.NumEdges());
  }
}
BENCHMARK(BM_DependencyGraphBuild)->Arg(20)->Arg(50)->Arg(100);

void BM_EmsExact(benchmark::State& state) {
  LogPair pair = MakeBenchPair(static_cast<int>(state.range(0)));
  DependencyGraph g1 = DependencyGraph::Build(pair.log1);
  DependencyGraph g2 = DependencyGraph::Build(pair.log2);
  for (auto _ : state) {
    EmsOptions opts;
    EmsSimilarity sim(g1, g2, opts);
    SimilarityMatrix m = sim.Compute();
    benchmark::DoNotOptimize(m.at(1, 1));
  }
}
BENCHMARK(BM_EmsExact)->Arg(20)->Arg(50)->Arg(100);

// Same kernel with an ObsContext attached: the delta against BM_EmsExact
// is the cost of enabled instrumentation (spans per direction + counter
// flushes per run), and BM_EmsExact itself carries the disabled-path
// cost (null-pointer checks only) — the <2% overhead budget.
void BM_EmsExactObserved(benchmark::State& state) {
  LogPair pair = MakeBenchPair(static_cast<int>(state.range(0)));
  DependencyGraph g1 = DependencyGraph::Build(pair.log1);
  DependencyGraph g2 = DependencyGraph::Build(pair.log2);
  ObsContext obs;
  for (auto _ : state) {
    EmsOptions opts;
    opts.obs = &obs;
    EmsSimilarity sim(g1, g2, opts);
    SimilarityMatrix m = sim.Compute();
    benchmark::DoNotOptimize(m.at(1, 1));
  }
}
BENCHMARK(BM_EmsExactObserved)->Arg(20)->Arg(50)->Arg(100);

void BM_EmsEstimated(benchmark::State& state) {
  LogPair pair = MakeBenchPair(static_cast<int>(state.range(0)));
  DependencyGraph g1 = DependencyGraph::Build(pair.log1);
  DependencyGraph g2 = DependencyGraph::Build(pair.log2);
  for (auto _ : state) {
    EstimationOptions opts;
    opts.exact_iterations = static_cast<int>(state.range(1));
    EstimatedEmsSimilarity sim(g1, g2, opts);
    SimilarityMatrix m = sim.Compute();
    benchmark::DoNotOptimize(m.at(1, 1));
  }
}
BENCHMARK(BM_EmsEstimated)->Args({50, 0})->Args({50, 5})->Args({100, 0})
    ->Args({100, 5});

void BM_HungarianAssignment(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::mt19937_64 rng(13);
  std::vector<std::vector<double>> weights(n, std::vector<double>(n));
  for (auto& row : weights) {
    for (double& v : row) {
      v = static_cast<double>(rng() % 1000) / 1000.0;
    }
  }
  for (auto _ : state) {
    std::vector<int> a = MaxWeightAssignment(weights);
    benchmark::DoNotOptimize(a.data());
  }
}
BENCHMARK(BM_HungarianAssignment)->Arg(20)->Arg(50)->Arg(100);

void BM_QGramCosine(benchmark::State& state) {
  std::string a = "Check Inventory And Validate Order";
  std::string b = "check_inventory_and_validation_of_order";
  for (auto _ : state) {
    benchmark::DoNotOptimize(QGramCosine(a, b));
  }
}
BENCHMARK(BM_QGramCosine);

}  // namespace
}  // namespace ems

BENCHMARK_MAIN();
