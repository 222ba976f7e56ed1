// The optimized EMS iteration kernel (CSR adjacency, precomputed
// coefficient tables, fused forward/transposed scan, delta-driven
// recomputation) must be bit-identical to the retained naive reference
// kernel: same matrices to the last bit, same iteration counts — across
// random graphs, serially and with 4 threads, with and without the
// coefficient tables, and composed with every RunControls mechanism.
#include <gtest/gtest.h>

#include "core/ems_similarity.h"
#include "paper_example.h"
#include "synth/dataset.h"

namespace ems {
namespace {

LogPair RandomPair(Testbed testbed, int activities, uint64_t seed) {
  PairOptions opts;
  opts.num_activities = activities;
  opts.num_traces = 60;
  opts.dislocation = 1;
  opts.seed = seed;
  return MakeLogPair(testbed, opts);
}

// A small graph with a real cycle (a -> b -> c -> a): longest distances
// on the cycle are infinite, so Proposition-2 pruning never fires there
// and the fixpoint is reached by epsilon alone.
DependencyGraph CyclicGraph(double scale) {
  return DependencyGraph::FromExplicit(
      {"a", "b", "c", "d"}, {1.0, 0.8 * scale, 0.6, 0.5 * scale},
      {{0, 1, 0.6 * scale}, {1, 2, 0.5}, {2, 0, 0.4 * scale}, {2, 3, 0.3}});
}

void ExpectKernelsBitIdentical(const DependencyGraph& g1,
                               const DependencyGraph& g2,
                               EmsOptions base,
                               const std::vector<std::vector<double>>* labels =
                                   nullptr) {
  EmsOptions naive = base;
  naive.kernel = EmsKernel::kNaive;
  EmsOptions optimized = base;
  optimized.kernel = EmsKernel::kOptimized;
  EmsSimilarity sim_naive(g1, g2, naive, labels);
  EmsSimilarity sim_opt(g1, g2, optimized, labels);
  SimilarityMatrix a = sim_naive.Compute();
  SimilarityMatrix b = sim_opt.Compute();
  EXPECT_EQ(a.MaxAbsDifference(b), 0.0);
  EXPECT_EQ(sim_naive.stats().iterations, sim_opt.stats().iterations);
}

TEST(EmsKernelTest, BitIdenticalOnRandomGraphsSerial) {
  for (Testbed testbed : {Testbed::kDsF, Testbed::kDsB, Testbed::kDsFB}) {
    for (uint64_t seed : {11u, 42u, 1337u}) {
      LogPair pair = RandomPair(testbed, 25, seed);
      DependencyGraph g1 = DependencyGraph::Build(pair.log1);
      DependencyGraph g2 = DependencyGraph::Build(pair.log2);
      EmsOptions opts;
      opts.direction = Direction::kBoth;
      ExpectKernelsBitIdentical(g1, g2, opts);
    }
  }
}

TEST(EmsKernelTest, BitIdenticalOnRandomGraphsFourThreads) {
  LogPair pair = RandomPair(Testbed::kDsFB, 30, 99);
  DependencyGraph g1 = DependencyGraph::Build(pair.log1);
  DependencyGraph g2 = DependencyGraph::Build(pair.log2);
  EmsOptions opts;
  opts.direction = Direction::kBoth;
  opts.num_threads = 4;
  ExpectKernelsBitIdentical(g1, g2, opts);

  // ... and the 4-thread optimized kernel matches the serial one.
  EmsOptions serial = opts;
  serial.num_threads = 1;
  EmsSimilarity sim_serial(g1, g2, serial);
  EmsSimilarity sim_parallel(g1, g2, opts);
  SimilarityMatrix a = sim_serial.Compute();
  SimilarityMatrix b = sim_parallel.Compute();
  EXPECT_EQ(a.MaxAbsDifference(b), 0.0);
  EXPECT_EQ(sim_serial.stats().formula_evaluations,
            sim_parallel.stats().formula_evaluations);
  EXPECT_EQ(sim_serial.stats().pairs_skipped_unchanged,
            sim_parallel.stats().pairs_skipped_unchanged);
}

TEST(EmsKernelTest, BitIdenticalWithoutCoefficientTables) {
  LogPair pair = RandomPair(Testbed::kDsFB, 20, 7);
  DependencyGraph g1 = DependencyGraph::Build(pair.log1);
  DependencyGraph g2 = DependencyGraph::Build(pair.log2);
  EmsOptions opts;
  opts.direction = Direction::kBoth;
  opts.coeff_table_max_bytes = 0;  // force the on-the-fly fallback
  ExpectKernelsBitIdentical(g1, g2, opts);
}

TEST(EmsKernelTest, BitIdenticalWithLabelsAndAlpha) {
  DependencyGraph g1 = testing::BuildPaperGraph1();
  DependencyGraph g2 = testing::BuildPaperGraph2();
  std::vector<std::vector<double>> labels(
      g1.NumNodes(), std::vector<double>(g2.NumNodes(), 0.0));
  for (size_t i = 0; i < labels.size(); ++i) {
    for (size_t j = 0; j < labels[i].size(); ++j) {
      labels[i][j] = static_cast<double>((i * 7 + j * 3) % 10) / 10.0;
    }
  }
  EmsOptions opts;
  opts.alpha = 0.5;
  opts.direction = Direction::kBoth;
  ExpectKernelsBitIdentical(g1, g2, opts, &labels);
}

TEST(EmsKernelTest, BitIdenticalOnCyclicGraphs) {
  DependencyGraph g1 = CyclicGraph(1.0);
  DependencyGraph g2 = CyclicGraph(0.9);
  for (bool prune : {true, false}) {
    EmsOptions opts;
    opts.direction = Direction::kBoth;
    opts.prune_converged = prune;
    ExpectKernelsBitIdentical(g1, g2, opts);
  }
}

TEST(EmsKernelTest, ComputePartialBitIdentical) {
  LogPair pair = RandomPair(Testbed::kDsB, 18, 5);
  DependencyGraph g1 = DependencyGraph::Build(pair.log1);
  DependencyGraph g2 = DependencyGraph::Build(pair.log2);
  for (int iterations : {1, 3, 6}) {
    EmsOptions naive;
    naive.kernel = EmsKernel::kNaive;
    EmsOptions optimized;
    optimized.kernel = EmsKernel::kOptimized;
    EmsSimilarity sim_naive(g1, g2, naive);
    EmsSimilarity sim_opt(g1, g2, optimized);
    SimilarityMatrix a = sim_naive.ComputePartial(Direction::kForward,
                                                  iterations);
    SimilarityMatrix b = sim_opt.ComputePartial(Direction::kForward,
                                                iterations);
    EXPECT_EQ(a.MaxAbsDifference(b), 0.0) << iterations << " iterations";
  }
}

TEST(EmsKernelTest, DeltaSkipSavesEvaluationsWithoutChangingResults) {
  LogPair pair = RandomPair(Testbed::kDsFB, 30, 21);
  DependencyGraph g1 = DependencyGraph::Build(pair.log1);
  DependencyGraph g2 = DependencyGraph::Build(pair.log2);
  // Pruning disabled: on a DAG Proposition-2 pruning is checked first and
  // absorbs the very pairs whose neighborhoods stabilized, so delta-skip
  // savings only become visible on their own.
  EmsOptions with;
  with.direction = Direction::kBoth;
  with.skip_unchanged = true;
  with.prune_converged = false;
  EmsOptions without = with;
  without.skip_unchanged = false;
  EmsSimilarity sim_with(g1, g2, with);
  EmsSimilarity sim_without(g1, g2, without);
  SimilarityMatrix a = sim_with.Compute();
  SimilarityMatrix b = sim_without.Compute();
  EXPECT_EQ(a.MaxAbsDifference(b), 0.0);
  EXPECT_GT(sim_with.stats().pairs_skipped_unchanged, 0u);
  EXPECT_EQ(sim_without.stats().pairs_skipped_unchanged, 0u);
  EXPECT_LT(sim_with.stats().formula_evaluations,
            sim_without.stats().formula_evaluations);
}

TEST(EmsKernelTest, CoefficientTableMemoryReportedAndCapped) {
  DependencyGraph g1 = testing::BuildPaperGraph1();
  DependencyGraph g2 = testing::BuildPaperGraph2();
  EmsOptions opts;
  opts.direction = Direction::kBoth;
  EmsSimilarity sim(g1, g2, opts);
  EXPECT_EQ(sim.coefficient_table_bytes(), 0u);  // lazily built
  (void)sim.Compute();
  EXPECT_GT(sim.coefficient_table_bytes(), 0u);

  EmsOptions capped = opts;
  capped.coeff_table_max_bytes = 8;  // too small for any real graph pair
  EmsSimilarity sim_capped(g1, g2, capped);
  SimilarityMatrix a = sim_capped.Compute();
  EXPECT_EQ(sim_capped.coefficient_table_bytes(), 0u);
  EXPECT_EQ(a.MaxAbsDifference(sim.Compute()), 0.0);
}

// RunControls interactions (frozen rows + frozen cols + Proposition-2
// pruning + delta-skipping together, on a cyclic graph) — previously
// only tested pairwise.
TEST(EmsKernelTest, RunControlsComposeOnCyclicGraph) {
  DependencyGraph g1 = CyclicGraph(1.0);
  DependencyGraph g2 = CyclicGraph(0.8);
  const NodeId frozen_row = 2;  // node "b" (after the artificial shift)
  const NodeId frozen_col = 3;  // node "c"
  std::vector<bool> rows(g1.NumNodes(), false);
  rows[static_cast<size_t>(frozen_row)] = true;
  std::vector<bool> cols(g2.NumNodes(), false);
  cols[static_cast<size_t>(frozen_col)] = true;
  SimilarityMatrix values(g1.NumNodes(), g2.NumNodes(), 0.0);
  for (NodeId v1 = 1; v1 < static_cast<NodeId>(g1.NumNodes()); ++v1) {
    for (NodeId v2 = 1; v2 < static_cast<NodeId>(g2.NumNodes()); ++v2) {
      values.set(v1, v2, 0.25 + 0.05 * static_cast<double>(v1 + v2));
    }
  }

  auto run = [&](EmsKernel kernel, bool skip_unchanged, int threads,
                 EmsStats* stats) {
    EmsOptions opts;
    opts.kernel = kernel;
    opts.skip_unchanged = skip_unchanged;
    opts.prune_converged = true;
    opts.num_threads = threads;
    RunControls controls;
    controls.frozen_rows = &rows;
    controls.frozen_cols = &cols;
    controls.frozen_values = &values;
    EmsSimilarity sim(g1, g2, opts);
    SimilarityMatrix s = sim.ComputeControlled(Direction::kForward, controls);
    if (stats != nullptr) *stats = sim.stats();
    return s;
  };

  EmsStats naive_stats, opt_stats;
  SimilarityMatrix naive = run(EmsKernel::kNaive, false, 1, &naive_stats);
  SimilarityMatrix opt = run(EmsKernel::kOptimized, true, 1, &opt_stats);
  SimilarityMatrix opt4 = run(EmsKernel::kOptimized, true, 4, nullptr);
  EXPECT_EQ(naive.MaxAbsDifference(opt), 0.0);
  EXPECT_EQ(naive.MaxAbsDifference(opt4), 0.0);
  EXPECT_EQ(naive_stats.iterations, opt_stats.iterations);

  // Frozen entries hold their injected values exactly, in every variant.
  for (NodeId v2 = 1; v2 < static_cast<NodeId>(g2.NumNodes()); ++v2) {
    EXPECT_DOUBLE_EQ(opt.at(frozen_row, v2), values.at(frozen_row, v2));
  }
  for (NodeId v1 = 1; v1 < static_cast<NodeId>(g1.NumNodes()); ++v1) {
    EXPECT_DOUBLE_EQ(opt.at(v1, frozen_col), values.at(v1, frozen_col));
  }
  // Non-frozen pairs still iterate to a nonzero fixpoint.
  EXPECT_GT(opt.at(1, 1), 0.0);
}

TEST(EmsKernelTest, AbortCallbackComposesWithDeltaSkip) {
  DependencyGraph g1 = CyclicGraph(1.0);
  DependencyGraph g2 = CyclicGraph(0.7);
  for (EmsKernel kernel : {EmsKernel::kNaive, EmsKernel::kOptimized}) {
    bool aborted = false;
    RunControls controls;
    controls.should_abort = [](Direction, int k, const SimilarityMatrix&,
                             const SimilarityMatrix*) {
      return k >= 3;
    };
    controls.aborted = &aborted;
    EmsOptions opts;
    opts.kernel = kernel;
    EmsSimilarity sim(g1, g2, opts);
    (void)sim.ComputeControlled(Direction::kForward, controls);
    EXPECT_TRUE(aborted);
    EXPECT_EQ(sim.stats().iterations, 3);
  }
}

}  // namespace
}  // namespace ems
