// The EMS iteration kernel (CSR adjacency, frequency-class coefficient
// table, fused forward/transposed scan, delta-driven recomputation) must
// be bit-identical to the naive test reference (core/ems_reference.h):
// same matrices to the last bit, same iteration counts — across random
// graphs, serially and with 4 threads, on graphs whose edges share
// frequencies, and composed with every RunControls mechanism.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "core/ems_reference.h"
#include "core/ems_similarity.h"
#include "paper_example.h"
#include "synth/dataset.h"

namespace ems {
namespace {

using testing::ReferenceEms;

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

// Two graphs whose real edges repeat a handful of frequencies, so the
// coefficient table has fewer rows than g1 has real neighbor-list
// entries (D1 < E1).
DependencyGraph SharedFrequencyGraph(double f) {
  return DependencyGraph::FromExplicit(
      {"a", "b", "c", "d", "e"}, {1.0, f, f, 0.5, 0.5},
      {{0, 1, f}, {0, 2, f}, {1, 3, 0.5}, {2, 3, 0.5}, {1, 4, f},
       {2, 4, f}, {3, 4, 0.5}});
}

// Real neighbor-list entries (E) and their distinct frequencies (D).
struct EntryCounts {
  size_t entries = 0;
  size_t distinct = 0;
};

EntryCounts CountRealEntries(const CsrAdjacency& adj) {
  std::vector<double> f(adj.frequencies.begin() + adj.offsets[1],
                        adj.frequencies.end());
  std::sort(f.begin(), f.end());
  EntryCounts counts;
  counts.entries = f.size();
  counts.distinct = static_cast<size_t>(
      std::unique(f.begin(), f.end()) - f.begin());
  return counts;
}

void ExpectKernelsBitIdentical(const DependencyGraph& g1,
                               const DependencyGraph& g2,
                               EmsOptions base,
                               const std::vector<std::vector<double>>* labels =
                                   nullptr) {
  ReferenceEms reference(g1, g2, base, labels);
  EmsSimilarity sim(g1, g2, base, labels);
  SimilarityMatrix a = reference.Compute();
  SimilarityMatrix b = sim.Compute();
  EXPECT_EQ(a.MaxAbsDifference(b), 0.0);
  EXPECT_EQ(reference.stats().iterations, sim.stats().iterations);
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

TEST(EmsKernelTest, BitIdenticalWhenEdgesShareFrequencies) {
  DependencyGraph g1 = SharedFrequencyGraph(0.6);
  DependencyGraph g2 = SharedFrequencyGraph(0.7);
  for (const CsrAdjacency& adj :
       {g1.ExportPredecessorCsr(), g1.ExportSuccessorCsr()}) {
    const EntryCounts counts = CountRealEntries(adj);
    EXPECT_LT(counts.distinct, counts.entries);
  }
  for (int threads : {1, 4}) {
    EmsOptions opts;
    opts.direction = Direction::kBoth;
    opts.num_threads = threads;
    ExpectKernelsBitIdentical(g1, g2, opts);
  }
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

// A complete DAG on six real nodes: every edge runs from the lower to
// the higher index, or the reverse when `reversed`. With the edges to and
// from v^X, the real nodes' in- and out-neighbor lists hold 1 to 6
// entries each, so the fused scan pairs rows of N(v1) two at a time with
// and without an odd row left over, against every column count.
DependencyGraph TournamentGraph(bool reversed, double scale) {
  std::vector<std::tuple<NodeId, NodeId, double>> edges;
  for (NodeId i = 0; i < 6; ++i) {
    for (NodeId j = i + 1; j < 6; ++j) {
      const double f =
          scale * (0.1 + 0.05 * static_cast<double>((3 * i + j) % 7));
      edges.emplace_back(reversed ? j : i, reversed ? i : j, f);
    }
  }
  return DependencyGraph::FromExplicit(
      {"a", "b", "c", "d", "e", "f"}, {1.0, 0.9, 0.8, 0.7, 0.6, 0.5}, edges);
}

TEST(EmsKernelTest, BitIdenticalForEveryNeighborCountUpToSix) {
  const DependencyGraph g1 = TournamentGraph(false, 1.0);
  const DependencyGraph g2 = TournamentGraph(true, 0.9);
  for (const DependencyGraph* g : {&g1, &g2}) {
    for (const CsrAdjacency& adj :
         {g->ExportPredecessorCsr(), g->ExportSuccessorCsr()}) {
      std::vector<int32_t> degrees;
      for (NodeId v = 1; v < static_cast<NodeId>(g->NumNodes()); ++v) {
        degrees.push_back(adj.Degree(v));
      }
      std::sort(degrees.begin(), degrees.end());
      EXPECT_EQ(degrees, (std::vector<int32_t>{1, 2, 3, 4, 5, 6}));
    }
  }
  std::vector<std::vector<double>> labels(
      g1.NumNodes(), std::vector<double>(g2.NumNodes(), 0.0));
  for (size_t i = 1; i < labels.size(); ++i) {
    for (size_t j = 1; j < labels[i].size(); ++j) {
      labels[i][j] = static_cast<double>((i * 5 + j * 3) % 11) / 10.0;
    }
  }
  for (int threads : {1, 4}) {
    for (bool prune : {true, false}) {
      EmsOptions opts;
      opts.alpha = 0.5;
      opts.direction = Direction::kBoth;
      opts.num_threads = threads;
      opts.prune_converged = prune;
      ExpectKernelsBitIdentical(g1, g2, opts, &labels);
    }
  }
}

TEST(EmsKernelTest, ComputePartialBitIdentical) {
  LogPair pair = RandomPair(Testbed::kDsB, 18, 5);
  DependencyGraph g1 = DependencyGraph::Build(pair.log1);
  DependencyGraph g2 = DependencyGraph::Build(pair.log2);
  for (int iterations : {1, 3, 6}) {
    EmsOptions opts;
    ReferenceEms reference(g1, g2, opts);
    EmsSimilarity sim(g1, g2, opts);
    SimilarityMatrix a = reference.ComputePartial(Direction::kForward,
                                                  iterations);
    SimilarityMatrix b = sim.ComputePartial(Direction::kForward, iterations);
    EXPECT_EQ(a.MaxAbsDifference(b), 0.0) << iterations << " iterations";
  }
}

TEST(EmsKernelTest, DeltaSkipSavesEvaluationsWithoutChangingResults) {
  LogPair pair = RandomPair(Testbed::kDsFB, 30, 21);
  DependencyGraph g1 = DependencyGraph::Build(pair.log1);
  DependencyGraph g2 = DependencyGraph::Build(pair.log2);
  // Pruning disabled: on a DAG Proposition-2 pruning is checked first and
  // absorbs the very pairs whose neighborhoods stabilized, so delta-skip
  // savings only become visible on their own. The reference never skips,
  // so it evaluates every pair of every iteration.
  EmsOptions opts;
  opts.direction = Direction::kBoth;
  opts.prune_converged = false;
  EmsSimilarity sim(g1, g2, opts);
  ReferenceEms reference(g1, g2, opts);
  SimilarityMatrix a = sim.Compute();
  SimilarityMatrix b = reference.Compute();
  EXPECT_EQ(a.MaxAbsDifference(b), 0.0);
  EXPECT_GT(sim.stats().pairs_skipped_unchanged, 0u);
  EXPECT_EQ(reference.stats().pairs_skipped_unchanged, 0u);
  EXPECT_LT(sim.stats().formula_evaluations,
            reference.stats().formula_evaluations);
}

TEST(EmsKernelTest, CoefficientTableHoldsOneRowPerFrequencyClass) {
  LogPair pair = RandomPair(Testbed::kDsFB, 30, 3);
  DependencyGraph g1 = DependencyGraph::Build(pair.log1);
  DependencyGraph g2 = DependencyGraph::Build(pair.log2);
  EmsOptions opts;
  opts.direction = Direction::kBoth;
  EmsSimilarity sim(g1, g2, opts);
  EXPECT_EQ(sim.coefficient_table_bytes(), 0u);  // lazily built
  (void)sim.Compute();

  // 8 * D1 * E2 per direction, never more than the 8 * E1 * E2 of one
  // coefficient per neighbor pair.
  size_t class_bytes = 0;
  size_t pair_bytes = 0;
  const CsrAdjacency a1[] = {g1.ExportPredecessorCsr(),
                             g1.ExportSuccessorCsr()};
  const CsrAdjacency a2[] = {g2.ExportPredecessorCsr(),
                             g2.ExportSuccessorCsr()};
  for (int d = 0; d < 2; ++d) {
    const EntryCounts c1 = CountRealEntries(a1[d]);
    const EntryCounts c2 = CountRealEntries(a2[d]);
    class_bytes += sizeof(double) * c1.distinct * c2.entries;
    pair_bytes += sizeof(double) * c1.entries * c2.entries;
  }
  EXPECT_GT(class_bytes, 0u);
  EXPECT_EQ(sim.coefficient_table_bytes(), class_bytes);
  EXPECT_LE(class_bytes, pair_bytes);
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

  RunControls controls;
  controls.frozen_rows = &rows;
  controls.frozen_cols = &cols;
  controls.frozen_values = &values;
  auto options = [](int threads) {
    EmsOptions opts;
    opts.prune_converged = true;
    opts.num_threads = threads;
    return opts;
  };
  auto run = [&](int threads, EmsStats* stats) {
    EmsSimilarity sim(g1, g2, options(threads));
    SimilarityMatrix s = sim.ComputeControlled(Direction::kForward, controls);
    if (stats != nullptr) *stats = sim.stats();
    return s;
  };

  ReferenceEms reference(g1, g2, options(1));
  SimilarityMatrix naive =
      reference.ComputeControlled(Direction::kForward, controls);
  const EmsStats naive_stats = reference.stats();
  EmsStats opt_stats;
  SimilarityMatrix opt = run(1, &opt_stats);
  SimilarityMatrix opt4 = run(4, nullptr);
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
  auto expect_abort_at_three = [](auto* sim) {
    bool aborted = false;
    RunControls controls;
    controls.should_abort = [](Direction, int k, const SimilarityMatrix&,
                             const SimilarityMatrix*) {
      return k >= 3;
    };
    controls.aborted = &aborted;
    (void)sim->ComputeControlled(Direction::kForward, controls);
    EXPECT_TRUE(aborted);
    EXPECT_EQ(sim->stats().iterations, 3);
  };
  ReferenceEms reference(g1, g2, EmsOptions{});
  EmsSimilarity sim(g1, g2, EmsOptions{});
  expect_abort_at_three(&reference);
  expect_abort_at_three(&sim);
}

}  // namespace
}  // namespace ems
