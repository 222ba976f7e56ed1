#include "core/ems_similarity.h"

#include <cstring>

#include <gtest/gtest.h>

#include "core/ems_reference.h"
#include "obs/context.h"
#include "paper_example.h"
#include "text/label_similarity.h"

namespace ems {
namespace {

using testing::BuildPaperGraph1;
using testing::BuildPaperGraph2;
using testing::BuildPaperLog1;
using testing::BuildPaperLog2;

EmsOptions Opts(Direction dir = Direction::kForward) {
  EmsOptions opts;
  opts.alpha = 1.0;
  opts.c = 0.8;
  opts.direction = dir;
  return opts;
}

bool BitIdentical(const SimilarityMatrix& a, const SimilarityMatrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(double)) == 0;
}

TEST(EmsSimilarityTest, ValuesStayInUnitInterval) {
  DependencyGraph g1 = BuildPaperGraph1();
  DependencyGraph g2 = BuildPaperGraph2();
  EmsSimilarity sim(g1, g2, Opts(Direction::kBoth));
  SimilarityMatrix s = sim.Compute();
  for (NodeId v1 = 0; v1 < static_cast<NodeId>(s.rows()); ++v1) {
    for (NodeId v2 = 0; v2 < static_cast<NodeId>(s.cols()); ++v2) {
      EXPECT_GE(s.at(v1, v2), 0.0);
      EXPECT_LE(s.at(v1, v2), 1.0);
    }
  }
}

TEST(EmsSimilarityTest, ArtificialPairPinnedAtOne) {
  DependencyGraph g1 = BuildPaperGraph1();
  DependencyGraph g2 = BuildPaperGraph2();
  EmsSimilarity sim(g1, g2, Opts());
  SimilarityMatrix s = sim.Compute();
  EXPECT_DOUBLE_EQ(s.at(0, 0), 1.0);
  // Mixed artificial/real pairs stay 0.
  EXPECT_DOUBLE_EQ(s.at(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(s.at(1, 0), 0.0);
}

TEST(EmsSimilarityTest, MonotoneNonDecreasingAcrossIterations) {
  // Theorem 1's monotonicity, sampled at iterations 1..6.
  DependencyGraph g1 = BuildPaperGraph1();
  DependencyGraph g2 = BuildPaperGraph2();
  SimilarityMatrix prev;
  for (int n = 1; n <= 6; ++n) {
    EmsSimilarity sim(g1, g2, Opts());
    SimilarityMatrix cur = sim.ComputePartial(Direction::kForward, n);
    if (n > 1) {
      for (NodeId v1 = 0; v1 < static_cast<NodeId>(cur.rows()); ++v1) {
        for (NodeId v2 = 0; v2 < static_cast<NodeId>(cur.cols()); ++v2) {
          EXPECT_GE(cur.at(v1, v2) + 1e-12, prev.at(v1, v2));
        }
      }
    }
    prev = cur;
  }
}

TEST(EmsSimilarityTest, IdenticalGraphsPreferDiagonal) {
  // Matching a graph against itself: the diagonal must dominate its row.
  DependencyGraph g = BuildPaperGraph2();
  EmsSimilarity sim(g, g, Opts(Direction::kBoth));
  SimilarityMatrix s = sim.Compute();
  for (NodeId v = 1; v < static_cast<NodeId>(g.NumNodes()); ++v) {
    for (NodeId u = 1; u < static_cast<NodeId>(g.NumNodes()); ++u) {
      if (u == v) continue;
      EXPECT_GE(s.at(v, v) + 1e-9, s.at(v, u))
          << "diagonal not maximal for " << g.NodeName(v) << " vs "
          << g.NodeName(u);
    }
  }
}

TEST(EmsSimilarityTest, PruningDoesNotChangeResult) {
  DependencyGraph g1 = BuildPaperGraph1();
  DependencyGraph g2 = BuildPaperGraph2();
  // The test reference isolates Proposition-2 pruning: it never
  // delta-skips, whereas the kernel's unchanged-neighborhood skips can
  // soak up the same pairs pruning would save (their interaction is
  // covered by ems_kernel_test).
  EmsOptions with = Opts(Direction::kBoth);
  with.prune_converged = true;
  EmsOptions without = Opts(Direction::kBoth);
  without.prune_converged = false;
  testing::ReferenceEms sim_with(g1, g2, with);
  testing::ReferenceEms sim_without(g1, g2, without);
  SimilarityMatrix a = sim_with.Compute();
  SimilarityMatrix b = sim_without.Compute();
  EXPECT_LT(a.MaxAbsDifference(b), 1e-9);
  // ... and pruning must save formula evaluations.
  EXPECT_LT(sim_with.stats().formula_evaluations,
            sim_without.stats().formula_evaluations);
  EXPECT_GT(sim_with.stats().pairs_pruned_converged, 0u);
  EXPECT_EQ(sim_with.stats().pairs_skipped_unchanged, 0u);

  // With the default options (pruning AND delta-skipping) the matrix is
  // still the same, and the combined savings are at least pruning's own.
  EmsSimilarity sim_default(g1, g2, Opts(Direction::kBoth));
  SimilarityMatrix c = sim_default.Compute();
  EXPECT_LT(a.MaxAbsDifference(c), 1e-9);
  EXPECT_GE(sim_default.stats().pairs_pruned_converged +
                sim_default.stats().pairs_skipped_unchanged,
            sim_with.stats().pairs_pruned_converged);
  EXPECT_LE(sim_default.stats().formula_evaluations,
            sim_with.stats().formula_evaluations);
}

TEST(EmsSimilarityTest, LabelSimilarityBlendsIn) {
  DependencyGraph g1 = BuildPaperGraph1();
  DependencyGraph g2 = BuildPaperGraph2();
  // All-ones label matrix with alpha = 0 must give similarity 1 for all
  // real pairs.
  std::vector<std::vector<double>> labels(
      g1.NumNodes(), std::vector<double>(g2.NumNodes(), 1.0));
  EmsOptions opts = Opts();
  opts.alpha = 0.0;
  EmsSimilarity sim(g1, g2, opts, &labels);
  SimilarityMatrix s = sim.Compute();
  for (NodeId v1 = 1; v1 < static_cast<NodeId>(s.rows()); ++v1) {
    for (NodeId v2 = 1; v2 < static_cast<NodeId>(s.cols()); ++v2) {
      EXPECT_DOUBLE_EQ(s.at(v1, v2), 1.0);
    }
  }
}

TEST(EmsSimilarityTest, AlphaInterpolatesBetweenStructureAndLabels) {
  DependencyGraph g1 = BuildPaperGraph1();
  DependencyGraph g2 = BuildPaperGraph2();
  std::vector<std::vector<double>> labels(
      g1.NumNodes(), std::vector<double>(g2.NumNodes(), 0.0));
  labels[1 + testing::A][1 + testing::N2] = 1.0;
  EmsOptions half = Opts();
  half.alpha = 0.5;
  EmsSimilarity sim_half(g1, g2, half, &labels);
  SimilarityMatrix s_half = sim_half.Compute();
  EmsSimilarity sim_full(g1, g2, Opts());
  SimilarityMatrix s_full = sim_full.Compute();
  // With labels favoring (A, N2), its blended similarity must exceed the
  // alpha-weighted structural one.
  EXPECT_GT(s_half.at(1 + testing::A, 1 + testing::N2),
            0.5 * s_full.at(1 + testing::A, 1 + testing::N2));
}

TEST(EmsSimilarityTest, BothDirectionIsAverageOfForwardAndBackward) {
  DependencyGraph g1 = BuildPaperGraph1();
  DependencyGraph g2 = BuildPaperGraph2();
  EmsSimilarity both(g1, g2, Opts(Direction::kBoth));
  SimilarityMatrix s_both = both.Compute();
  EmsSimilarity fwd(g1, g2, Opts(Direction::kForward));
  SimilarityMatrix s_fwd = fwd.Compute();
  EmsSimilarity bwd(g1, g2, Opts(Direction::kBackward));
  SimilarityMatrix s_bwd = bwd.Compute();
  for (NodeId v1 = 0; v1 < static_cast<NodeId>(s_both.rows()); ++v1) {
    for (NodeId v2 = 0; v2 < static_cast<NodeId>(s_both.cols()); ++v2) {
      EXPECT_NEAR(s_both.at(v1, v2),
                  (s_fwd.at(v1, v2) + s_bwd.at(v1, v2)) / 2.0, 1e-12);
    }
  }
}

TEST(EmsSimilarityTest, EdgeCoefficientBounds) {
  DependencyGraph g1 = BuildPaperGraph1();
  DependencyGraph g2 = BuildPaperGraph2();
  EmsSimilarity sim(g1, g2, Opts());
  EXPECT_DOUBLE_EQ(sim.EdgeCoefficient(0.5, 0.5), 0.8);  // equal: full c
  EXPECT_NEAR(sim.EdgeCoefficient(1.0, 0.0), 0.0, 1e-12);
  double mid = sim.EdgeCoefficient(0.4, 1.0);
  EXPECT_GT(mid, 0.0);
  EXPECT_LT(mid, 0.8);
}

TEST(EmsSimilarityTest, ComputesOnGraphsBuiltFromLogs) {
  EventLog log1 = BuildPaperLog1();
  EventLog log2 = BuildPaperLog2();
  DependencyGraph g1 = DependencyGraph::Build(log1);
  DependencyGraph g2 = DependencyGraph::Build(log2);
  EmsSimilarity sim(g1, g2, Opts(Direction::kBoth));
  SimilarityMatrix s = sim.Compute();
  EXPECT_EQ(s.rows(), log1.NumEvents() + 1);
  EXPECT_EQ(s.cols(), log2.NumEvents() + 1);
  EXPECT_GT(sim.stats().iterations, 0);
  EXPECT_GT(sim.stats().formula_evaluations, 0u);
}

TEST(EmsSimilarityTest, FrozenRowsAreRespected) {
  DependencyGraph g1 = BuildPaperGraph1();
  DependencyGraph g2 = BuildPaperGraph2();
  std::vector<bool> frozen(g1.NumNodes(), false);
  frozen[1 + testing::A] = true;
  SimilarityMatrix values(g1.NumNodes(), g2.NumNodes(), 0.0);
  values.set(1 + testing::A, 1 + testing::N1, 0.123);
  RunControls controls;
  controls.frozen_rows = &frozen;
  controls.frozen_values = &values;
  EmsSimilarity sim(g1, g2, Opts());
  SimilarityMatrix s = sim.ComputeControlled(Direction::kForward, controls);
  EXPECT_DOUBLE_EQ(s.at(1 + testing::A, 1 + testing::N1), 0.123);
  // Non-frozen rows still computed.
  EXPECT_GT(s.at(1 + testing::C, 1 + testing::N4), 0.0);
}

TEST(EmsSimilarityTest, AbortCallbackStopsIteration) {
  DependencyGraph g1 = BuildPaperGraph1();
  DependencyGraph g2 = BuildPaperGraph2();
  bool aborted = false;
  RunControls controls;
  controls.should_abort = [](Direction, int k, const SimilarityMatrix&,
                             const SimilarityMatrix*) {
    return k >= 2;
  };
  controls.aborted = &aborted;
  EmsSimilarity sim(g1, g2, Opts());
  (void)sim.ComputeControlled(Direction::kForward, controls);
  EXPECT_TRUE(aborted);
  EXPECT_EQ(sim.stats().iterations, 2);
}

// The abort hook rides the standard kBoth Compute: one that never fires
// changes no bit of the matrix or the stats.
TEST(EmsSimilarityTest, ComputeHookThatNeverFiresIsBitIdentical) {
  DependencyGraph g1 = BuildPaperGraph1();
  DependencyGraph g2 = BuildPaperGraph2();
  EmsSimilarity plain(g1, g2, Opts(Direction::kBoth));
  const SimilarityMatrix want = plain.Compute();

  bool aborted = true;
  int calls = 0;
  RunControls controls;
  controls.aborted = &aborted;
  controls.should_abort = [&calls](Direction, int, const SimilarityMatrix&,
                                   const SimilarityMatrix*) {
    ++calls;
    return false;
  };
  EmsSimilarity hooked(g1, g2, Opts(Direction::kBoth));
  const SimilarityMatrix got = hooked.Compute(&controls);
  EXPECT_FALSE(aborted);
  EXPECT_GT(calls, 0);
  EXPECT_TRUE(BitIdentical(got, want));
  EXPECT_EQ(hooked.stats().iterations, plain.stats().iterations);
  EXPECT_EQ(hooked.stats().formula_evaluations,
            plain.stats().formula_evaluations);
  EXPECT_EQ(hooked.stats().pairs_pruned_converged,
            plain.stats().pairs_pruned_converged);
  EXPECT_EQ(hooked.stats().pairs_skipped_unchanged,
            plain.stats().pairs_skipped_unchanged);
}

// A hook firing in the backward phase sees the finished forward matrix,
// sets `aborted`, and is counted as one aborted run.
TEST(EmsSimilarityTest, ComputeHookFiringInBackwardPhaseSeesForward) {
  DependencyGraph g1 = BuildPaperGraph1();
  DependencyGraph g2 = BuildPaperGraph2();
  EmsSimilarity forward_only(g1, g2, Opts(Direction::kForward));
  const SimilarityMatrix forward = forward_only.Compute();

  bool aborted = false;
  bool forward_phase_saw_null = true;
  bool backward_saw_forward = false;
  RunControls controls;
  controls.aborted = &aborted;
  controls.should_abort = [&](Direction direction, int k,
                              const SimilarityMatrix&,
                              const SimilarityMatrix* finished_forward) {
    if (direction == Direction::kForward) {
      forward_phase_saw_null =
          forward_phase_saw_null && finished_forward == nullptr;
      return false;
    }
    backward_saw_forward = finished_forward != nullptr &&
                           BitIdentical(*finished_forward, forward);
    return k >= 1;
  };
  ObsContext obs;
  EmsOptions opts = Opts(Direction::kBoth);
  opts.obs = &obs;
  EmsSimilarity sim(g1, g2, opts);
  (void)sim.Compute(&controls);
  EXPECT_TRUE(aborted);
  EXPECT_TRUE(forward_phase_saw_null);
  EXPECT_TRUE(backward_saw_forward);
  EXPECT_EQ(sim.stats().iterations, forward_only.stats().iterations);
  EXPECT_EQ(obs.metrics.CounterValue("ems.runs"), 1u);
  EXPECT_EQ(obs.metrics.CounterValue("ems.aborted_runs"), 1u);
}

}  // namespace
}  // namespace ems
