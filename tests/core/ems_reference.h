// The naive evaluation of formula (1): for every pair, walk both
// neighbor lists and recompute every edge coefficient, every iteration.
// It is the equivalence reference of the EMS kernel
// (src/core/ems_similarity.cc): the kernel's matrices must match it to
// the last bit, with the same iteration counts. Test and benchmark code
// only; nothing in src/ links it.
#pragma once

#include <vector>

#include "core/ems_similarity.h"

namespace ems {
namespace testing {

/// Mirrors EmsSimilarity's run API over the same options, labels and
/// controls. Reads only alpha, c, epsilon, max_iterations,
/// prune_converged and direction from EmsOptions (always serial, always
/// cold), and the frozen rows/cols/values and abort hook from
/// RunControls. Counts iterations, formula evaluations and
/// Proposition-2 prunes as EmsStats does; it never skips a pair, so
/// pairs_skipped_unchanged stays 0.
class ReferenceEms {
 public:
  ReferenceEms(const DependencyGraph& g1, const DependencyGraph& g2,
               const EmsOptions& options,
               const std::vector<std::vector<double>>* label_similarity =
                   nullptr);

  /// Runs options.direction to convergence; kBoth averages the forward
  /// and backward matrices.
  SimilarityMatrix Compute();

  /// Runs `iterations` iterations of one direction.
  SimilarityMatrix ComputePartial(Direction direction, int iterations);

  /// Runs one direction to convergence under frozen rows/cols and the
  /// abort hook.
  SimilarityMatrix ComputeControlled(Direction direction,
                                     const RunControls& controls);

  /// Counters of the last run.
  const EmsStats& stats() const { return stats_; }

 private:
  // One-side similarity s(v1, v2) (or s(v2, v1) when `transposed`).
  double OneSide(Direction direction, const SimilarityMatrix& prev, NodeId v1,
                 NodeId v2, bool transposed) const;

  SimilarityMatrix RunDirection(Direction direction, int max_iterations,
                                const RunControls* controls);

  const DependencyGraph& g1_;
  const DependencyGraph& g2_;
  EmsOptions options_;
  const std::vector<std::vector<double>>* labels_;
  EmsStats stats_;
};

}  // namespace testing
}  // namespace ems
