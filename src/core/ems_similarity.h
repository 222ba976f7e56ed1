// The paper's primary contribution: the iterative event matching
// similarity (EMS) of Definition 2 / formula (1), its forward and backward
// variants (Section 3.6), and the early-convergence pruning of
// Proposition 2. Convergence is guaranteed by Theorem 1 (monotone and
// bounded; unique fixed point when alpha * c < 1).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/similarity_matrix.h"
#include "graph/dependency_graph.h"
#include "util/status.h"

namespace ems {

struct ObsContext;

namespace exec {
class ThreadPool;
}  // namespace exec

/// Which neighbor direction the propagation follows.
enum class Direction {
  kForward,   // predecessors (in-neighbors), Definition 2
  kBackward,  // successors (out-neighbors), Section 3.6
  kBoth,      // average of the two (the production configuration)
};

/// Parameters of the EMS similarity.
struct EmsOptions {
  /// Weight of the structural component vs the label component
  /// (Definition 2). alpha = 1 is the opaque-name scenario.
  double alpha = 1.0;

  /// Decay constant c of the edge-similarity coefficient C, 0 < c < 1.
  double c = 0.8;

  /// Iteration stops when no pair moved by more than epsilon.
  double epsilon = 1e-4;

  /// Hard cap on iterations (relevant for cyclic graphs; convergence is
  /// geometric with ratio alpha * c, so the default is ample).
  int max_iterations = 100;

  /// Early-convergence pruning (Proposition 2): pairs whose
  /// min(l(v1), l(v2)) has been reached are not recomputed.
  bool prune_converged = true;

  Direction direction = Direction::kBoth;

  /// Worker threads per iteration. Each iteration reads only the previous
  /// matrix, so rows partition cleanly; useful from ~50 events upward.
  /// 1 = single-threaded (default); 0 = hardware concurrency. Results are
  /// bit-identical for every thread count (disjoint row writes, and the
  /// per-chunk reductions are order-independent).
  int num_threads = 1;

  /// Execution pool to run iterations on (borrowed, not owned). When
  /// null and num_threads != 1, the similarity lazily creates a private
  /// pool reused across all its iterations. When the computation itself
  /// runs on one of this pool's workers (nested parallelism), iterations
  /// degrade to serial instead of deadlocking on the bounded queue.
  exec::ThreadPool* pool = nullptr;

  /// Observability sink (spans + counters); null (default) disables
  /// instrumentation with near-zero overhead. Borrowed, not owned.
  ObsContext* obs = nullptr;

  /// Warm-start seed (borrowed, not owned); null = cold start from S^0.
  /// See EmsSeed for the soundness contract.
  const struct EmsSeed* seed = nullptr;

  /// Floor the iteration count at the largest finite convergence horizon
  /// of the direction (max over both graphs of the finite longest
  /// distances). With this set, every finite-horizon pair is recomputed
  /// at least through its horizon, so the returned values of those pairs
  /// are the exact fixpoint bits REGARDLESS of the starting matrix — a
  /// warm-started run and a cold run return byte-identical matrices on
  /// acyclic instances. Costs nothing on cold runs (the epsilon stop
  /// rarely fires before the horizon).
  bool run_to_horizon = false;
};

/// Warm-start seed for EmsSimilarity: per-direction starting matrices
/// (typically the previous run's fixpoints) plus optional change hints.
///
/// Soundness: ANY seed matrix yields the correct fixpoint. Pairs with a
/// finite convergence horizon h recompute their exact value at iteration
/// h from inputs that are themselves exact (the Proposition 2 induction
/// never reads S^0 at or beyond the horizon), and infinite-horizon pairs
/// contract geometrically (Theorem 1) from the nearer starting point —
/// that contraction is where warm starts save iterations under the
/// epsilon stop. The artificial row/column boundary of S^0 is always
/// re-asserted over the seed.
///
/// Hints: a CLEAR bit in changed_rows[v] (changed_cols[v]) asserts that
/// row v (column v) of the seed is carried over from a fixpoint computed
/// on graphs whose frequencies and similarities relevant to that node
/// are unchanged — iteration 1 may then copy pairs whose input
/// neighborhoods are entirely clean instead of re-evaluating them. Null
/// hints mean "everything changed" (always sound; the right call after a
/// real append, where the trace-count denominator moves every
/// frequency). All-clean hints are the identical-state resume: one
/// iteration, byte-identical return of the seed. Indices beyond a hint's
/// length (new nodes) are treated as changed.
struct EmsSeed {
  /// Starting matrices per direction (borrowed). Null — or smaller than
  /// the current graphs, in which case the overlap is used — falls back
  /// to S^0 entries. A matrix with zero rows is treated as absent.
  const SimilarityMatrix* forward = nullptr;
  const SimilarityMatrix* backward = nullptr;

  const std::vector<uint8_t>* changed_rows = nullptr;
  const std::vector<uint8_t>* changed_cols = nullptr;
};

/// Counters describing one similarity computation (Figures 6 and 12
/// report these).
///
/// Reset semantics: every Compute/ComputePartial/ComputeControlled call
/// starts from a zeroed EmsStats, so `stats()` always describes the LAST
/// run only. Callers aggregating across runs (repeated Match calls, the
/// estimation's per-direction runs, composite candidate evaluations) must
/// accumulate with Add — assignment silently discards previous runs.
struct EmsStats {
  /// Iterations of the outer loop actually performed (max over directions).
  int iterations = 0;

  /// Total evaluations of formula (1), i.e. per-pair updates summed over
  /// iterations and directions. Pruned pairs do not count.
  uint64_t formula_evaluations = 0;

  /// Pair updates skipped by early-convergence pruning (Proposition 2),
  /// summed over iterations and directions.
  uint64_t pairs_pruned_converged = 0;

  /// Pair updates skipped by delta-driven recomputation, summed over
  /// iterations and directions: a pair whose forward and backward input
  /// neighborhoods saw no change in the previous iteration is copied
  /// instead of re-evaluated, since the re-evaluation would reproduce it
  /// bit for bit (docs/PERFORMANCE.md).
  uint64_t pairs_skipped_unchanged = 0;

  void Add(const EmsStats& other) {
    iterations += other.iterations;
    formula_evaluations += other.formula_evaluations;
    pairs_pruned_converged += other.pairs_pruned_converged;
    pairs_skipped_unchanged += other.pairs_skipped_unchanged;
  }
};

/// Hooks that let callers steer a run: the composite matcher's pruning
/// strategies (Sections 4.2 and 4.3) on its single-direction
/// ComputeControlled runs, and the corpus top-k scheduler's mid-run
/// abort on a standard Compute.
struct RunControls {
  /// Rows of graph 1 whose similarities are already known to be final
  /// (Proposition 4, pruning "Uc"). Frozen rows are initialized from
  /// `frozen_values` and never recomputed. Mixing frozen converged values
  /// with iterating rows preserves convergence to the true fixed point:
  /// the map stays monotone and the frozen values are exactly the fixed
  /// point's restriction.
  const std::vector<bool>* frozen_rows = nullptr;

  /// Columns of graph 2 with final similarities (used when the merge
  /// happened on side 2 and graph 1 is unchanged). A pair is frozen when
  /// its row or column is frozen.
  const std::vector<bool>* frozen_cols = nullptr;

  const SimilarityMatrix* frozen_values = nullptr;

  /// Called after each iteration with the running direction, the
  /// iteration k and the current matrix; `forward` is the finished
  /// forward matrix during the backward phase of a kBoth Compute, null
  /// otherwise. Returning true aborts the run (pruning "Bd": the caller
  /// has concluded from an upper bound that this candidate cannot win).
  std::function<bool(Direction direction, int k,
                     const SimilarityMatrix& current,
                     const SimilarityMatrix* forward)>
      should_abort;

  /// Set to true when should_abort fired.
  bool* aborted = nullptr;
};

/// \brief Computes EMS similarities between the nodes of two graphs.
///
/// Both graphs must carry the artificial event v^X (node 0); EMS is
/// defined on the extended dependency graph. `label_similarity`, if
/// provided, must be a NumNodes(g1) x NumNodes(g2) matrix (S^L of
/// Definition 2); omitted means S^L == 0 (structural-only).
class EmsSimilarity {
 public:
  EmsSimilarity(const DependencyGraph& g1, const DependencyGraph& g2,
                const EmsOptions& options,
                const std::vector<std::vector<double>>* label_similarity =
                    nullptr);
  ~EmsSimilarity();  // out-of-line: owned_pool_ is incomplete here

  /// Runs the iteration to convergence and returns the final combined
  /// similarity matrix (average of forward and backward for kBoth).
  /// `controls` may carry an abort hook (frozen rows are for
  /// ComputeControlled); a hook that never fires leaves the result and
  /// the stats bit-identical. After an abort the returned matrix is the
  /// aborted direction's partial one.
  SimilarityMatrix Compute(const RunControls* controls = nullptr);

  /// Runs `iterations` exact iterations of a single direction and returns
  /// the intermediate matrix S^n — the building block for estimation
  /// (Algorithm 1) and for the upper-bound computations.
  SimilarityMatrix ComputePartial(Direction direction, int iterations);

  /// Runs one direction to convergence under external controls (frozen
  /// rows, abort callback). Used by the composite matcher.
  SimilarityMatrix ComputeControlled(Direction direction,
                                     const RunControls& controls);

  /// Counters of the last Compute/ComputePartial call.
  const EmsStats& stats() const { return stats_; }

  /// Moves out the two direction matrices the last completed kBoth
  /// Compute averaged — the raw material of a warm-start seed. Compute
  /// keeps them instead of freeing them; both are empty after a
  /// single-direction or aborted run, or a second take.
  void TakeDirectionMatrices(SimilarityMatrix* forward,
                             SimilarityMatrix* backward);

  /// The per-pair convergence horizon h = min(l(v1), l(v2)) for the given
  /// direction (kInfiniteDistance when a cycle prevents early
  /// convergence). Requires artificial events on both graphs.
  int ConvergenceHorizon(Direction direction, NodeId v1, NodeId v2) const;

  /// C(v1, v1', v2, v2') of Definition 2 for the forward direction, where
  /// `fa` and `fb` are the frequencies of the two edges being compared.
  double EdgeCoefficient(double fa, double fb) const;

  /// Bytes held by the precomputed coefficient tables across the
  /// directions built so far: 8 * D1 * E2 per direction, where D1 counts
  /// the distinct edge frequencies of g1's real neighbor-list entries and
  /// E2 the real neighbor-list entries of g2. 0 before the first run.
  size_t coefficient_table_bytes() const;

  const EmsOptions& options() const { return options_; }

 private:
  struct DirectionTables;  // CSR adjacency + coefficient table (.cc)
  struct DeltaState;       // changed/dirty bitmaps of one run (.cc)

  // Lazily builds (once) and returns the kernel's tables for one
  // direction.
  const DirectionTables& TablesFor(Direction direction);

  // One full pass of formula (1) for `direction`, reading `prev` and
  // writing `next`. `iteration` is 1-based; returns the max delta.
  // Pairs in frozen rows/columns (may be null) are copied, not recomputed.
  // `delta` carries the changed-entry bitmaps that drive delta skipping
  // and is updated with this iteration's changes.
  double Iterate(Direction direction, int iteration,
                 const SimilarityMatrix& prev, SimilarityMatrix* next,
                 const std::vector<bool>* frozen_rows,
                 const std::vector<bool>* frozen_cols,
                 DeltaState* delta);

  SimilarityMatrix InitialMatrix() const;
  // `forward` is handed to the abort hook (the finished forward matrix of
  // a kBoth run's backward phase).
  SimilarityMatrix RunDirection(Direction direction, int max_iterations,
                                int* iterations_done,
                                const RunControls* controls = nullptr,
                                const SimilarityMatrix* forward = nullptr);

  // Mirrors the accumulated stats_ into the obs counters (no-op when
  // options_.obs is null), counting an abort when `controls` fired.
  void FlushStatsToObs(const RunControls* controls = nullptr) const;

  double LabelAt(NodeId v1, NodeId v2) const;

  // The pool Iterate runs on: options_.pool, else a lazily-created owned
  // pool (kept across iterations so threads spawn once per computation).
  exec::ThreadPool* IteratePool(int threads);

  const DependencyGraph& g1_;
  const DependencyGraph& g2_;
  EmsOptions options_;
  // Label matrix flattened once at construction to a row-major buffer
  // (empty when no labels): LabelAt is on the innermost pair loop, and
  // chasing a vector<vector> there costs a double indirection per read.
  std::vector<double> label_flat_;
  bool has_labels_ = false;
  EmsStats stats_;
  SimilarityMatrix forward_;   // see TakeDirectionMatrices
  SimilarityMatrix backward_;
  std::unique_ptr<exec::ThreadPool> owned_pool_;
  std::unique_ptr<DirectionTables> forward_tables_;
  std::unique_ptr<DirectionTables> backward_tables_;
  // Per-iteration scratch of the kernel: S^{n-1} gathered once per row
  // into g2 neighbor-slot order, so the innermost scan reads both its
  // operands contiguously instead of gathering per cell. Reused across
  // iterations and directions.
  std::vector<double> panel_;
};

}  // namespace ems
