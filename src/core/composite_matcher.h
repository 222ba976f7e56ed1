// Composite event matching (Section 4). The optimal problem (Problem 1)
// is NP-hard (Theorem 3, by reduction from maximum set packing), so the
// production path is the greedy heuristic of Section 4.1 / Algorithm 2,
// accelerated by two prunings:
//   Uc — unchanged-similarity identification (Proposition 4): node pairs
//        whose ancestors (forward) / descendants (backward) are disjoint
//        from the freshly merged composite keep their similarities;
//   Bd — upper-bound abandonment (Section 4.3): a candidate whose average
//        similarity upper bound falls below the incumbent is dropped
//        mid-iteration.
// An exact enumerator over disjoint candidate subfamilies is provided for
// small instances to measure the greedy optimality gap.
#pragma once

#include <cstdint>
#include <vector>

#include "core/composite_candidates.h"
#include "core/ems_similarity.h"
#include "graph/dependency_graph_builder.h"
#include "prob/em_engine.h"
#include "text/label_similarity.h"
#include "util/status.h"

namespace ems {

/// Objective the greedy search maximizes per step.
enum class CompositeObjective {
  /// avg(S(W1, W2)) over all node pairs — the literal Problem-1
  /// objective. On logs whose graphs differ from the paper's running
  /// example this proved insensitive to true merges (see DESIGN.md), so
  /// it is retained for fidelity and ablation rather than production.
  kAveragePairs,

  /// Quality mass of the best 1:1 correspondence: the Hungarian
  /// assignment's matched similarities, counting only pairs at least
  /// `objective_threshold`, normalized by min(|V1|, |V2|) of the ORIGINAL
  /// singleton vocabularies. Shedding a junk match is free; destroying a
  /// genuine match (over-merging) loses counted mass; a true merge
  /// consolidates two so-so matches into one strong one. Default.
  kMatchedTotal,
};

/// Options for greedy composite matching.
struct CompositeOptions {
  /// Minimum average-similarity improvement to accept a merge (the
  /// delta of Algorithm 2; Figure 13 sweeps it).
  double delta = 0.005;

  CompositeObjective objective = CompositeObjective::kMatchedTotal;

  /// Matched pairs below this similarity do not count toward the
  /// kMatchedTotal objective (junk-match mass must not reward keeping
  /// events unmerged).
  double objective_threshold = 0.3;

  /// Enable Proposition-4 pruning (unchanged similarities).
  bool prune_unchanged = true;

  /// Enable upper-bound pruning (Section 4.3).
  bool prune_bounds = true;

  /// Candidate discovery parameters (applied to both logs).
  CandidateOptions candidates;

  /// EMS parameters for the similarity computations.
  EmsOptions ems;

  /// Graph construction parameters (minimum edge frequency etc.); the
  /// artificial event is always added regardless.
  DependencyGraphOptions graph;

  /// Evaluate candidates with the estimated similarity (EMS+es) instead
  /// of exact iteration — the composite analogue of Figure 10/11's
  /// EMS+es rows. Disables the Uc/Bd prunings (which steer the exact
  /// iteration) in favor of the estimation's own cost model.
  bool use_estimation = false;
  int estimation_iterations = 5;

  /// Hard cap on greedy steps (paper's loop is unbounded; candidates are
  /// finite so this is a safety net).
  int max_steps = 64;

  /// Workers for evaluating one greedy step's candidates concurrently:
  /// 1 = serial (default), 0 = hardware concurrency. Winner selection is
  /// bit-identical to the serial loop at any count (see
  /// docs/CONCURRENCY.md). Inner EMS runs go serial inside parallel
  /// tasks, so total parallelism stays bounded by this count.
  int num_threads = 1;

  /// Borrowed shared pool for candidate evaluation; overrides
  /// num_threads when set. Null (default) creates a private pool when
  /// num_threads asks for one.
  exec::ThreadPool* pool = nullptr;

  /// Observability sink (spans + counters); null (default) disables
  /// instrumentation. Borrowed, not owned. The nested `ems` options
  /// carry their own pointer; CompositeMatcher propagates this one into
  /// them so one assignment instruments the whole search.
  ObsContext* obs = nullptr;

  /// Posterior-guided candidate ranking (src/prob/): when
  /// `prob.enabled`, each greedy step runs the EM engine over the
  /// current combined similarity and evaluates candidates in descending
  /// posterior-overlap order (members agreeing on the same partner
  /// first) instead of discovery order. Promising candidates then raise
  /// the serial Bd incumbent earlier, and posterior-consistent merges
  /// win ties. An opt-in mode: candidate order can change which of
  /// several exactly-tied candidates merges, so it is NOT bit-identical
  /// to the default order (off by default, which is).
  prob::EmOptions prob;
};

/// Counters describing one composite matching run (Figure 12 reports
/// formula evaluations and time across pruning configurations).
///
/// Reset semantics: CompositeMatcher::Match zeroes its stats at entry, so
/// `CompositeMatchResult::stats` describes that run only. Aggregate
/// across runs with Add; plain assignment overwrites earlier runs.
struct CompositeStats {
  /// Formula-(1) evaluations across every inner EMS run of the search
  /// (kept alongside `ems.formula_evaluations` for Figure 12's series).
  uint64_t formula_evaluations = 0;

  int candidates_evaluated = 0;
  /// Of those, how many were evaluated by a parallel greedy step (the
  /// same candidates a serial run would evaluate; prune counts may
  /// differ — see docs/CONCURRENCY.md).
  int candidates_evaluated_parallel = 0;
  int candidates_pruned_by_bound = 0;  // aborted via Bd
  int merges_accepted = 0;
  uint64_t rows_frozen = 0;  // row-freeze events via Uc

  /// Greedy steps whose candidate order came from the EM posterior
  /// (CompositeOptions::prob.enabled and a non-empty posterior).
  int prob_ranked_steps = 0;

  /// Inner EMS/estimation runs folded in via AddEmsRun.
  uint64_t ems_runs = 0;

  /// All inner EMS runs accumulated (iterations sum over candidate
  /// evaluations; this is where EMS counters live when composite
  /// matching ran — MatchResult::ems_stats stays zero in that mode).
  EmsStats ems;

  /// Folds one inner EMS/estimation run into the aggregate.
  void AddEmsRun(const EmsStats& run) {
    ems.Add(run);
    formula_evaluations += run.formula_evaluations;
    ++ems_runs;
  }

  void Add(const CompositeStats& other) {
    formula_evaluations += other.formula_evaluations;
    candidates_evaluated += other.candidates_evaluated;
    candidates_evaluated_parallel += other.candidates_evaluated_parallel;
    candidates_pruned_by_bound += other.candidates_pruned_by_bound;
    merges_accepted += other.merges_accepted;
    rows_frozen += other.rows_frozen;
    prob_ranked_steps += other.prob_ranked_steps;
    ems_runs += other.ems_runs;
    ems.Add(other.ems);
  }
};

/// Result of composite matching between two logs.
struct CompositeMatchResult {
  /// Accepted non-overlapping composites per side (original EventIds).
  std::vector<std::vector<EventId>> composites1;
  std::vector<std::vector<EventId>> composites2;

  /// Final dependency graphs (with composites merged).
  DependencyGraph graph1;
  DependencyGraph graph2;

  /// Final combined (forward+backward averaged) similarity matrix over
  /// the final graphs' nodes.
  SimilarityMatrix similarity;

  /// Final objective value (avg(S(W1, W2)) over real node pairs for
  /// kAveragePairs; normalized matched total for kMatchedTotal).
  double average_similarity = 0.0;

  CompositeStats stats;
};

/// \brief Greedy composite matcher (Algorithm 2).
class CompositeMatcher {
 public:
  /// `label_measure` may be null for structural-only matching.
  CompositeMatcher(const EventLog& log1, const EventLog& log2,
                   const CompositeOptions& options,
                   const LabelSimilarity* label_measure = nullptr);

  /// Runs the greedy loop to a fixed point and returns the result.
  Result<CompositeMatchResult> Match();

  /// Supplies explicit candidate sets instead of discovering them
  /// (used by tests and by Figure 14's candidate-size sweep).
  void SetCandidates(std::vector<CompositeCandidate> candidates1,
                     std::vector<CompositeCandidate> candidates2);

 private:
  struct GraphState {
    DependencyGraph g1;
    DependencyGraph g2;
    SimilarityMatrix forward;
    SimilarityMatrix backward;
    double average = 0.0;
  };

  // Builds graphs for the given accepted composite sets and computes both
  // directional matrices from scratch (or, when merging
  // `merged_on_side1`/`new_composite`, builds that side only, copies the
  // other from `previous` and reuses its rows under Uc). Const and
  // data-race-free against concurrent calls: all counters go to `stats`,
  // spans to `obs` (null inside parallel tasks — one TraceRecorder cannot
  // interleave concurrent spans), and `serial_ems` pins the inner EMS to
  // one thread so a parallel step never oversubscribes the machine.
  Result<GraphState> Evaluate(
      const std::vector<std::vector<EventId>>& w1,
      const std::vector<std::vector<EventId>>& w2, const GraphState* previous,
      bool merged_on_side1, const std::vector<EventId>* new_composite,
      double incumbent_average, bool* pruned_out, CompositeStats* stats,
      ObsContext* obs, bool serial_ems) const;

  const EventLog& log1_;
  const EventLog& log2_;
  CompositeOptions options_;
  const LabelSimilarity* label_measure_;
  std::vector<CompositeCandidate> candidates1_;
  std::vector<CompositeCandidate> candidates2_;
  bool explicit_candidates_ = false;
  CompositeStats stats_;

  // Iteration-invariant state hoisted out of the candidate loop: each
  // log's trace summary builds every collapsed graph of that side.
  DependencyGraphBuilder builder1_;
  DependencyGraphBuilder builder2_;
  // S^L between the two logs' event vocabularies, computed once; every
  // candidate graph's label matrix is read off it (MemberLabelMatrix).
  std::vector<std::vector<double>> event_labels_;
  size_t denom_ = 0;  // min(|V1|, |V2|) of the original vocabularies
};

/// Exact optimal composite matching by exhaustive enumeration of disjoint
/// candidate subfamilies on both sides (Problem 1). Exponential; returns
/// ResourceExhausted when the number of combinations exceeds
/// `max_combinations`. Small-instance ground truth for tests/benches.
Result<CompositeMatchResult> ExactCompositeMatch(
    const EventLog& log1, const EventLog& log2,
    const std::vector<CompositeCandidate>& candidates1,
    const std::vector<CompositeCandidate>& candidates2,
    const CompositeOptions& options,
    const LabelSimilarity* label_measure = nullptr,
    uint64_t max_combinations = 1u << 20);

}  // namespace ems
