// High-level event matching API: from two event logs to a set of
// correspondences. Wires together dependency-graph construction, the EMS
// similarity (exact or estimated), label similarity, composite matching,
// and correspondence selection — the full pipeline of Section 2.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "assignment/selection.h"
#include "core/composite_matcher.h"
#include "core/estimation.h"
#include "graph/dependency_graph.h"
#include "log/event_log.h"
#include "obs/options.h"
#include "prob/em_engine.h"
#include "text/label_similarity.h"
#include "util/status.h"

namespace ems {

/// Which similarity engine the matcher runs.
enum class SimilarityEngine {
  kExact,      // EMS iterated to convergence
  kEstimated,  // EMS+es: I exact iterations + extrapolation (Section 3.5)
};

/// Which label similarity accompanies the structural similarity.
enum class LabelMeasure {
  kNone,         // opaque-name scenario: structure only
  kQGramCosine,  // the paper's choice (Section 5.1)
  kLevenshtein,
  kTokenJaccard,
  kJaroWinkler,
};

/// Correspondence selection strategy (Section 6).
enum class SelectionStrategy {
  kMaxTotalSimilarity,  // Hungarian (the paper's evaluation setting)
  kGreedy,
  kMutualBest,
};

/// Full pipeline configuration.
struct MatchOptions {
  EmsOptions ems;

  SimilarityEngine engine = SimilarityEngine::kExact;

  /// Exact iterations before extrapolation when engine == kEstimated.
  int estimation_iterations = 5;

  LabelMeasure label_measure = LabelMeasure::kNone;

  /// Minimum edge frequency kept in the dependency graphs (Figure 7).
  double min_edge_frequency = 0.0;

  SelectionStrategy selection = SelectionStrategy::kMaxTotalSimilarity;

  /// Minimum similarity for a pair to be reported as a correspondence.
  double min_match_similarity = 0.05;

  /// Enables composite (m:n) matching via the greedy Algorithm 2.
  bool match_composites = false;

  /// Composite matching parameters (delta, prunings, candidates). The
  /// nested `ems` inside is overridden by the top-level `ems` above.
  CompositeOptions composite;

  /// Probabilistic soft correspondences (src/prob/): when
  /// `prob.enabled`, selection runs the EM posterior engine over the
  /// converged similarity, picks the MAP assignment (filtered by
  /// `prob.min_confidence` on top of `min_match_similarity`), attaches
  /// per-correspondence confidences, and fills MatchResult::soft. The
  /// nested pool/num_threads/obs are overridden by the pipeline's own
  /// (`ems.pool`, `ems.num_threads`, `obs.context`). Off by default —
  /// the hard-pick path is then byte-identical to pre-prob builds.
  prob::EmOptions prob;

  /// Observability: when `obs.context` is set, Match records per-phase
  /// spans (graph_build, label_profiles, label_similarity,
  /// ems_fixpoint/ems_estimation, composite_search, selection) and
  /// pipeline counters into it. The default (null) compiles the
  /// instrumentation down to pointer checks.
  ObsOptions obs;
};

/// One reported correspondence: a set of event names on each side (both
/// singletons unless composite matching merged events).
struct Correspondence {
  std::vector<std::string> events1;
  std::vector<std::string> events2;
  double similarity = 0.0;

  /// Posterior confidence of the pair when the EM engine ran
  /// (MatchOptions::prob.enabled); 0 on the classic hard-pick path.
  double confidence = 0.0;
};

/// Everything a caller may want to inspect after matching.
struct MatchResult {
  std::vector<Correspondence> correspondences;

  /// Final similarity matrix (over final graph nodes, artificial rows and
  /// columns included at index 0).
  SimilarityMatrix similarity;

  /// Final graphs (composites merged when composite matching ran).
  DependencyGraph graph1;
  DependencyGraph graph2;

  /// Iteration counters of the 1:1 EMS run. Zero when composite matching
  /// ran — the inner EMS runs of the search are then aggregated in
  /// `composite_stats.ems` (keeping the two disjoint means downstream
  /// aggregators can sum both without double counting).
  EmsStats ems_stats;

  /// Composite-matcher counters (zero when composites were disabled).
  CompositeStats composite_stats;

  /// Full posterior of the EM run (present iff MatchOptions::prob was
  /// enabled): responsibilities, MAP assignment, per-row entropies and
  /// convergence stats.
  std::optional<prob::SoftMatchResult> soft;
};

/// Creates a label-similarity measure instance.
std::unique_ptr<LabelSimilarity> MakeLabelMeasure(LabelMeasure measure);

/// State carried between warm re-matches of one log pair (streaming
/// ingestion, docs/STREAMING.md): the converged per-direction EMS
/// matrices plus the iteration count of the cold run that started the
/// chain.
struct WarmSeed {
  SimilarityMatrix forward;
  SimilarityMatrix backward;

  /// Iterations of the chain's cold (unseeded) run — the baseline that
  /// iterations_saved is measured against. Propagated, not recomputed,
  /// across warm generations.
  int cold_iterations = 0;

  bool valid = false;
};

/// Iteration counters of one MatchGraphs run.
struct WarmMatchStats {
  /// Iterations of this run (max over directions).
  int iterations = 0;

  /// max(0, seed cold_iterations - iterations); 0 on cold runs.
  int iterations_saved = 0;

  /// True when a valid seed was applied.
  bool warm = false;
};

/// Optional inputs of MatchGraphs; all borrowed, null = absent.
struct PipelineInputs {
  /// Prebuilt label matrix S^L (NumNodes(g1) x NumNodes(g2)); null
  /// computes it from MatchOptions::label_measure.
  const std::vector<std::vector<double>>* labels = nullptr;

  /// Warm start from the previous fixpoint (ignored unless valid).
  const WarmSeed* seed = nullptr;

  /// Asserts the graphs are bit-identical to the ones the seed converged
  /// on (restart resume, or an append that folded zero traces): the run
  /// then passes all-clean change hints and returns the seed
  /// byte-identically after one iteration. Leave it false after a real
  /// append — the trace-count denominator moves every frequency, so
  /// everything must be marked changed.
  bool assume_unchanged = false;

  /// Receives this run's per-direction fixpoints for the next warm
  /// generation (may alias `seed`).
  WarmSeed* next_seed = nullptr;

  /// Receives the iteration counters.
  WarmMatchStats* stats = nullptr;

  /// Abort hook on the EMS run (EmsSimilarity::Compute). When it fires,
  /// selection is skipped and the result carries no correspondences.
  const RunControls* controls = nullptr;
};

/// The 1:1 pipeline of Section 2 over prebuilt dependency graphs: label
/// similarity S^L, the formula-(1) fixpoint in both directions averaged
/// per Section 3.6 (or the EMS+es estimation), then Section 6 selection
/// with member names taken from the logs. The graphs move into the
/// result. Rejects composite matching, and warm starts or run controls
/// on the estimated engine.
Result<MatchResult> MatchGraphs(const MatchOptions& options,
                                const EventLog& log1, const EventLog& log2,
                                DependencyGraph g1, DependencyGraph g2,
                                const PipelineInputs& inputs = {});

/// What a log is prepared under: the options of its dependency graph and
/// the q of its label profiles. Two preparations of one log are
/// interchangeable only when these agree; serve::LogCache keys on them.
struct PrepareOptions {
  DependencyGraphOptions graph;

  /// q of the label profiles: ProfileQ of the label measure, 0 (the raw
  /// label parts only) for every measure but the q-gram cosine.
  int qgram_q = 0;
};

/// The preparation Matcher::Match gives each log under `options`: its
/// min_edge_frequency and its label measure's q.
PrepareOptions PrepareOptionsFor(const MatchOptions& options);

/// \brief A log with the state of the 1:1 pipeline that depends on it
/// alone, built once and read by every match the log takes part in
/// (serve::LogCache values, index::CorpusEntry).
struct PreparedLog {
  EventLog log;

  /// The log's dependency graph. With the artificial event, both
  /// longest-distance caches are filled, so threads sharing the graph
  /// only read it.
  DependencyGraph graph;

  /// The graph's node labels (indexed by NodeId), prepared for S^L.
  LabelProfiles labels;
};

/// Builds `log`'s graph and label profiles under `options`.
PreparedLog PrepareLog(EventLog log, const PrepareOptions& options);

/// The 1:1 pipeline over prepared logs, the path of Matcher::Match and of
/// the service's matches: S^L assembled from the two logs' label
/// profiles, then MatchGraphs over `g1` and `g2`, the logs' prepared
/// graphs (moved from a fresh preparation, or copied from a shared one).
/// `labels1` and `labels2` are the node labels of those graphs. `inputs`
/// carries a streaming session's warm start; its `labels` is set here.
Result<MatchResult> MatchPrepared(const MatchOptions& options,
                                  const EventLog& log1, const EventLog& log2,
                                  DependencyGraph g1, DependencyGraph g2,
                                  const LabelProfiles& labels1,
                                  const LabelProfiles& labels2,
                                  PipelineInputs inputs = {});

/// \brief End-to-end event matcher.
class Matcher {
 public:
  explicit Matcher(const MatchOptions& options = {}) : options_(options) {}

  /// Runs the full pipeline between two logs: the composite search, or
  /// both logs prepared and then MatchPrepared.
  Result<MatchResult> Match(const EventLog& log1, const EventLog& log2) const;

  const MatchOptions& options() const { return options_; }

 private:
  MatchOptions options_;
};

}  // namespace ems
