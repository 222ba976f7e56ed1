#include "core/matcher.h"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/ems_similarity.h"
#include "obs/context.h"

namespace ems {

std::unique_ptr<LabelSimilarity> MakeLabelMeasure(LabelMeasure measure) {
  switch (measure) {
    case LabelMeasure::kNone:
      return std::make_unique<NoLabelSimilarity>();
    case LabelMeasure::kQGramCosine:
      return std::make_unique<QGramCosineSimilarity>();
    case LabelMeasure::kLevenshtein:
      return std::make_unique<LevenshteinLabelSimilarity>();
    case LabelMeasure::kTokenJaccard:
      return std::make_unique<TokenJaccardSimilarity>();
    case LabelMeasure::kJaroWinkler:
      return std::make_unique<JaroWinklerLabelSimilarity>();
  }
  return std::make_unique<NoLabelSimilarity>();
}

namespace {

// Resolves `result->correspondences` from `result->similarity` over
// `result->graph1/graph2`, with member names taken from the logs.
void SelectCorrespondences(const MatchOptions& options, const EventLog& log1,
                           const EventLog& log2, MatchResult* result) {
  ObsContext* obs = options.obs.context;
  // Resolve correspondences with member names taken from the logs.
  ScopedSpan selection_span(obs, "selection");
  std::vector<std::vector<double>> sim = result->similarity.RealSubmatrix(
      result->graph1.has_artificial(), result->graph2.has_artificial());
  SelectionOptions sel;
  sel.min_similarity = options.min_match_similarity;
  std::vector<ems::Match> matches;
  std::vector<double> confidences;  // parallel to `matches` when EM ran
  if (options.prob.enabled) {
    // Probabilistic path: EM posterior over the converged similarity,
    // MAP assignment filtered by similarity AND posterior confidence.
    prob::EmOptions em = options.prob;
    em.num_threads = options.ems.num_threads;
    em.pool = options.ems.pool;
    em.obs = obs;
    result->soft = prob::ComputeSoftMatch(result->similarity,
                                          result->graph1.has_artificial(),
                                          result->graph2.has_artificial(), em);
    const std::vector<prob::SoftMatch> soft_matches = prob::SelectFromPosterior(
        *result->soft, sim, options.min_match_similarity,
        options.prob.min_confidence);
    for (const prob::SoftMatch& sm : soft_matches) {
      matches.push_back({sm.row, sm.col, sm.similarity});
      confidences.push_back(sm.confidence);
    }
  } else {
    switch (options.selection) {
      case SelectionStrategy::kMaxTotalSimilarity:
        matches = SelectMaxTotalSimilarity(sim, sel);
        break;
      case SelectionStrategy::kGreedy:
        matches = SelectGreedy(sim, sel);
        break;
      case SelectionStrategy::kMutualBest:
        matches = SelectMutualBest(sim, sel);
        break;
    }
  }
  const NodeId off1 = result->graph1.has_artificial() ? 1 : 0;
  const NodeId off2 = result->graph2.has_artificial() ? 1 : 0;
  for (size_t k = 0; k < matches.size(); ++k) {
    const ems::Match& m = matches[k];
    Correspondence corr;
    corr.similarity = m.similarity;
    if (k < confidences.size()) corr.confidence = confidences[k];
    for (EventId e : result->graph1.Members(m.row + off1)) {
      corr.events1.push_back(log1.EventName(e));
    }
    for (EventId e : result->graph2.Members(m.col + off2)) {
      corr.events2.push_back(log2.EventName(e));
    }
    if (corr.events1.empty() || corr.events2.empty()) continue;
    result->correspondences.push_back(std::move(corr));
  }
  ObsIncrement(obs, "selection.matches",
               static_cast<uint64_t>(result->correspondences.size()));
}

}  // namespace

Result<MatchResult> MatchGraphs(const MatchOptions& options,
                                const EventLog& log1, const EventLog& log2,
                                DependencyGraph g1, DependencyGraph g2,
                                const PipelineInputs& inputs) {
  if (options.match_composites) {
    return Status::InvalidArgument(
        "the pair pipeline requires match_composites == false");
  }
  const bool estimated = options.engine == SimilarityEngine::kEstimated;
  if (estimated && (inputs.seed != nullptr || inputs.next_seed != nullptr ||
                    inputs.controls != nullptr)) {
    return Status::InvalidArgument(
        "warm starts and run controls require the exact engine");
  }
  ObsContext* obs = options.obs.context;
  MatchResult result;
  result.graph1 = std::move(g1);
  result.graph2 = std::move(g2);

  std::vector<std::vector<double>> labels;
  const std::vector<std::vector<double>>* labels_ptr = inputs.labels;
  if (labels_ptr == nullptr && options.label_measure != LabelMeasure::kNone) {
    ScopedSpan span(obs, "label_similarity");
    labels = LabelSimilarityMatrix(result.graph1, result.graph2,
                                   *MakeLabelMeasure(options.label_measure),
                                   options.ems.pool);
    labels_ptr = &labels;
  }
  EmsOptions ems_opts = options.ems;
  ems_opts.obs = obs;
  if (estimated) {
    EstimationOptions est;
    est.exact_iterations = options.estimation_iterations;
    est.ems = ems_opts;
    EstimatedEmsSimilarity sim(result.graph1, result.graph2, est, labels_ptr);
    result.similarity = sim.Compute();
    result.ems_stats = sim.stats();
    SelectCorrespondences(options, log1, log2, &result);
    return result;
  }

  const WarmSeed* seed = inputs.seed;
  const bool warm = seed != nullptr && seed->valid;
  const int cold_iterations = warm ? seed->cold_iterations : 0;
  EmsSeed ems_seed;
  std::vector<uint8_t> clean_rows, clean_cols;
  if (warm) {
    ems_seed.forward = &seed->forward;
    ems_seed.backward = &seed->backward;
    if (inputs.assume_unchanged) {
      clean_rows.assign(result.graph1.NumNodes(), 0);
      clean_cols.assign(result.graph2.NumNodes(), 0);
      ems_seed.changed_rows = &clean_rows;
      ems_seed.changed_cols = &clean_cols;
    }
    ems_opts.seed = &ems_seed;
  }
  {  // scoped: the kernel's tables are freed before selection runs
    EmsSimilarity sim(result.graph1, result.graph2, ems_opts, labels_ptr);
    result.similarity = sim.Compute(inputs.controls);
    result.ems_stats = sim.stats();
    const RunControls* controls = inputs.controls;
    if (controls != nullptr && controls->aborted != nullptr &&
        *controls->aborted) {
      return result;
    }
    if (inputs.next_seed != nullptr) {
      WarmSeed& next = *inputs.next_seed;
      sim.TakeDirectionMatrices(&next.forward, &next.backward);
      if (options.ems.direction == Direction::kForward) {
        next.forward = result.similarity;
      } else if (options.ems.direction == Direction::kBackward) {
        next.backward = result.similarity;
      }
      // A warm chain keeps measuring against the cold run that started it.
      next.cold_iterations =
          warm ? cold_iterations : result.ems_stats.iterations;
      next.valid = true;
    }
  }
  if (inputs.stats != nullptr) {
    const int iterations = result.ems_stats.iterations;
    inputs.stats->iterations = iterations;
    inputs.stats->warm = warm;
    inputs.stats->iterations_saved =
        warm ? std::max(0, cold_iterations - iterations) : 0;
  }
  SelectCorrespondences(options, log1, log2, &result);
  return result;
}

PrepareOptions PrepareOptionsFor(const MatchOptions& options) {
  PrepareOptions prepare;
  prepare.graph.min_edge_frequency = options.min_edge_frequency;
  prepare.qgram_q = ProfileQ(*MakeLabelMeasure(options.label_measure));
  return prepare;
}

PreparedLog PrepareLog(EventLog log, const PrepareOptions& options) {
  PreparedLog prepared;
  prepared.graph = DependencyGraph::Build(log, options.graph);
  if (prepared.graph.has_artificial()) {
    (void)prepared.graph.LongestDistancesFromArtificial();
    (void)prepared.graph.LongestDistancesToArtificial();
  }
  prepared.labels = LabelProfiles(prepared.graph, options.qgram_q);
  prepared.log = std::move(log);
  return prepared;
}

Result<MatchResult> MatchPrepared(const MatchOptions& options,
                                  const EventLog& log1, const EventLog& log2,
                                  DependencyGraph g1, DependencyGraph g2,
                                  const LabelProfiles& labels1,
                                  const LabelProfiles& labels2,
                                  PipelineInputs inputs) {
  std::vector<std::vector<double>> labels;
  if (options.label_measure != LabelMeasure::kNone) {
    ScopedSpan span(options.obs.context, "label_similarity");
    labels = LabelSimilarityMatrix(labels1, labels2,
                                   *MakeLabelMeasure(options.label_measure),
                                   options.ems.pool);
    inputs.labels = &labels;
  }
  return MatchGraphs(options, log1, log2, std::move(g1), std::move(g2),
                     inputs);
}

Result<MatchResult> Matcher::Match(const EventLog& log1,
                                   const EventLog& log2) const {
  ObsContext* obs = options_.obs.context;
  ScopedSpan root(obs, "match");
  MatchResult result;
  if (options_.match_composites) {
    std::unique_ptr<LabelSimilarity> measure =
        MakeLabelMeasure(options_.label_measure);
    CompositeOptions comp = options_.composite;
    comp.ems = options_.ems;
    comp.graph.min_edge_frequency = options_.min_edge_frequency;
    comp.use_estimation = options_.engine == SimilarityEngine::kEstimated;
    comp.estimation_iterations = options_.estimation_iterations;
    comp.obs = obs;
    // --threads reaches the composite search too: the greedy step
    // evaluates candidates on the same worker budget the EMS iteration
    // would have used (candidate tasks force their inner EMS serial).
    comp.num_threads = options_.ems.num_threads;
    comp.pool = options_.ems.pool;
    comp.prob = options_.prob;
    CompositeMatcher matcher(log1, log2, comp,
                             options_.label_measure == LabelMeasure::kNone
                                 ? nullptr
                                 : measure.get());
    EMS_ASSIGN_OR_RETURN(CompositeMatchResult comp_result, matcher.Match());
    result.similarity = std::move(comp_result.similarity);
    result.graph1 = std::move(comp_result.graph1);
    result.graph2 = std::move(comp_result.graph2);
    result.composite_stats = comp_result.stats;
    SelectCorrespondences(options_, log1, log2, &result);
  } else {
    // The preparation PrepareLog gives a cached log, minus the distance
    // caches no pair computation reads.
    const PrepareOptions prepare = PrepareOptionsFor(options_);
    ScopedSpan graph_span(obs, "graph_build");
    DependencyGraph g1 = DependencyGraph::Build(log1, prepare.graph);
    DependencyGraph g2 = DependencyGraph::Build(log2, prepare.graph);
    graph_span.End();
    ScopedSpan profile_span(obs, "label_profiles");
    const LabelProfiles labels1(g1, prepare.qgram_q);
    const LabelProfiles labels2(g2, prepare.qgram_q);
    profile_span.End();
    EMS_ASSIGN_OR_RETURN(result,
                         MatchPrepared(options_, log1, log2, std::move(g1),
                                       std::move(g2), labels1, labels2));
    ObsIncrement(obs, "graph.builds", 2);
  }
  if (obs != nullptr) {
    ObsSetGauge(obs, "graph.nodes_left",
                static_cast<double>(result.graph1.NumNodes()));
    ObsSetGauge(obs, "graph.nodes_right",
                static_cast<double>(result.graph2.NumNodes()));
  }
  return result;
}

}  // namespace ems
