#include "index/topk_scheduler.h"

#include <algorithm>
#include <cmath>
#include <queue>

#include "core/bounds.h"
#include "exec/parallel.h"
#include "obs/context.h"
#include "text/label_similarity.h"

namespace ems {
namespace index {

namespace {

// A candidate in the bound-ordered max-heap; ties pop in member order so
// the scan is deterministic.
struct HeapItem {
  double bound;
  size_t idx;
};

struct HeapLess {
  bool operator()(const HeapItem& a, const HeapItem& b) const {
    if (a.bound != b.bound) return a.bound < b.bound;
    return a.idx > b.idx;
  }
};

// Outcome of one candidate evaluation.
struct EvalOutcome {
  bool aborted = false;
  double score = 0.0;
  MatchResult match;
};

// min(l(query), l(entry)) per real pair, folded to r^h (0 for pairs that
// never early-converge). `l1`/`l2` are the direction's longest-distance
// arrays of the two graphs.
std::vector<double> PairHorizonPowers(const DependencyGraph& g1,
                                      const DependencyGraph& g2,
                                      const std::vector<int>& l1,
                                      const std::vector<int>& l2, double r) {
  const size_t n1 = g1.NumNodes();
  const size_t n2 = g2.NumNodes();
  std::vector<double> rh((n1 - 1) * (n2 - 1), 0.0);
  for (size_t v1 = 1; v1 < n1; ++v1) {
    for (size_t v2 = 1; v2 < n2; ++v2) {
      const int h = std::min(l1[v1], l2[v2]);
      rh[(v1 - 1) * (n2 - 1) + (v2 - 1)] =
          h == kInfiniteDistance ? 0.0 : std::pow(r, h);
    }
  }
  return rh;
}

double MaxLabelValue(const std::vector<std::vector<double>>& labels) {
  double max_l = 0.0;
  for (const auto& row : labels) {
    for (double v : row) max_l = std::max(max_l, v);
  }
  return max_l;
}

// Runs the exact match of (query, entry) through the one pair pipeline
// with the in-run abandonment bound: after each EMS iteration, if every
// real pair's admissible final-score component is strictly below the
// incumbent, the run aborts — the candidate provably cannot reach the
// top k (docs/CORPUS.md). Completed runs are Matcher::Match's
// non-composite path over the prebuilt graphs.
Result<EvalOutcome> EvaluateCandidate(const PreparedLog& query,
                                      const CorpusEntry& entry,
                                      const LabelSimilarity& measure,
                                      const MatchOptions& match,
                                      double incumbent) {
  EvalOutcome out;
  const DependencyGraph& g1 = query.graph;
  const DependencyGraph& g2 = entry.prepared.graph;

  std::vector<std::vector<double>> labels;
  double label_max = 0.0;
  if (match.label_measure != LabelMeasure::kNone) {
    labels = LabelSimilarityMatrix(query.labels, entry.prepared.labels,
                                   measure, match.ems.pool);
    label_max = MaxLabelValue(labels);
  }

  const double alpha = match.ems.alpha;
  const double r = alpha * match.ems.c;
  // Per-increment cap with labels present: one iteration moves a pair by
  // at most alpha*c + (1-alpha)*max S^L (see LabeledHorizonUpperBound).
  const double coef = (r + (1.0 - alpha) * label_max) / (1.0 - r);
  const size_t n1 = g1.NumNodes();
  const size_t n2 = g2.NumNodes();
  const size_t cols = n2 - 1;
  const Direction direction = match.ems.direction;

  std::vector<double> rh_f, rh_b, b0_b;
  if (direction != Direction::kBackward) {
    rh_f = PairHorizonPowers(g1, g2, g1.LongestDistancesFromArtificial(),
                             g2.LongestDistancesFromArtificial(), r);
  }
  if (direction != Direction::kForward) {
    rh_b = PairHorizonPowers(g1, g2, g1.LongestDistancesToArtificial(),
                             g2.LongestDistancesToArtificial(), r);
  }
  if (direction == Direction::kBoth) {
    // Backward component during the forward run: its k=0 bound.
    b0_b.resize(rh_b.size());
    for (size_t p = 0; p < rh_b.size(); ++p) {
      b0_b[p] = std::min(1.0, coef * (1.0 - rh_b[p]));
    }
  }

  // Admissible upper bound on a pair's final value in one direction,
  // given its value s after n iterations: max(0, ...) collapses the tail
  // for pairs already past their horizon.
  const auto pair_bound = [coef](double s, double rn, double rh) {
    return std::min(1.0, s + coef * std::max(0.0, rn - rh));
  };

  RunControls rc;
  rc.aborted = &out.aborted;
  if (incumbent >= 0.0) {
    // The other direction of a kBoth run enters through its k=0 bound
    // while the forward run iterates, and through its finished matrix
    // while the backward run does.
    rc.should_abort = [&](Direction d, int n, const SimilarityMatrix& s,
                          const SimilarityMatrix* forward) {
      const double rn = std::pow(r, n);
      const std::vector<double>& rh = d == Direction::kForward ? rh_f : rh_b;
      for (size_t v1 = 1; v1 < n1; ++v1) {
        for (size_t v2 = 1; v2 < n2; ++v2) {
          const size_t p = (v1 - 1) * cols + (v2 - 1);
          const NodeId a = static_cast<NodeId>(v1);
          const NodeId b = static_cast<NodeId>(v2);
          const double bound = pair_bound(s.at(a, b), rn, rh[p]);
          double total = bound;
          if (direction == Direction::kBoth) {
            total = forward != nullptr ? 0.5 * (forward->at(a, b) + bound)
                                       : 0.5 * (bound + b0_b[p]);
          }
          if (total >= incumbent) return false;
        }
      }
      return true;
    };
  }
  PipelineInputs inputs;
  inputs.labels = match.label_measure != LabelMeasure::kNone ? &labels
                                                             : nullptr;
  inputs.controls = &rc;
  EMS_ASSIGN_OR_RETURN(out.match,
                       MatchGraphs(match, query.log, entry.prepared.log, g1,
                                   g2, inputs));
  if (out.aborted) return out;
  double total = 0.0;
  for (const Correspondence& c : out.match.correspondences) {
    total += c.similarity;
  }
  out.score =
      out.match.correspondences.empty()
          ? 0.0
          : total / static_cast<double>(out.match.correspondences.size());
  return out;
}

}  // namespace

TopKScheduler::TopKScheduler(const CorpusIndex& index,
                             const TopKOptions& options)
    : index_(index), options_(options) {}

bool TopKScheduler::CanUseIndex() const {
  const MatchOptions& m = options_.match;
  if (options_.force_brute_force) return false;
  if (m.engine != SimilarityEngine::kExact) return false;
  if (m.match_composites) return false;
  if (m.min_edge_frequency != index_.options().min_edge_frequency) {
    return false;
  }
  const double r = m.ems.alpha * m.ems.c;
  if (!(r >= 0.0 && r < 1.0)) return false;
  return true;
}

Result<std::vector<TopKHit>> TopKScheduler::Query(const PreparedLog& query) {
  stats_ = TopKStats{};
  ObsContext* obs =
      options_.obs != nullptr ? options_.obs : options_.match.obs.context;
  const size_t n = index_.size();
  stats_.candidates_retrieved = n;
  if (!CanUseIndex()) return BruteForce(query.log);
  ObsIncrement(obs, "index.queries");
  std::vector<TopKHit> hits;
  if (n == 0 || options_.k == 0) {
    stats_.pruned_by_bound = n;
    ObsIncrement(obs, "index.candidates_retrieved", n);
    ObsIncrement(obs, "index.pruned_by_bound", n);
    return hits;
  }

  const MatchOptions& match = options_.match;
  // Read on this thread first: a query prepared without its distance
  // caches fills them here, before candidates share the graph across
  // worker threads.
  const DependencyGraph& query_graph = query.graph;
  int query_max_from = 0;
  int query_max_to = 0;
  {
    const std::vector<int>& lf = query_graph.LongestDistancesFromArtificial();
    const std::vector<int>& lt = query_graph.LongestDistancesToArtificial();
    for (NodeId v = 0; v < static_cast<NodeId>(query_graph.NumNodes()); ++v) {
      if (query_graph.IsArtificial(v)) continue;
      query_max_from = std::max(query_max_from, lf[static_cast<size_t>(v)]);
      query_max_to = std::max(query_max_to, lt[static_cast<size_t>(v)]);
    }
  }

  std::unique_ptr<LabelSimilarity> measure =
      MakeLabelMeasure(match.label_measure);

  // Stage-0 label cap per entry: the exact retrieval bound for the
  // q-gram measure (when the index and the query's labels were both
  // prepared at the measure's q), 0 for structural-only matching, and
  // the trivial 1 otherwise — every case admissible for scores in
  // [0, 1].
  std::vector<double> label_caps(n, 1.0);
  const int index_q = index_.options().qgram_q;
  if (match.label_measure == LabelMeasure::kNone) {
    std::fill(label_caps.begin(), label_caps.end(), 0.0);
  } else if (match.label_measure == LabelMeasure::kQGramCosine &&
             index_q == QGramCosineSimilarity().q() &&
             query.labels.qgram_q() == index_q) {
    label_caps = index_.MaxLabelCosines(query.labels);
  }

  const double alpha = match.ems.alpha;
  const double c = match.ems.c;
  const Direction direction = match.ems.direction;
  std::priority_queue<HeapItem, std::vector<HeapItem>, HeapLess> heap;
  std::vector<double> bounds(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    const CorpusEntry& e = index_.entry(i);
    const int h_f = std::min(query_max_from, e.max_longest_from);
    const int h_b = std::min(query_max_to, e.max_longest_to);
    const double bf =
        LabeledHorizonUpperBound(0.0, 0, h_f, alpha, c, label_caps[i]);
    const double bb =
        LabeledHorizonUpperBound(0.0, 0, h_b, alpha, c, label_caps[i]);
    double bound = 0.0;
    switch (direction) {
      case Direction::kForward: bound = bf; break;
      case Direction::kBackward: bound = bb; break;
      case Direction::kBoth: bound = 0.5 * (bf + bb); break;
    }
    bounds[i] = bound;
    heap.push(HeapItem{bound, i});
  }
  ObsIncrement(obs, "index.candidates_retrieved", n);

  const size_t batch_size =
      options_.batch_size > 0
          ? options_.batch_size
          : std::max<size_t>(
                4, options_.pool != nullptr
                       ? static_cast<size_t>(options_.pool->num_threads())
                       : 1);

  // The incumbent: k-th best exact score among completed runs, or -1
  // until k runs completed (nothing may be pruned before that).
  std::priority_queue<double, std::vector<double>, std::greater<double>>
      top_scores;
  const auto incumbent = [&]() -> double {
    return top_scores.size() == options_.k ? top_scores.top() : -1.0;
  };

  std::vector<TopKHit> completed;
  while (!heap.empty()) {
    const double inc = incumbent();
    if (inc >= 0.0 && heap.top().bound < inc) break;
    std::vector<HeapItem> batch;
    while (!heap.empty() && batch.size() < batch_size) {
      if (inc >= 0.0 && heap.top().bound < inc) break;
      batch.push_back(heap.top());
      heap.pop();
    }
    std::vector<EvalOutcome> outcomes(batch.size());
    exec::TaskGroup group(options_.pool);
    for (size_t b = 0; b < batch.size(); ++b) {
      group.Run([&, b]() -> Status {
        EMS_ASSIGN_OR_RETURN(
            outcomes[b], EvaluateCandidate(query, index_.entry(batch[b].idx),
                                           *measure, match, inc));
        return Status::OK();
      });
    }
    EMS_RETURN_NOT_OK(group.Wait());
    for (size_t b = 0; b < batch.size(); ++b) {
      EvalOutcome& o = outcomes[b];
      if (o.aborted) {
        ++stats_.aborted_runs;
        continue;
      }
      ++stats_.exact_runs;
      top_scores.push(o.score);
      if (top_scores.size() > options_.k) top_scores.pop();
      ObsObserveQuantile(obs, "index.bound_tightness",
                         batch[b].bound - o.score);
      TopKHit hit;
      hit.name = index_.entry(batch[b].idx).name;
      hit.member_index = batch[b].idx;
      hit.score = o.score;
      hit.bound = batch[b].bound;
      hit.match = std::move(o.match);
      completed.push_back(std::move(hit));
    }
  }
  stats_.pruned_by_bound = heap.size();
  ObsIncrement(obs, "index.pruned_by_bound", stats_.pruned_by_bound);
  ObsIncrement(obs, "index.exact_runs", stats_.exact_runs);
  ObsIncrement(obs, "index.aborted_runs", stats_.aborted_runs);

  // Reproduce the brute-force ranking byte for byte: member order, then
  // a stable sort on score — boundary ties keep insertion order.
  std::sort(completed.begin(), completed.end(),
            [](const TopKHit& a, const TopKHit& b) {
              return a.member_index < b.member_index;
            });
  std::stable_sort(completed.begin(), completed.end(),
                   [](const TopKHit& a, const TopKHit& b) {
                     return a.score > b.score;
                   });
  if (completed.size() > options_.k) completed.resize(options_.k);
  return completed;
}

Result<std::vector<TopKHit>> TopKScheduler::BruteForce(
    const EventLog& query) {
  stats_.used_brute_force = true;
  const size_t n = index_.size();
  stats_.exact_runs = n;
  Matcher matcher(options_.match);
  std::vector<TopKHit> hits(n);
  exec::TaskGroup group(options_.pool);
  for (size_t i = 0; i < n; ++i) {
    group.Run([&, i, token = group.token()]() -> Status {
      if (token.cancelled()) return Status::Cancelled("top-k query aborted");
      const CorpusEntry& e = index_.entry(i);
      EMS_ASSIGN_OR_RETURN(MatchResult match,
                           matcher.Match(query, e.prepared.log));
      double total = 0.0;
      for (const Correspondence& corr : match.correspondences) {
        total += corr.similarity;
      }
      TopKHit& hit = hits[i];
      hit.name = e.name;
      hit.member_index = i;
      hit.score = match.correspondences.empty()
                      ? 0.0
                      : total / static_cast<double>(
                                    match.correspondences.size());
      hit.match = std::move(match);
      return Status::OK();
    });
  }
  EMS_RETURN_NOT_OK(group.Wait());
  std::stable_sort(hits.begin(), hits.end(),
                   [](const TopKHit& a, const TopKHit& b) {
                     return a.score > b.score;
                   });
  if (hits.size() > options_.k) hits.resize(options_.k);
  return hits;
}

}  // namespace index
}  // namespace ems
