#include "core/composite_matcher.h"

#include <algorithm>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>

#include "assignment/selection.h"
#include "core/bounds.h"
#include "core/estimation.h"
#include "exec/parallel.h"
#include "exec/thread_pool.h"
#include "graph/dependency_graph_builder.h"
#include "obs/context.h"
#include "util/timer.h"

namespace ems {

namespace {

// Hash index from a node's member set (order-insensitive) to its NodeId,
// built once per lookup batch instead of scanning and re-sorting every
// node's members per query.
class MemberIndex {
 public:
  explicit MemberIndex(const DependencyGraph& g) {
    index_.reserve(g.NumNodes());
    for (NodeId v = 0; v < static_cast<NodeId>(g.NumNodes()); ++v) {
      if (g.IsArtificial(v)) continue;
      index_.emplace(Key(g.Members(v)), v);
    }
  }

  // NodeId with exactly the given member set, or -1 if absent.
  NodeId Find(const std::vector<EventId>& members) const {
    auto it = index_.find(Key(members));
    return it == index_.end() ? -1 : it->second;
  }

 private:
  static std::string Key(std::vector<EventId> members) {
    std::sort(members.begin(), members.end());
    return std::string(reinterpret_cast<const char*>(members.data()),
                       members.size() * sizeof(EventId));
  }

  std::unordered_map<std::string, NodeId> index_;
};

double CombinedAverage(const SimilarityMatrix& fwd,
                       const SimilarityMatrix& bwd) {
  // Averages are linear, so combining first is unnecessary.
  return (fwd.Average(1, 1) + bwd.Average(1, 1)) / 2.0;
}

SimilarityMatrix CombineMatrices(const SimilarityMatrix& fwd,
                                 const SimilarityMatrix& bwd) {
  SimilarityMatrix out(fwd.rows(), fwd.cols(), 0.0);
  for (NodeId r = 0; r < static_cast<NodeId>(fwd.rows()); ++r) {
    for (NodeId c = 0; c < static_cast<NodeId>(fwd.cols()); ++c) {
      out.set(r, c, (fwd.at(r, c) + bwd.at(r, c)) / 2.0);
    }
  }
  return out;
}

// Quality mass of the best 1:1 alignment: the Hungarian total over
// matched pairs with similarity >= `threshold`, divided by `denominator`
// (min of the original singleton vocabulary sizes — fixed across merges
// so the objective is comparable between greedy steps).
double MatchedTotalObjective(const SimilarityMatrix& combined,
                             double threshold, size_t denominator) {
  if (denominator == 0) return 0.0;
  std::vector<std::vector<double>> sub =
      combined.RealSubmatrix(true, true);
  double total = 0.0;
  for (const Match& m : SelectMaxTotalSimilarity(sub)) {
    if (m.similarity >= threshold) total += m.similarity;
  }
  return total / static_cast<double>(denominator);
}

// Upper bound on the matched-total objective given per-pair similarity
// upper bounds supplied by `pair_bound(v1, v2)`: counted matched pairs
// sit in distinct rows and there are at most K = min(real sizes) of
// them, each bounded by its row maximum, so (sum of the K largest row
// maxima) / denominator dominates the objective. The threshold and the
// column constraint only lower the true value. Sound, if loose.
template <typename PairBound>
double MatchedTotalBound(const DependencyGraph& g1, const DependencyGraph& g2,
                         size_t denominator, PairBound pair_bound) {
  if (denominator == 0) return 0.0;
  std::vector<double> row_max;
  for (NodeId v1 = 0; v1 < static_cast<NodeId>(g1.NumNodes()); ++v1) {
    if (g1.IsArtificial(v1)) continue;
    double best = 0.0;
    for (NodeId v2 = 0; v2 < static_cast<NodeId>(g2.NumNodes()); ++v2) {
      if (g2.IsArtificial(v2)) continue;
      best = std::max(best, pair_bound(v1, v2));
    }
    row_max.push_back(best);
  }
  size_t real1 = g1.NumNodes() - (g1.has_artificial() ? 1 : 0);
  size_t real2 = g2.NumNodes() - (g2.has_artificial() ? 1 : 0);
  size_t k = std::min(real1, real2);
  std::sort(row_max.begin(), row_max.end(), std::greater<double>());
  double total = 0.0;
  for (size_t i = 0; i < std::min(k, row_max.size()); ++i) {
    total += row_max[i];
  }
  return total / static_cast<double>(denominator);
}

// S^L between the two logs' event vocabularies, by EventId.
std::vector<std::vector<double>> EventLabelMatrix(
    const EventLog& log1, const EventLog& log2,
    const LabelSimilarity& measure) {
  const int q = ProfileQ(measure);
  return LabelSimilarityMatrix(LabelProfiles(log1.event_names(), q),
                               LabelProfiles(log2.event_names(), q), measure);
}

}  // namespace

CompositeMatcher::CompositeMatcher(const EventLog& log1, const EventLog& log2,
                                   const CompositeOptions& options,
                                   const LabelSimilarity* label_measure)
    : log1_(log1), log2_(log2), options_(options),
      label_measure_(label_measure), builder1_(log1), builder2_(log2),
      denom_(std::min(log1.NumEvents(), log2.NumEvents())) {
  // One assignment instruments every inner EMS/estimation run too.
  options_.ems.obs = options_.obs;
  if (label_measure_ != nullptr) {
    event_labels_ = EventLabelMatrix(log1_, log2_, *label_measure_);
  }
}

void CompositeMatcher::SetCandidates(
    std::vector<CompositeCandidate> candidates1,
    std::vector<CompositeCandidate> candidates2) {
  candidates1_ = std::move(candidates1);
  candidates2_ = std::move(candidates2);
  explicit_candidates_ = true;
}

Result<CompositeMatcher::GraphState> CompositeMatcher::Evaluate(
    const std::vector<std::vector<EventId>>& w1,
    const std::vector<std::vector<EventId>>& w2, const GraphState* previous,
    bool merged_on_side1, const std::vector<EventId>* new_composite,
    double incumbent_average, bool* pruned_out, CompositeStats* stats,
    ObsContext* obs, bool serial_ems) const {
  if (pruned_out != nullptr) *pruned_out = false;
  ScopedSpan span(obs, "candidate_eval");
  GraphState state;
  DependencyGraphOptions graph_opts = options_.graph;
  graph_opts.add_artificial_event = true;
  // A candidate changes one side only; the other side's graph is the
  // step-entry state's, which is only read here (parallel tasks share it).
  if (previous != nullptr && !merged_on_side1) {
    state.g1 = previous->g1;
  } else {
    EMS_ASSIGN_OR_RETURN(state.g1,
                         builder1_.BuildWithComposites(w1, graph_opts));
  }
  if (previous != nullptr && merged_on_side1) {
    state.g2 = previous->g2;
  } else {
    EMS_ASSIGN_OR_RETURN(state.g2,
                         builder2_.BuildWithComposites(w2, graph_opts));
  }

  std::vector<std::vector<double>> labels;
  const std::vector<std::vector<double>>* labels_ptr = nullptr;
  if (label_measure_ != nullptr) {
    labels = MemberLabelMatrix(state.g1, state.g2, event_labels_);
    labels_ptr = &labels;
  }
  const size_t denom = denom_;

  EmsOptions ems_opts = options_.ems;
  ems_opts.obs = obs;
  if (serial_ems) {
    // Inside a parallel greedy step the candidates already occupy the
    // workers; nested EMS parallelism would oversubscribe (and EMS is
    // bit-identical at any thread count, so nothing changes).
    ems_opts.num_threads = 1;
    ems_opts.pool = nullptr;
  }

  if (options_.use_estimation) {
    // EMS+es path: estimated similarities per direction, no Uc/Bd.
    EstimationOptions est;
    est.exact_iterations = options_.estimation_iterations;
    est.ems = ems_opts;
    est.ems.direction = Direction::kForward;
    EstimatedEmsSimilarity fwd(state.g1, state.g2, est, labels_ptr);
    state.forward = fwd.Compute();
    stats->AddEmsRun(fwd.stats());
    est.ems.direction = Direction::kBackward;
    EstimatedEmsSimilarity bwd(state.g1, state.g2, est, labels_ptr);
    state.backward = bwd.Compute();
    stats->AddEmsRun(bwd.stats());
    if (options_.objective == CompositeObjective::kAveragePairs) {
      state.average = CombinedAverage(state.forward, state.backward);
    } else {
      state.average = MatchedTotalObjective(
          CombineMatrices(state.forward, state.backward),
          options_.objective_threshold, denom);
    }
    return state;
  }

  EmsSimilarity sim(state.g1, state.g2, ems_opts, labels_ptr);

  // --- Uc (Proposition 4): freeze rows/columns whose similarities cannot
  // have changed relative to the previous state.
  const bool use_uc = previous != nullptr && new_composite != nullptr &&
                      options_.prune_unchanged;
  std::vector<bool> frozen_fwd, frozen_bwd;
  SimilarityMatrix frozen_fwd_vals, frozen_bwd_vals;
  if (use_uc) {
    const DependencyGraph& g_new = merged_on_side1 ? state.g1 : state.g2;
    const DependencyGraph& g_old = merged_on_side1 ? previous->g1
                                                   : previous->g2;
    NodeId merged = MemberIndex(g_new).Find(*new_composite);
    EMS_DCHECK(merged >= 0);
    // Forward similarity changes only for the merged node and everything
    // downstream of it; backward, upstream.
    std::vector<bool> affected_fwd(g_new.NumNodes(), false);
    std::vector<bool> affected_bwd(g_new.NumNodes(), false);
    affected_fwd[static_cast<size_t>(merged)] = true;
    affected_bwd[static_cast<size_t>(merged)] = true;
    for (NodeId v : g_new.Descendants(merged)) {
      affected_fwd[static_cast<size_t>(v)] = true;
    }
    for (NodeId v : g_new.Ancestors(merged)) {
      affected_bwd[static_cast<size_t>(v)] = true;
    }
    // Old and new nodes pair by member set: display names need not be
    // unique (an event named "a+b" next to a composite {a, b}).
    const MemberIndex old_index(g_old);
    frozen_fwd.assign(g_new.NumNodes(), false);
    frozen_bwd.assign(g_new.NumNodes(), false);
    std::vector<NodeId> old_of(g_new.NumNodes(), -1);
    for (NodeId v = 0; v < static_cast<NodeId>(g_new.NumNodes()); ++v) {
      if (g_new.IsArtificial(v)) continue;
      const NodeId old_v = old_index.Find(g_new.Members(v));
      if (old_v < 0) continue;
      old_of[static_cast<size_t>(v)] = old_v;
      if (!affected_fwd[static_cast<size_t>(v)]) {
        frozen_fwd[static_cast<size_t>(v)] = true;
        ++stats->rows_frozen;
      }
      if (!affected_bwd[static_cast<size_t>(v)]) {
        frozen_bwd[static_cast<size_t>(v)] = true;
        ++stats->rows_frozen;
      }
    }
    // Previous-state values remapped into the new graph's indexing. The
    // unchanged side keeps identical node ids (deterministic builds).
    frozen_fwd_vals = SimilarityMatrix(state.g1.NumNodes(),
                                       state.g2.NumNodes(), 0.0);
    frozen_bwd_vals = frozen_fwd_vals;
    for (NodeId v = 0; v < static_cast<NodeId>(g_new.NumNodes()); ++v) {
      NodeId old_v = old_of[static_cast<size_t>(v)];
      if (old_v < 0) continue;
      const size_t other_n = merged_on_side1 ? state.g2.NumNodes()
                                             : state.g1.NumNodes();
      for (NodeId u = 0; u < static_cast<NodeId>(other_n); ++u) {
        if (merged_on_side1) {
          frozen_fwd_vals.set(v, u, previous->forward.at(old_v, u));
          frozen_bwd_vals.set(v, u, previous->backward.at(old_v, u));
        } else {
          frozen_fwd_vals.set(u, v, previous->forward.at(u, old_v));
          frozen_bwd_vals.set(u, v, previous->backward.at(u, old_v));
        }
      }
    }
  }

  // --- Bd (Section 4.3): abandon the candidate when the upper bound of
  // its objective cannot reach the incumbent.
  const bool use_bd = options_.prune_bounds && incumbent_average > 0.0;
  bool aborted = false;

  // Objective upper bound after iteration k of one direction, with the
  // other direction either unknown (capped per pair at 1) or final.
  auto objective_bound = [&](Direction dir, int k, const SimilarityMatrix& cur,
                             const SimilarityMatrix* fwd_final) {
    const double alpha = options_.ems.alpha;
    const double c = options_.ems.c;
    if (options_.objective == CompositeObjective::kAveragePairs) {
      double bound = AverageUpperBound(sim, dir, cur, k, state.g1, state.g2);
      double other = fwd_final != nullptr ? fwd_final->Average(1, 1) : 1.0;
      return (bound + other) / 2.0;
    }
    return MatchedTotalBound(
        state.g1, state.g2, denom, [&](NodeId v1, NodeId v2) {
          int h = sim.ConvergenceHorizon(dir, v1, v2);
          double ub = HorizonUpperBound(cur.at(v1, v2), k, h, alpha, c);
          double other = fwd_final != nullptr ? fwd_final->at(v1, v2) : 1.0;
          return (ub + other) / 2.0;
        });
  };

  auto make_controls = [&](const SimilarityMatrix* fwd_final,
                           const std::vector<bool>* frz,
                           const SimilarityMatrix* vals) {
    RunControls controls;
    if (use_uc) {
      if (merged_on_side1) {
        controls.frozen_rows = frz;
      } else {
        controls.frozen_cols = frz;
      }
      controls.frozen_values = vals;
    }
    if (use_bd) {
      controls.should_abort = [&objective_bound, fwd_final,
                               incumbent_average](
                                  Direction d, int k,
                                  const SimilarityMatrix& cur,
                                  const SimilarityMatrix*) {
        return objective_bound(d, k, cur, fwd_final) < incumbent_average;
      };
    }
    controls.aborted = &aborted;
    return controls;
  };

  RunControls fwd_controls = make_controls(
      /*fwd_final=*/nullptr, use_uc ? &frozen_fwd : nullptr,
      use_uc ? &frozen_fwd_vals : nullptr);
  state.forward = sim.ComputeControlled(Direction::kForward, fwd_controls);
  stats->AddEmsRun(sim.stats());
  if (aborted) {
    if (pruned_out != nullptr) *pruned_out = true;
    return state;
  }

  RunControls bwd_controls = make_controls(
      /*fwd_final=*/&state.forward, use_uc ? &frozen_bwd : nullptr,
      use_uc ? &frozen_bwd_vals : nullptr);
  state.backward = sim.ComputeControlled(Direction::kBackward, bwd_controls);
  stats->AddEmsRun(sim.stats());
  if (aborted) {
    if (pruned_out != nullptr) *pruned_out = true;
    return state;
  }

  if (options_.objective == CompositeObjective::kAveragePairs) {
    state.average = CombinedAverage(state.forward, state.backward);
  } else {
    state.average = MatchedTotalObjective(
        CombineMatrices(state.forward, state.backward),
        options_.objective_threshold, denom);
  }
  return state;
}

Result<CompositeMatchResult> CompositeMatcher::Match() {
  ScopedSpan span(options_.obs, "composite_search");
  stats_ = CompositeStats{};
  if (!explicit_candidates_) {
    ScopedSpan discovery(options_.obs, "candidate_discovery");
    candidates1_ = DiscoverCandidates(log1_, options_.candidates);
    candidates2_ = DiscoverCandidates(log2_, options_.candidates);
  }
  ObsIncrement(options_.obs, "composite.candidates_discovered",
               candidates1_.size() + candidates2_.size());

  // Worker setup for parallel candidate evaluation (serial by default).
  exec::ThreadPool* pool = options_.pool;
  const int workers =
      pool != nullptr ? pool->num_threads()
                      : exec::ThreadPool::EffectiveThreads(options_.num_threads);
  std::unique_ptr<exec::ThreadPool> owned_pool;
  if (pool == nullptr && workers > 1) {
    owned_pool = std::make_unique<exec::ThreadPool>(workers);
    pool = owned_pool.get();
  }
  const bool parallel_step = workers > 1;

  // Accepted-member bitmaps make the per-candidate overlap test O(|cand|)
  // instead of scanning every accepted composite.
  std::vector<char> used1(log1_.NumEvents(), 0);
  std::vector<char> used2(log2_.NumEvents(), 0);
  auto overlaps_used = [](const std::vector<char>& used,
                          const std::vector<EventId>& events) {
    for (EventId e : events) {
      if (e >= 0 && static_cast<size_t>(e) < used.size() &&
          used[static_cast<size_t>(e)] != 0) {
        return true;
      }
    }
    return false;
  };

  std::vector<std::vector<EventId>> w1, w2;
  EMS_ASSIGN_OR_RETURN(
      GraphState state,
      Evaluate(w1, w2, nullptr, false, nullptr, /*incumbent=*/-1.0, nullptr,
               &stats_, options_.obs, /*serial_ems=*/false));

  for (int step = 0; step < options_.max_steps; ++step) {
    ScopedSpan step_span(options_.obs, "greedy_step");
    double best_avg = -1.0;
    int best_side = 0;
    const CompositeCandidate* best_candidate = nullptr;
    GraphState best_state;

    // Surviving candidates in (side, index) order — the serial evaluation
    // order, which parallel winner selection reproduces exactly.
    struct WorkItem {
      int side;
      const CompositeCandidate* cand;
    };
    std::vector<WorkItem> work;
    for (int side = 1; side <= 2; ++side) {
      const auto& candidates = side == 1 ? candidates1_ : candidates2_;
      const auto& used = side == 1 ? used1 : used2;
      for (const CompositeCandidate& cand : candidates) {
        if (cand.events.size() < 2) continue;
        if (overlaps_used(used, cand.events)) continue;
        work.push_back({side, &cand});
      }
    }

    // Posterior-guided ranking: evaluate candidates whose members the EM
    // posterior already sends to the same partner first. The step's
    // winner set is unchanged except for exact ties (see
    // CompositeOptions::prob); the payoff is the serial Bd incumbent
    // ratcheting up sooner.
    if (options_.prob.enabled && work.size() > 1) {
      prob::EmOptions em = options_.prob;
      em.pool = nullptr;  // ranking is a cheap serial side computation
      em.num_threads = 1;
      em.obs = nullptr;
      const prob::SoftMatchResult soft = prob::ComputeSoftMatch(
          CombineMatrices(state.forward, state.backward),
          state.g1.has_artificial(), state.g2.has_artificial(), em);
      if (!soft.empty()) {
        const NodeId poff1 = state.g1.has_artificial() ? 1 : 0;
        const NodeId poff2 = state.g2.has_artificial() ? 1 : 0;
        std::vector<int> row_of(log1_.NumEvents(), -1);
        std::vector<int> col_of(log2_.NumEvents(), -1);
        for (NodeId v = poff1;
             static_cast<size_t>(v) < state.g1.NumNodes(); ++v) {
          for (EventId e : state.g1.Members(v)) {
            if (e >= 0 && static_cast<size_t>(e) < row_of.size()) {
              row_of[static_cast<size_t>(e)] = v - poff1;
            }
          }
        }
        for (NodeId v = poff2;
             static_cast<size_t>(v) < state.g2.NumNodes(); ++v) {
          for (EventId e : state.g2.Members(v)) {
            if (e >= 0 && static_cast<size_t>(e) < col_of.size()) {
              col_of[static_cast<size_t>(e)] = v - poff2;
            }
          }
        }
        // Overlap score: posterior mass all members place on a common
        // partner — Σ_j min over members of r(member, j) for side 1,
        // the column-wise analogue for side 2.
        const size_t n1 = soft.posterior.rows();
        const size_t n2 = soft.posterior.cols();
        auto overlap = [&](const WorkItem& item) {
          double total = 0.0;
          const size_t span = item.side == 1 ? n2 : n1;
          for (size_t k = 0; k < span; ++k) {
            double mass = 1.0;
            for (EventId e : item.cand->events) {
              const std::vector<int>& idx = item.side == 1 ? row_of : col_of;
              const int node = (e >= 0 && static_cast<size_t>(e) < idx.size())
                                   ? idx[static_cast<size_t>(e)]
                                   : -1;
              if (node < 0) {
                mass = 0.0;
                break;
              }
              const double p = item.side == 1
                                   ? soft.posterior.at(node, static_cast<NodeId>(k))
                                   : soft.posterior.at(static_cast<NodeId>(k), node);
              mass = std::min(mass, p);
            }
            total += mass;
          }
          return total;
        };
        std::vector<double> scores(work.size());
        for (size_t i = 0; i < work.size(); ++i) scores[i] = overlap(work[i]);
        std::vector<size_t> order(work.size());
        for (size_t i = 0; i < order.size(); ++i) order[i] = i;
        std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
          return scores[a] > scores[b];
        });
        std::vector<WorkItem> ranked;
        ranked.reserve(work.size());
        for (size_t i : order) ranked.push_back(work[i]);
        work = std::move(ranked);
        ++stats_.prob_ranked_steps;
      }
    }

    if (!parallel_step) {
      for (const WorkItem& item : work) {
        auto try_w1 = w1;
        auto try_w2 = w2;
        (item.side == 1 ? try_w1 : try_w2).push_back(item.cand->events);

        double incumbent = std::max(state.average + options_.delta, best_avg);
        bool pruned = false;
        ++stats_.candidates_evaluated;
        EMS_ASSIGN_OR_RETURN(
            GraphState eval,
            Evaluate(try_w1, try_w2, &state, item.side == 1,
                     &item.cand->events, incumbent, &pruned, &stats_,
                     options_.obs, /*serial_ems=*/false));
        if (pruned) {
          ++stats_.candidates_pruned_by_bound;
          continue;
        }
        if (eval.average > best_avg) {
          best_avg = eval.average;
          best_side = item.side;
          best_candidate = item.cand;
          best_state = std::move(eval);
        }
      }
    } else {
      // Parallel step. Every task bounds Bd against the step-entry
      // incumbent only (no ratcheting on siblings), which prunes no more
      // than the serial loop would; the index-ordered merge below with a
      // strict `>` then picks the same winner the serial loop picks (the
      // full argument is in docs/CONCURRENCY.md).
      const double step_incumbent = state.average + options_.delta;
      struct Slot {
        GraphState eval;
        bool pruned = false;
        CompositeStats stats;
        double millis = 0.0;
      };
      std::vector<Slot> slots(work.size());
      exec::TaskGroup group(pool);
      for (size_t i = 0; i < work.size(); ++i) {
        group.Run([&, i]() -> Status {
          const WorkItem& item = work[i];
          auto try_w1 = w1;
          auto try_w2 = w2;
          (item.side == 1 ? try_w1 : try_w2).push_back(item.cand->events);
          Timer timer;
          EMS_ASSIGN_OR_RETURN(
              slots[i].eval,
              Evaluate(try_w1, try_w2, &state, item.side == 1,
                       &item.cand->events, step_incumbent, &slots[i].pruned,
                       &slots[i].stats, /*obs=*/nullptr, /*serial_ems=*/true));
          slots[i].millis = timer.ElapsedMillis();
          return Status::OK();
        });
      }
      EMS_RETURN_NOT_OK(group.Wait());

      EmsStats step_ems;
      uint64_t step_runs = 0;
      uint64_t step_pruned = 0;
      for (size_t i = 0; i < work.size(); ++i) {
        Slot& slot = slots[i];
        ++stats_.candidates_evaluated;
        ++stats_.candidates_evaluated_parallel;
        step_ems.Add(slot.stats.ems);
        step_runs += slot.stats.ems_runs;
        stats_.Add(slot.stats);
        ObsObserveQuantile(options_.obs, "composite.candidate_eval_millis",
                           slot.millis);
        if (slot.pruned) {
          ++stats_.candidates_pruned_by_bound;
          ++step_pruned;
          continue;
        }
        if (slot.eval.average > best_avg) {
          best_avg = slot.eval.average;
          best_side = work[i].side;
          best_candidate = work[i].cand;
          best_state = std::move(slot.eval);
        }
      }
      // Parallel tasks run with a null obs (one TraceRecorder cannot
      // interleave concurrent spans), so mirror their aggregated EMS
      // counters here; per-run histograms are serial-only.
      if (options_.obs != nullptr && step_runs > 0) {
        ObsIncrement(options_.obs, "ems.runs", step_runs);
        ObsIncrement(options_.obs, "ems.iterations",
                     static_cast<uint64_t>(step_ems.iterations));
        ObsIncrement(options_.obs, "ems.formula_evaluations",
                     step_ems.formula_evaluations);
        ObsIncrement(options_.obs, "ems.pairs_pruned_converged",
                     step_ems.pairs_pruned_converged);
        ObsIncrement(options_.obs, "ems.pairs_skipped_unchanged",
                     step_ems.pairs_skipped_unchanged);
        ObsIncrement(options_.obs, "ems.aborted_runs", step_pruned);
      }
    }

    // Algorithm 2 line 9: stop when the best improvement is below delta.
    if (best_candidate == nullptr ||
        best_avg - state.average < options_.delta) {
      break;
    }
    (best_side == 1 ? w1 : w2).push_back(best_candidate->events);
    auto& used = best_side == 1 ? used1 : used2;
    for (EventId e : best_candidate->events) {
      if (e >= 0 && static_cast<size_t>(e) < used.size()) {
        used[static_cast<size_t>(e)] = 1;
      }
    }
    state = std::move(best_state);
    ++stats_.merges_accepted;
  }

  CompositeMatchResult result;
  result.composites1 = std::move(w1);
  result.composites2 = std::move(w2);
  result.similarity = CombineMatrices(state.forward, state.backward);
  result.average_similarity = state.average;
  result.graph1 = std::move(state.g1);
  result.graph2 = std::move(state.g2);
  result.stats = stats_;
  if (options_.obs != nullptr) {
    ObsIncrement(options_.obs, "composite.candidates_evaluated",
                 static_cast<uint64_t>(stats_.candidates_evaluated));
    ObsIncrement(options_.obs, "composite.candidates_evaluated_parallel",
                 static_cast<uint64_t>(stats_.candidates_evaluated_parallel));
    ObsIncrement(options_.obs, "composite.candidates_pruned_by_bound",
                 static_cast<uint64_t>(stats_.candidates_pruned_by_bound));
    ObsIncrement(options_.obs, "composite.merges_accepted",
                 static_cast<uint64_t>(stats_.merges_accepted));
    ObsIncrement(options_.obs, "composite.rows_frozen", stats_.rows_frozen);
    ObsIncrement(options_.obs, "composite.prob_ranked_steps",
                 static_cast<uint64_t>(stats_.prob_ranked_steps));
    ObsSetGauge(options_.obs, "composite.objective",
                result.average_similarity);
    // The initial evaluation builds both graphs; each candidate builds
    // the side it changes and copies the other from the step's state.
    ObsIncrement(options_.obs, "graph.builds",
                 2 + static_cast<uint64_t>(stats_.candidates_evaluated));
  }
  return result;
}

namespace {

// All subfamilies of pairwise-disjoint candidates (indices), including
// the empty family.
void EnumerateDisjointFamilies(const std::vector<CompositeCandidate>& cands,
                               size_t idx, std::vector<size_t>* current,
                               std::vector<EventId>* used,
                               std::vector<std::vector<size_t>>* out) {
  if (idx == cands.size()) {
    out->push_back(*current);
    return;
  }
  // Skip candidate idx.
  EnumerateDisjointFamilies(cands, idx + 1, current, used, out);
  // Take candidate idx if disjoint from used events.
  for (EventId e : cands[idx].events) {
    if (std::find(used->begin(), used->end(), e) != used->end()) return;
  }
  size_t mark = used->size();
  for (EventId e : cands[idx].events) used->push_back(e);
  current->push_back(idx);
  EnumerateDisjointFamilies(cands, idx + 1, current, used, out);
  current->pop_back();
  used->resize(mark);
}

}  // namespace

Result<CompositeMatchResult> ExactCompositeMatch(
    const EventLog& log1, const EventLog& log2,
    const std::vector<CompositeCandidate>& candidates1,
    const std::vector<CompositeCandidate>& candidates2,
    const CompositeOptions& options, const LabelSimilarity* label_measure,
    uint64_t max_combinations) {
  std::vector<std::vector<size_t>> families1, families2;
  {
    std::vector<size_t> current;
    std::vector<EventId> used;
    EnumerateDisjointFamilies(candidates1, 0, &current, &used, &families1);
    current.clear();
    used.clear();
    EnumerateDisjointFamilies(candidates2, 0, &current, &used, &families2);
  }
  uint64_t combos = static_cast<uint64_t>(families1.size()) *
                    static_cast<uint64_t>(families2.size());
  if (combos > max_combinations) {
    return Status::ResourceExhausted(
        "exact composite matching: " + std::to_string(combos) +
        " combinations exceed the budget");
  }

  std::vector<std::vector<double>> event_labels;
  if (label_measure != nullptr) {
    event_labels = EventLabelMatrix(log1, log2, *label_measure);
  }
  const DependencyGraphBuilder builder1(log1);
  const DependencyGraphBuilder builder2(log2);
  DependencyGraphOptions graph_opts = options.graph;
  graph_opts.add_artificial_event = true;
  CompositeMatchResult best;
  best.average_similarity = -1.0;
  for (const auto& f1 : families1) {
    std::vector<std::vector<EventId>> w1;
    for (size_t i : f1) w1.push_back(candidates1[i].events);
    for (const auto& f2 : families2) {
      std::vector<std::vector<EventId>> w2;
      for (size_t j : f2) w2.push_back(candidates2[j].events);

      EMS_ASSIGN_OR_RETURN(DependencyGraph g1,
                           builder1.BuildWithComposites(w1, graph_opts));
      EMS_ASSIGN_OR_RETURN(DependencyGraph g2,
                           builder2.BuildWithComposites(w2, graph_opts));
      std::vector<std::vector<double>> labels;
      const std::vector<std::vector<double>>* labels_ptr = nullptr;
      if (label_measure != nullptr) {
        labels = MemberLabelMatrix(g1, g2, event_labels);
        labels_ptr = &labels;
      }
      EmsOptions ems_opts = options.ems;
      ems_opts.direction = Direction::kBoth;
      EmsSimilarity sim(g1, g2, ems_opts, labels_ptr);
      SimilarityMatrix combined = sim.Compute();
      double avg =
          options.objective == CompositeObjective::kAveragePairs
              ? combined.Average(1, 1)
              : MatchedTotalObjective(combined, options.objective_threshold,
                                      std::min(log1.NumEvents(),
                                               log2.NumEvents()));
      if (avg > best.average_similarity) {
        best.average_similarity = avg;
        best.composites1 = w1;
        best.composites2 = w2;
        best.similarity = std::move(combined);
        best.graph1 = std::move(g1);
        best.graph2 = std::move(g2);
      }
    }
  }
  return best;
}

}  // namespace ems
