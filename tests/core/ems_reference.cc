#include "core/ems_reference.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace ems {
namespace testing {

namespace {

// Formula (1)'s edge coefficient and final blend, written as the same
// expressions the kernel evaluates; the kernel tests pin that the two
// stay bit-identical.
double EdgeCoeff(double c, double fa, double fb) {
  return c * (1.0 - std::fabs(fa - fb) / (fa + fb));
}

double BlendPair(double alpha, double s12, double s21, double label) {
  return alpha * (s12 + s21) / 2.0 + (1.0 - alpha) * label;
}

}  // namespace

ReferenceEms::ReferenceEms(
    const DependencyGraph& g1, const DependencyGraph& g2,
    const EmsOptions& options,
    const std::vector<std::vector<double>>* label_similarity)
    : g1_(g1), g2_(g2), options_(options), labels_(label_similarity) {}

double ReferenceEms::OneSide(Direction direction, const SimilarityMatrix& prev,
                             NodeId v1, NodeId v2, bool transposed) const {
  // s(v1, v2) = (1/|N(v1)|) * sum over v1' in N(v1) of
  //             max over v2' in N(v2) of C(...) * S^{n-1}(v1', v2'),
  // where N is the pre-set (forward) or post-set (backward). When
  // `transposed`, the roles of the two graphs swap (s(v2, v1)) but matrix
  // indexing stays (g1-node, g2-node).
  const bool forward = direction == Direction::kForward;
  const DependencyGraph& ga = transposed ? g2_ : g1_;
  const DependencyGraph& gb = transposed ? g1_ : g2_;
  const NodeId a = transposed ? v2 : v1;
  const NodeId b = transposed ? v1 : v2;

  const auto& nbrs_a = forward ? ga.Predecessors(a) : ga.Successors(a);
  const auto& freq_a =
      forward ? ga.PredecessorFrequencies(a) : ga.SuccessorFrequencies(a);
  const auto& nbrs_b = forward ? gb.Predecessors(b) : gb.Successors(b);
  const auto& freq_b =
      forward ? gb.PredecessorFrequencies(b) : gb.SuccessorFrequencies(b);

  if (nbrs_a.empty() || nbrs_b.empty()) return 0.0;

  double sum = 0.0;
  for (size_t i = 0; i < nbrs_a.size(); ++i) {
    double best = 0.0;
    for (size_t j = 0; j < nbrs_b.size(); ++j) {
      double sim = transposed ? prev.at(nbrs_b[j], nbrs_a[i])
                              : prev.at(nbrs_a[i], nbrs_b[j]);
      if (sim <= 0.0) continue;
      double coeff = EdgeCoeff(options_.c, freq_a[i], freq_b[j]);
      best = std::max(best, coeff * sim);
    }
    sum += best;
  }
  return sum / static_cast<double>(nbrs_a.size());
}

SimilarityMatrix ReferenceEms::RunDirection(Direction direction,
                                            int max_iterations,
                                            const RunControls* controls) {
  const NodeId rows = static_cast<NodeId>(g1_.NumNodes());
  const NodeId cols = static_cast<NodeId>(g2_.NumNodes());
  // S^0(v1^X, v2^X) = 1; every other pair starts at 0 (Section 3.2),
  // except frozen pairs, which hold their given values throughout.
  SimilarityMatrix prev(g1_.NumNodes(), g2_.NumNodes(), 0.0);
  prev.set(g1_.artificial_node(), g2_.artificial_node(), 1.0);
  const std::vector<bool>* frozen_rows =
      controls != nullptr ? controls->frozen_rows : nullptr;
  const std::vector<bool>* frozen_cols =
      controls != nullptr ? controls->frozen_cols : nullptr;
  auto frozen = [&](NodeId v1, NodeId v2) {
    return (frozen_rows != nullptr &&
            (*frozen_rows)[static_cast<size_t>(v1)]) ||
           (frozen_cols != nullptr &&
            (*frozen_cols)[static_cast<size_t>(v2)]);
  };
  for (NodeId v1 = 1; v1 < rows; ++v1) {
    for (NodeId v2 = 1; v2 < cols; ++v2) {
      if (frozen(v1, v2)) {
        prev.set(v1, v2, controls->frozen_values->at(v1, v2));
      }
    }
  }
  if (controls != nullptr && controls->aborted != nullptr) {
    *controls->aborted = false;
  }
  const bool fwd = direction == Direction::kForward;
  const std::vector<int>& l1 = fwd ? g1_.LongestDistancesFromArtificial()
                                   : g1_.LongestDistancesToArtificial();
  const std::vector<int>& l2 = fwd ? g2_.LongestDistancesFromArtificial()
                                   : g2_.LongestDistancesToArtificial();

  SimilarityMatrix next = prev;
  int n = 0;
  while (n < max_iterations) {
    ++n;
    double max_delta = 0.0;
    for (NodeId v1 = 1; v1 < rows; ++v1) {
      for (NodeId v2 = 1; v2 < cols; ++v2) {
        if (frozen(v1, v2)) {
          next.set(v1, v2, prev.at(v1, v2));
          continue;
        }
        if (options_.prune_converged &&
            n > std::min(l1[static_cast<size_t>(v1)],
                         l2[static_cast<size_t>(v2)])) {
          // Proposition 2: the value can no longer change; keep it.
          next.set(v1, v2, prev.at(v1, v2));
          ++stats_.pairs_pruned_converged;
          continue;
        }
        const double s12 = OneSide(direction, prev, v1, v2, false);
        const double s21 = OneSide(direction, prev, v1, v2, true);
        const double label =
            labels_ != nullptr ? (*labels_)[static_cast<size_t>(v1)]
                                           [static_cast<size_t>(v2)]
                               : 0.0;
        const double value = BlendPair(options_.alpha, s12, s21, label);
        ++stats_.formula_evaluations;
        max_delta = std::max(max_delta, std::fabs(value - prev.at(v1, v2)));
        next.set(v1, v2, value);
      }
    }
    std::swap(prev, next);
    if (controls != nullptr && controls->should_abort &&
        controls->should_abort(direction, n, prev, nullptr)) {
      if (controls->aborted != nullptr) *controls->aborted = true;
      break;
    }
    if (max_delta <= options_.epsilon) break;
  }
  // A kBoth run reports the larger of its two directions' counts, as
  // EmsStats does.
  stats_.iterations = std::max(stats_.iterations, n);
  return prev;
}

SimilarityMatrix ReferenceEms::Compute() {
  stats_ = EmsStats{};
  if (options_.direction != Direction::kBoth) {
    return RunDirection(options_.direction, options_.max_iterations, nullptr);
  }
  const SimilarityMatrix f =
      RunDirection(Direction::kForward, options_.max_iterations, nullptr);
  const SimilarityMatrix b =
      RunDirection(Direction::kBackward, options_.max_iterations, nullptr);
  SimilarityMatrix combined(g1_.NumNodes(), g2_.NumNodes(), 0.0);
  for (NodeId v1 = 0; v1 < static_cast<NodeId>(g1_.NumNodes()); ++v1) {
    for (NodeId v2 = 0; v2 < static_cast<NodeId>(g2_.NumNodes()); ++v2) {
      combined.set(v1, v2, (f.at(v1, v2) + b.at(v1, v2)) / 2.0);
    }
  }
  return combined;
}

SimilarityMatrix ReferenceEms::ComputePartial(Direction direction,
                                              int iterations) {
  stats_ = EmsStats{};
  return RunDirection(direction, iterations, nullptr);
}

SimilarityMatrix ReferenceEms::ComputeControlled(Direction direction,
                                                 const RunControls& controls) {
  stats_ = EmsStats{};
  return RunDirection(direction, options_.max_iterations, &controls);
}

}  // namespace testing
}  // namespace ems
