// Pluggable label (typographic) similarity S^L used as the (1 - alpha)
// component of the EMS similarity (Definition 2). The library ships the
// paper's choice (q-gram cosine), Levenshtein, a constant-zero measure for
// the opaque-name scenario of Figure 3, and token-set overlap for
// multi-word activity names.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "graph/dependency_graph.h"
#include "text/qgram.h"

namespace ems {

namespace exec {
class ThreadPool;
}  // namespace exec

/// \brief Interface of a label similarity measure over event names.
///
/// Implementations return values in [0, 1]; 1 means identical labels.
class LabelSimilarity {
 public:
  virtual ~LabelSimilarity() = default;

  /// Similarity of two event labels, in [0, 1].
  virtual double Similarity(std::string_view a, std::string_view b) const = 0;

  /// Name of the measure, for reports.
  virtual std::string Name() const = 0;
};

/// Constant 0: structural-only matching (the opaque-name scenario of the
/// paper's Figure 3; combined with alpha = 1 it disables S^L entirely).
class NoLabelSimilarity final : public LabelSimilarity {
 public:
  double Similarity(std::string_view, std::string_view) const override {
    return 0.0;
  }
  std::string Name() const override { return "none"; }
};

/// Cosine similarity over character q-grams (the paper's measure [9]).
class QGramCosineSimilarity final : public LabelSimilarity {
 public:
  explicit QGramCosineSimilarity(int q = 3) : q_(q) {}
  double Similarity(std::string_view a, std::string_view b) const override;
  std::string Name() const override;

  int q() const { return q_; }

 private:
  int q_;
};

/// Normalized Levenshtein similarity [13].
class LevenshteinLabelSimilarity final : public LabelSimilarity {
 public:
  double Similarity(std::string_view a, std::string_view b) const override;
  std::string Name() const override { return "levenshtein"; }
};

/// Jaro-Winkler similarity, prefix-boosted (good for identifier labels).
class JaroWinklerLabelSimilarity final : public LabelSimilarity {
 public:
  double Similarity(std::string_view a, std::string_view b) const override;
  std::string Name() const override { return "jaro-winkler"; }
};

/// Jaccard overlap of lower-cased whitespace/underscore-separated tokens;
/// robust for "Check Inventory" vs "inventory_check" style labels.
class TokenJaccardSimilarity final : public LabelSimilarity {
 public:
  double Similarity(std::string_view a, std::string_view b) const override;
  std::string Name() const override { return "token-jaccard"; }
};

/// The q of the q-gram profiles `measure` compares: QGramCosineSimilarity's
/// q, 0 for every measure that compares raw label parts.
int ProfileQ(const LabelSimilarity& measure);

/// \brief One vocabulary's labels (a log's events or a graph's nodes),
/// prepared once for S^L.
///
/// The label rule: a label splits on '+' into parts (a composite's
/// display name joins its members' names, and Split keeps empty parts),
/// and two labels score the max of the measure over their part pairs.
/// With `qgram_q` >= 1 each part is also lower-cased and q-gram profiled
/// here, exactly as QGramCosineSimilarity does per call, so a q-gram
/// matrix builds n1 + n2 profile sets instead of two per cell.
class LabelProfiles {
 public:
  LabelProfiles() = default;

  /// Prepares `labels` in order; `qgram_q` 0 keeps the raw parts only.
  LabelProfiles(const std::vector<std::string>& labels, int qgram_q);

  /// The nodes of `g`, indexed by NodeId. The artificial node gets no
  /// parts, so its row or column of a matrix stays 0.
  LabelProfiles(const DependencyGraph& g, int qgram_q);

  size_t size() const { return parts_.size(); }
  int qgram_q() const { return qgram_q_; }

  /// Label `i`'s '+'-parts, as spelled.
  const std::vector<std::string>& parts(size_t i) const { return parts_[i]; }

  /// Label `i`'s part profiles in part order; empty when qgram_q is 0.
  const std::vector<QGramProfile>& qgrams(size_t i) const {
    return qgrams_[i];
  }

 private:
  void Add(std::string_view label);

  int qgram_q_ = 0;
  std::vector<std::vector<std::string>> parts_;
  std::vector<std::vector<QGramProfile>> qgrams_;
};

/// S^L between every label of `a` (rows) and every label of `b`
/// (columns): the max of `measure` over part pairs, 0 when either label
/// has no parts. The q-gram measure reads the prepared profiles when
/// both sides were prepared at its q; otherwise it is called on the raw
/// parts. Either way each cell is bit-identical to the per-call measure.
///
/// `pool` (optional, borrowed) partitions the rows across workers; every
/// cell is a pure function of two prepared labels, so the result is
/// identical for any pool. Measures must be stateless/thread-safe (all
/// the measures in this header are).
std::vector<std::vector<double>> LabelSimilarityMatrix(
    const LabelProfiles& a, const LabelProfiles& b,
    const LabelSimilarity& measure, exec::ThreadPool* pool = nullptr);

/// S^L between the nodes of two dependency graphs: each graph prepared
/// once at ProfileQ(measure), then the matrix above. Composite nodes take
/// the maximum member-label similarity; pairs involving the artificial
/// node get 0 (its similarity is pinned by the iteration, never read
/// through S^L).
std::vector<std::vector<double>> LabelSimilarityMatrix(
    const DependencyGraph& g1, const DependencyGraph& g2,
    const LabelSimilarity& measure, exec::ThreadPool* pool = nullptr);

/// S^L between the nodes of two graphs built from two logs, read off
/// `events`, the matrix of the logs' event vocabularies (rows and columns
/// by EventId): a node pair's cell is the max over its members' cells, 0
/// for the artificial node. Equals the graph-level LabelSimilarityMatrix
/// bit for bit, because a composite's '+'-parts are exactly its members'
/// parts; the composite search reads every candidate's matrix this way.
std::vector<std::vector<double>> MemberLabelMatrix(
    const DependencyGraph& g1, const DependencyGraph& g2,
    const std::vector<std::vector<double>>& events);

}  // namespace ems
