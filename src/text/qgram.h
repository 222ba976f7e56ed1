// q-gram cosine similarity — the paper's choice of label similarity
// ("A state-of-the-art string similarity measure, cosine similarity with
// q-grams [9], is employed to compute the label similarity", Section 5.1).
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ems {

/// \brief Bag of character q-grams of a string.
///
/// The string is padded with q-1 leading and trailing sentinel characters
/// ('#' / '$'), the standard construction that lets prefixes/suffixes
/// contribute distinguishing grams.
class QGramProfile {
 public:
  /// Builds the q-gram profile of `s`. Requires q >= 1.
  QGramProfile(std::string_view s, int q = 3);

  /// Cosine similarity between two profiles, in [0, 1]. Two empty strings
  /// have similarity 1; an empty vs non-empty string has similarity 0.
  /// The dot product and both norms are sums of integer products, exact
  /// in any order, so the result does not depend on how grams are stored.
  double Cosine(const QGramProfile& other) const;

  /// Number of distinct q-grams.
  size_t DistinctGrams() const { return counts_.size(); }

  int q() const { return q_; }

  /// Euclidean norm of the count vector (0 for the empty string).
  double norm() const { return norm_; }

  /// The distinct grams with their counts, sorted by gram (the corpus
  /// index posts these grams; Cosine merges two of these lists).
  const std::vector<std::pair<std::string, int>>& counts() const {
    return counts_;
  }

 private:
  int q_;
  double norm_ = 0.0;  // Euclidean norm of the count vector
  std::vector<std::pair<std::string, int>> counts_;
};

/// One-shot q-gram cosine similarity of two strings.
double QGramCosine(std::string_view a, std::string_view b, int q = 3);

}  // namespace ems
