#include "text/label_similarity.h"

#include <algorithm>
#include <set>
#include <utility>

#include "exec/parallel.h"
#include "text/jaro_winkler.h"
#include "text/levenshtein.h"
#include "text/qgram.h"
#include "util/string_util.h"

namespace ems {

double QGramCosineSimilarity::Similarity(std::string_view a,
                                         std::string_view b) const {
  // Case-folded, as is standard for typographic matching: "Check Stock"
  // and "CHECK_STOCK" are the same activity spelled differently.
  return QGramCosine(ToLower(a), ToLower(b), q_);
}

std::string QGramCosineSimilarity::Name() const {
  return "qgram-cosine(q=" + std::to_string(q_) + ")";
}

double LevenshteinLabelSimilarity::Similarity(std::string_view a,
                                              std::string_view b) const {
  return LevenshteinSimilarity(a, b);
}

double JaroWinklerLabelSimilarity::Similarity(std::string_view a,
                                              std::string_view b) const {
  return JaroWinklerSimilarity(ToLower(a), ToLower(b));
}

namespace {

std::set<std::string> Tokenize(std::string_view s) {
  std::set<std::string> tokens;
  std::string cur;
  for (char c : s) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      cur.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    } else if (!cur.empty()) {
      tokens.insert(cur);
      cur.clear();
    }
  }
  if (!cur.empty()) tokens.insert(cur);
  return tokens;
}

}  // namespace

double TokenJaccardSimilarity::Similarity(std::string_view a,
                                          std::string_view b) const {
  std::set<std::string> ta = Tokenize(a);
  std::set<std::string> tb = Tokenize(b);
  if (ta.empty() && tb.empty()) return 1.0;
  if (ta.empty() || tb.empty()) return 0.0;
  size_t inter = 0;
  for (const auto& t : ta) inter += tb.count(t);
  size_t uni = ta.size() + tb.size() - inter;
  return static_cast<double>(inter) / static_cast<double>(uni);
}

int ProfileQ(const LabelSimilarity& measure) {
  const auto* qgram = dynamic_cast<const QGramCosineSimilarity*>(&measure);
  return qgram != nullptr ? qgram->q() : 0;
}

LabelProfiles::LabelProfiles(const std::vector<std::string>& labels,
                             int qgram_q)
    : qgram_q_(qgram_q) {
  for (const std::string& label : labels) Add(label);
}

LabelProfiles::LabelProfiles(const DependencyGraph& g, int qgram_q)
    : qgram_q_(qgram_q) {
  for (NodeId v = 0; v < static_cast<NodeId>(g.NumNodes()); ++v) {
    if (g.IsArtificial(v)) {
      parts_.emplace_back();
      qgrams_.emplace_back();
    } else {
      Add(g.NodeName(v));
    }
  }
}

void LabelProfiles::Add(std::string_view label) {
  std::vector<std::string> parts = Split(label, '+');
  std::vector<QGramProfile> qgrams;
  if (qgram_q_ >= 1) {
    qgrams.reserve(parts.size());
    // The construction QGramCosineSimilarity::Similarity runs per call.
    for (const std::string& part : parts) {
      qgrams.emplace_back(ToLower(part), qgram_q_);
    }
  }
  parts_.push_back(std::move(parts));
  qgrams_.push_back(std::move(qgrams));
}

std::vector<std::vector<double>> LabelSimilarityMatrix(
    const LabelProfiles& a, const LabelProfiles& b,
    const LabelSimilarity& measure, exec::ThreadPool* pool) {
  const int q = ProfileQ(measure);
  const bool use_qgrams = q >= 1 && a.qgram_q() == q && b.qgram_q() == q;
  std::vector<std::vector<double>> m(a.size(),
                                     std::vector<double>(b.size(), 0.0));
  // Each row is written by exactly one worker; cells are pure functions
  // of the two prepared labels, so pool size cannot change the result.
  exec::ParallelFor(pool, 0, a.size(), [&](size_t i) {
    for (size_t j = 0; j < b.size(); ++j) {
      double best = 0.0;
      if (use_qgrams) {
        // Gram counts are integers, so the dot product is exact in any
        // order: the same bits as a freshly profiled Similarity call.
        for (const QGramProfile& pa : a.qgrams(i)) {
          for (const QGramProfile& pb : b.qgrams(j)) {
            best = std::max(best, pa.Cosine(pb));
          }
        }
      } else {
        for (const std::string& pa : a.parts(i)) {
          for (const std::string& pb : b.parts(j)) {
            best = std::max(best, measure.Similarity(pa, pb));
          }
        }
      }
      m[i][j] = best;
    }
  });
  return m;
}

std::vector<std::vector<double>> LabelSimilarityMatrix(
    const DependencyGraph& g1, const DependencyGraph& g2,
    const LabelSimilarity& measure, exec::ThreadPool* pool) {
  const int q = ProfileQ(measure);
  return LabelSimilarityMatrix(LabelProfiles(g1, q), LabelProfiles(g2, q),
                               measure, pool);
}

std::vector<std::vector<double>> MemberLabelMatrix(
    const DependencyGraph& g1, const DependencyGraph& g2,
    const std::vector<std::vector<double>>& events) {
  std::vector<std::vector<double>> m(g1.NumNodes(),
                                     std::vector<double>(g2.NumNodes(), 0.0));
  // The artificial node has no members, so its row and column stay 0.
  for (NodeId v1 = 0; v1 < static_cast<NodeId>(g1.NumNodes()); ++v1) {
    for (NodeId v2 = 0; v2 < static_cast<NodeId>(g2.NumNodes()); ++v2) {
      double best = 0.0;
      for (EventId e1 : g1.Members(v1)) {
        for (EventId e2 : g2.Members(v2)) {
          best = std::max(best, events[static_cast<size_t>(e1)]
                                      [static_cast<size_t>(e2)]);
        }
      }
      m[static_cast<size_t>(v1)][static_cast<size_t>(v2)] = best;
    }
  }
  return m;
}

}  // namespace ems
