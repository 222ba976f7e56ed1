#include "text/qgram.h"

#include <algorithm>
#include <cmath>

#include "util/status.h"

namespace ems {

QGramProfile::QGramProfile(std::string_view s, int q) : q_(q) {
  EMS_DCHECK(q >= 1);
  const size_t width = static_cast<size_t>(q);
  std::string padded;
  padded.reserve(s.size() + 2 * (width - 1));
  padded.append(width - 1, '#');
  padded.append(s);
  padded.append(width - 1, '$');
  std::vector<std::string_view> grams;
  if (padded.size() >= width) {
    grams.reserve(padded.size() - width + 1);
    for (size_t i = 0; i + width <= padded.size(); ++i) {
      grams.push_back(std::string_view(padded).substr(i, width));
    }
  }
  std::sort(grams.begin(), grams.end());
  double sq = 0.0;
  for (size_t i = 0; i < grams.size();) {
    size_t j = i + 1;
    while (j < grams.size() && grams[j] == grams[i]) ++j;
    const int count = static_cast<int>(j - i);
    counts_.emplace_back(std::string(grams[i]), count);
    sq += static_cast<double>(count) * static_cast<double>(count);
    i = j;
  }
  norm_ = std::sqrt(sq);
}

double QGramProfile::Cosine(const QGramProfile& other) const {
  EMS_DCHECK(q_ == other.q_);
  if (counts_.empty() && other.counts_.empty()) return 1.0;
  if (counts_.empty() || other.counts_.empty()) return 0.0;
  double dot = 0.0;
  auto a = counts_.begin();
  auto b = other.counts_.begin();
  while (a != counts_.end() && b != other.counts_.end()) {
    const int order = a->first.compare(b->first);
    if (order < 0) {
      ++a;
    } else if (order > 0) {
      ++b;
    } else {
      dot += static_cast<double>(a->second) * static_cast<double>(b->second);
      ++a;
      ++b;
    }
  }
  return dot / (norm_ * other.norm_);
}

double QGramCosine(std::string_view a, std::string_view b, int q) {
  return QGramProfile(a, q).Cosine(QGramProfile(b, q));
}

}  // namespace ems
