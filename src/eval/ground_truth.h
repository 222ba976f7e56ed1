// Ground-truth correspondences between two event logs and the matching
// quality metrics of Section 5.1. Correspondences are m:n sets of event
// names; precision/recall/F-measure are computed at the level of
// singleton links (every (e1, e2) with e1 in the left set and e2 in the
// right set), the standard flattening for complex matches [23].
#pragma once

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/matcher.h"

namespace ems {

/// One true (or found) m:n correspondence between name sets.
struct TruthEntry {
  std::vector<std::string> left;
  std::vector<std::string> right;
};

/// \brief The reference mapping between two logs.
class GroundTruth {
 public:
  GroundTruth() = default;

  /// Adds a 1:1 correspondence.
  void Add(const std::string& left, const std::string& right);

  /// Adds an m:n correspondence.
  void AddComplex(std::vector<std::string> left,
                  std::vector<std::string> right);

  /// Renames left-side events (e.g. after perturbations); names absent
  /// from the map are kept.
  void RenameLeft(const std::map<std::string, std::string>& renames);

  /// Renames right-side events.
  void RenameRight(const std::map<std::string, std::string>& renames);

  /// Drops correspondences whose left/right events are no longer in the
  /// respective vocabularies (after dislocation removed them). Partial
  /// overlaps shrink to the surviving members; empty sides drop the entry.
  void RestrictToVocabularies(const std::set<std::string>& left_vocab,
                              const std::set<std::string>& right_vocab);

  const std::vector<TruthEntry>& entries() const { return entries_; }
  size_t size() const { return entries_.size(); }

  /// All singleton links (e1, e2) implied by the correspondences.
  std::set<std::pair<std::string, std::string>> Links() const;

 private:
  std::vector<TruthEntry> entries_;
};

/// Flattens matcher output into singleton links.
std::set<std::pair<std::string, std::string>> CorrespondenceLinks(
    const std::vector<Correspondence>& found);

}  // namespace ems
