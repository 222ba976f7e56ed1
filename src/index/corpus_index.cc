#include "index/corpus_index.h"

#include <algorithm>
#include <unordered_set>

#include "obs/context.h"
#include "util/string_util.h"

namespace ems {
namespace index {

namespace {

int MaxRealDistance(const DependencyGraph& g, const std::vector<int>& l) {
  int max_l = 0;
  for (NodeId v = 0; v < static_cast<NodeId>(g.NumNodes()); ++v) {
    if (g.IsArtificial(v)) continue;
    max_l = std::max(max_l, l[static_cast<size_t>(v)]);
  }
  return max_l;
}

}  // namespace

Status CorpusIndex::Add(const std::string& name, EventLog log,
                        const std::string& source_path, uint64_t content_hash,
                        const std::string& format) {
  DependencyGraphOptions graph_opts;
  graph_opts.min_edge_frequency = options_.min_edge_frequency;
  DependencyGraph graph = DependencyGraph::Build(log, graph_opts);
  return AddPrebuilt(name, std::move(log), std::move(graph), source_path,
                     content_hash, format);
}

Status CorpusIndex::AddPrebuilt(const std::string& name, EventLog log,
                                DependencyGraph graph,
                                const std::string& source_path,
                                uint64_t content_hash,
                                const std::string& format) {
  if (name.empty()) {
    return Status::InvalidArgument("corpus entry name must not be empty");
  }
  if (FindIndex(name) >= 0) {
    return Status::InvalidArgument("corpus entry '" + name +
                                   "' already exists");
  }
  CorpusEntry entry;
  entry.name = name;
  entry.source_path = source_path;
  entry.content_hash = content_hash;
  entry.format = format;
  PreparedLog& prepared = entry.prepared;
  prepared.log = std::move(log);
  prepared.graph = std::move(graph);
  const DependencyGraph& g = prepared.graph;
  if (g.has_artificial() && g.NumNodes() > 0) {
    // Warm both lazy caches now: queries read them from many threads.
    entry.max_longest_from =
        MaxRealDistance(g, g.LongestDistancesFromArtificial());
    entry.max_longest_to = MaxRealDistance(g, g.LongestDistancesToArtificial());
  }
  prepared.labels = LabelProfiles(g, options_.qgram_q);
  entries_.push_back(std::move(entry));
  IndexLabels(static_cast<uint32_t>(entries_.size() - 1));
  ObsIncrement(options_.obs, "index.entries_added");
  return Status::OK();
}

Status CorpusIndex::Remove(const std::string& name) {
  const int i = FindIndex(name);
  if (i < 0) return Status::NotFound("no corpus entry named '" + name + "'");
  entries_.erase(entries_.begin() + i);
  RebuildPostings();
  return Status::OK();
}

int CorpusIndex::FindIndex(const std::string& name) const {
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

void CorpusIndex::IndexLabels(uint32_t entry_index) {
  CorpusEntry& entry = entries_[entry_index];
  const LabelProfiles& labels = entry.prepared.labels;
  // One slot per distinct (lower-cased) part per entry: duplicate labels
  // would only re-derive the same cosine.
  std::unordered_set<std::string> seen;
  for (size_t v = 0; v < labels.size(); ++v) {
    for (size_t k = 0; k < labels.parts(v).size(); ++k) {
      if (!seen.insert(ToLower(labels.parts(v)[k])).second) continue;
      const QGramProfile& profile = labels.qgrams(v)[k];
      if (profile.counts().empty()) {
        entry.has_empty_label_part = true;
        continue;
      }
      const uint32_t slot = static_cast<uint32_t>(slots_.size());
      slots_.push_back(Slot{entry_index, profile.norm()});
      for (const auto& [gram, count] : profile.counts()) {
        postings_[gram].emplace_back(slot, count);
      }
    }
  }
}

void CorpusIndex::RebuildPostings() {
  slots_.clear();
  postings_.clear();
  for (size_t i = 0; i < entries_.size(); ++i) {
    entries_[i].has_empty_label_part = false;
    IndexLabels(static_cast<uint32_t>(i));
  }
}

std::vector<double> CorpusIndex::MaxLabelCosines(
    const LabelProfiles& query) const {
  EMS_DCHECK(query.qgram_q() == options_.qgram_q);
  std::vector<double> max_cos(entries_.size(), 0.0);
  if (entries_.empty()) return max_cos;

  bool query_has_empty_part = false;
  std::unordered_set<std::string> seen;
  std::vector<double> dot(slots_.size(), 0.0);
  std::vector<uint32_t> touched;
  for (size_t v = 0; v < query.size(); ++v) {
    for (size_t k = 0; k < query.parts(v).size(); ++k) {
      if (!seen.insert(ToLower(query.parts(v)[k])).second) continue;
      const QGramProfile& profile = query.qgrams(v)[k];
      if (profile.counts().empty()) {
        query_has_empty_part = true;
        continue;
      }
      touched.clear();
      for (const auto& [gram, count] : profile.counts()) {
        auto it = postings_.find(gram);
        if (it == postings_.end()) continue;
        for (const auto& [slot, posted_count] : it->second) {
          if (dot[slot] == 0.0) touched.push_back(slot);
          dot[slot] += static_cast<double>(count) *
                       static_cast<double>(posted_count);
        }
      }
      const double qnorm = profile.norm();
      for (uint32_t slot : touched) {
        const double cos = dot[slot] / (qnorm * slots_[slot].norm);
        double& best = max_cos[slots_[slot].entry];
        if (cos > best) best = cos;
        dot[slot] = 0.0;
      }
    }
  }
  if (query_has_empty_part) {
    for (size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].has_empty_label_part) max_cos[i] = 1.0;
    }
  }
  for (double& v : max_cos) v = std::min(v, 1.0);
  return max_cos;
}

}  // namespace index
}  // namespace ems
