// Corpus matching index: the candidate-retrieval half of corpus-scale
// top-k matching (docs/CORPUS.md). Holds every corpus log together with
// its prebuilt dependency graph (artificial event, warmed longest-
// distance caches) and a q-gram inverted index over the graphs' node
// labels, so a query can cheaply obtain, per candidate,
//
//   * the per-direction convergence-horizon cap (max over real nodes of
//     l(v), combined with the query's own cap), and
//   * the maximum label cosine any (query label, candidate label) pair
//     can reach — an upper bound on every entry of the S^L matrix a
//     real match would compute,
//
// which together feed the admissible stage-0 score bound
// (LabeledHorizonUpperBound) the top-k scheduler ranks candidates by —
// all without running a single EMS iteration.
//
// The postings and the scheduler's label matrices both read each entry's
// LabelProfiles, the one preparation of the label rule: a bound built
// from any other preparation could under-estimate the label matrix and
// break the scheduler's exactness guarantee.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/matcher.h"
#include "graph/dependency_graph.h"
#include "log/event_log.h"
#include "text/label_similarity.h"
#include "util/status.h"

namespace ems {

struct ObsContext;

namespace index {

/// Options fixed at index-build time. `min_edge_frequency` must equal
/// the MatchOptions value used at query time for the prebuilt graphs to
/// be the graphs a brute-force Match would build — the scheduler checks
/// and falls back to a brute scan on mismatch.
struct CorpusIndexOptions {
  /// q of the q-gram profiles; must match QGramCosineSimilarity's q for
  /// the label bound to be usable (the scheduler checks).
  int qgram_q = 3;

  /// DependencyGraphOptions::min_edge_frequency of the prebuilt graphs.
  double min_edge_frequency = 0.0;

  /// Metrics sink for index.* counters (borrowed, may be null).
  ObsContext* obs = nullptr;
};

/// One indexed corpus member.
struct CorpusEntry {
  std::string name;         // unique key (Add) — the member path for
                            // directory-loaded corpora
  std::string source_path;  // origin file; empty for in-memory adds
  uint64_t content_hash = 0;  // XXH64 of the source bytes; 0 in-memory
  std::string format;         // resolved parse format; "" in-memory

  /// The log, its graph (artificial event, warmed distance caches) and
  /// the graph's node labels prepared at the index's q: the postings and
  /// every label matrix the scheduler assembles against this entry read
  /// the labels.
  PreparedLog prepared;

  /// max over real nodes of l(v) for each direction (kInfiniteDistance
  /// when any real node sits on/behind a cycle). The pairwise horizon
  /// cap against a query with caps (qf, qt) is min(qf, max_longest_from)
  /// resp. min(qt, max_longest_to).
  int max_longest_from = 0;
  int max_longest_to = 0;

  /// True when some node label splits into a part whose q-gram profile
  /// is empty (shorter than the padding floor): an empty query part then
  /// reaches cosine 1 against it.
  bool has_empty_label_part = false;
};

/// \brief The corpus index: entries + q-gram postings over their labels.
class CorpusIndex {
 public:
  explicit CorpusIndex(const CorpusIndexOptions& options = {})
      : options_(options) {}

  /// Adds a log under a unique name, building its graph (with the
  /// index's min_edge_frequency), warming both distance caches, and
  /// posting its label q-grams. InvalidArgument on duplicate or empty
  /// names. The optional source metadata keys the persistence layer
  /// (src/index/corpus_io.h).
  Status Add(const std::string& name, EventLog log,
             const std::string& source_path = "", uint64_t content_hash = 0,
             const std::string& format = "");

  /// Adds an entry whose graph was already built (snapshot warm path).
  /// The graph must be the one Add would have built from `log` under
  /// this index's options.
  Status AddPrebuilt(const std::string& name, EventLog log,
                     DependencyGraph graph, const std::string& source_path,
                     uint64_t content_hash, const std::string& format);

  /// Removes the named entry; NotFound if absent. Later entries shift
  /// down one index and the postings are rebuilt (O(corpus) — removal is
  /// an administrative operation, queries are the hot path).
  Status Remove(const std::string& name);

  size_t size() const { return entries_.size(); }
  const CorpusEntry& entry(size_t i) const { return entries_[i]; }

  /// Index of the named entry, or -1.
  int FindIndex(const std::string& name) const;

  const CorpusIndexOptions& options() const { return options_; }

  /// For each entry, an upper bound on max_{v1,v2} S^L(v1, v2) of the
  /// q-gram label matrix between the query labels (prepared at the
  /// index's q) and that entry: the maximum cosine between any
  /// lower-cased '+'-part of a query label and any posted part of the
  /// entry (1.0 when both sides contribute an empty-profile part). One
  /// sparse pass over the inverted index — no per-entry string
  /// comparisons.
  std::vector<double> MaxLabelCosines(const LabelProfiles& query) const;

 private:
  struct Slot {
    uint32_t entry;  // index into entries_
    double norm;     // Euclidean norm of the part's q-gram profile
  };

  void IndexLabels(uint32_t entry_index);
  void RebuildPostings();

  CorpusIndexOptions options_;
  std::vector<CorpusEntry> entries_;
  std::vector<Slot> slots_;
  // gram -> (slot, count) postings, slot-sorted by construction.
  std::unordered_map<std::string, std::vector<std::pair<uint32_t, int>>>
      postings_;
};

}  // namespace index
}  // namespace ems
