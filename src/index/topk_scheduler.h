// Bound-ranked best-first top-k scheduler — the query half of corpus-
// scale matching (docs/CORPUS.md). Candidates come out of a CorpusIndex
// with an admissible stage-0 score upper bound (LabeledHorizonUpperBound
// over the per-direction horizon caps and the retrieval label-cosine
// bound); a max-heap pops them bound-first, exact EMS runs in parallel
// batches, and the k-th best exact score so far (the incumbent) both
// terminates the scan — once it is strictly above every remaining bound
// nothing left can enter the top k — and aborts in-flight runs whose
// per-pair bounds all drop strictly below it mid-iteration.
//
// Exactness: pruning and aborting are strict (<), the incumbent is
// monotone non-decreasing, and batches freeze one incumbent snapshot, so
// any candidate whose exact score ties or beats the final k-th score is
// always run to completion — the returned ranking is byte-identical to
// the brute-force all-pairs scan, including boundary ties, for every
// thread count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/matcher.h"
#include "index/corpus_index.h"
#include "util/status.h"

namespace ems {

namespace exec {
class ThreadPool;
}  // namespace exec

namespace index {

/// Scheduler configuration.
struct TopKOptions {
  /// Hits to return (the k of top-k).
  size_t k = 5;

  /// Full matching configuration — must agree with the index on
  /// min_edge_frequency (otherwise, and for the estimated engine or
  /// composite matching, the scheduler transparently falls back to the
  /// brute-force scan: those paths have no admissible cheap bound).
  MatchOptions match;

  /// Fans candidate evaluations out across workers (borrowed, may be
  /// null = serial). Scores and ranking are identical for any pool.
  exec::ThreadPool* pool = nullptr;

  /// index.* metrics sink; falls back to match.obs.context when null.
  ObsContext* obs = nullptr;

  /// Candidates evaluated per batch between incumbent refreshes; 0
  /// derives max(4, pool workers). Larger batches parallelize better,
  /// smaller ones tighten the incumbent sooner.
  size_t batch_size = 0;

  /// Forces the brute-force scan (bench/test baseline).
  bool force_brute_force = false;
};

/// One ranked answer.
struct TopKHit {
  std::string name;
  size_t member_index = 0;  // position in the index at query time
  double score = 0.0;       // mean selected-correspondence similarity
  double bound = 1.0;       // stage-0 bound it was admitted with
  MatchResult match;
};

/// Counters of one Query call.
struct TopKStats {
  uint64_t candidates_retrieved = 0;
  uint64_t pruned_by_bound = 0;  // never started EMS
  uint64_t exact_runs = 0;       // EMS runs completed (scored)
  uint64_t aborted_runs = 0;     // started, then killed by the in-run bound
  bool used_brute_force = false;
};

/// \brief Runs top-k queries against a CorpusIndex.
class TopKScheduler {
 public:
  TopKScheduler(const CorpusIndex& index, const TopKOptions& options);

  /// The top-k entries for `query`, best score first (ties keep index
  /// order). Returns min(k, corpus size) hits. `query` must be prepared
  /// under PrepareOptionsFor(options.match): its graph is the one a
  /// brute-force Match would build. The scheduler only reads it, and
  /// PrepareLog fills its distance caches, so concurrent queries may
  /// share one.
  Result<std::vector<TopKHit>> Query(const PreparedLog& query);

  /// Counters of the last Query call.
  const TopKStats& stats() const { return stats_; }

 private:
  Result<std::vector<TopKHit>> BruteForce(const EventLog& query);
  bool CanUseIndex() const;

  const CorpusIndex& index_;
  TopKOptions options_;
  TopKStats stats_;
};

}  // namespace index
}  // namespace ems
