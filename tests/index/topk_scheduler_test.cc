// Top-k scheduler: the exactness contract (indexed ranking byte-
// identical to the brute-force scan for every k, alpha, and pool),
// stats accounting, tie order, and the brute-force fallbacks.
#include "index/topk_scheduler.h"

#include <cstring>

#include <gtest/gtest.h>

#include "exec/thread_pool.h"
#include "index/corpus_index.h"
#include "synth/dataset.h"

namespace ems {
namespace index {
namespace {

CorpusIndex BuildIndex(int members, int family_size, uint64_t seed) {
  SynthCorpusOptions opts;
  opts.num_members = members;
  opts.members_per_family = family_size;
  opts.min_activities = 6;
  opts.max_activities = 9;
  opts.num_traces = 25;
  opts.seed = seed;
  CorpusIndex index;
  for (CorpusMember& m : MakeCorpus(opts)) {
    EXPECT_TRUE(index.Add(m.name, std::move(m.log)).ok());
  }
  return index;
}

// Bitwise, not ==: the contract is byte-identical rankings.
void ExpectSameHits(const std::vector<TopKHit>& indexed,
                    const std::vector<TopKHit>& brute) {
  ASSERT_EQ(indexed.size(), brute.size());
  for (size_t i = 0; i < indexed.size(); ++i) {
    EXPECT_EQ(indexed[i].name, brute[i].name) << "rank " << i;
    EXPECT_EQ(indexed[i].member_index, brute[i].member_index) << "rank " << i;
    EXPECT_EQ(std::memcmp(&indexed[i].score, &brute[i].score, sizeof(double)),
              0)
        << "rank " << i;
    EXPECT_EQ(indexed[i].match.correspondences.size(),
              brute[i].match.correspondences.size())
        << "rank " << i;
  }
}

TEST(TopKSchedulerTest, IndexedMatchesBruteForceByteForByte) {
  exec::ThreadPool pool(4);
  for (uint64_t seed : {11u, 12u}) {
    CorpusIndex index = BuildIndex(12, 3, seed);
    for (double alpha : {0.3, 1.0}) {
      for (size_t k : {size_t{1}, size_t{4}, size_t{50}}) {
        for (exec::ThreadPool* p : {static_cast<exec::ThreadPool*>(nullptr),
                                    &pool}) {
          TopKOptions opts;
          opts.k = k;
          opts.match.label_measure = LabelMeasure::kQGramCosine;
          opts.match.ems.alpha = alpha;
          opts.pool = p;
          TopKOptions brute_opts = opts;
          brute_opts.force_brute_force = true;
          const PreparedLog& query = index.entry(1).prepared;
          TopKScheduler indexed(index, opts);
          TopKScheduler brute(index, brute_opts);
          Result<std::vector<TopKHit>> ih = indexed.Query(query);
          Result<std::vector<TopKHit>> bh = brute.Query(query);
          ASSERT_TRUE(ih.ok() && bh.ok());
          EXPECT_FALSE(indexed.stats().used_brute_force);
          EXPECT_TRUE(brute.stats().used_brute_force);
          ExpectSameHits(*ih, *bh);
          // k past the corpus size returns everything, ranked.
          if (k >= index.size()) {
            EXPECT_EQ(ih->size(), index.size());
          }
        }
      }
    }
  }
}

TEST(TopKSchedulerTest, StatsPartitionTheCandidates) {
  CorpusIndex index = BuildIndex(12, 4, 21);
  TopKOptions opts;
  opts.k = 3;
  opts.match.label_measure = LabelMeasure::kQGramCosine;
  opts.match.ems.alpha = 0.3;
  TopKScheduler scheduler(index, opts);
  ASSERT_TRUE(scheduler.Query(index.entry(0).prepared).ok());
  const TopKStats& s = scheduler.stats();
  EXPECT_EQ(s.candidates_retrieved, index.size());
  // Every candidate is disposed of exactly once: pruned at stage 0,
  // aborted mid-run, or run to a score.
  EXPECT_EQ(s.pruned_by_bound + s.aborted_runs + s.exact_runs, index.size());
  EXPECT_GE(s.exact_runs, opts.k);  // at least the top k ran fully
}

TEST(TopKSchedulerTest, KZeroAndEmptyIndexYieldNoHits) {
  CorpusIndex index = BuildIndex(4, 2, 31);
  TopKOptions opts;
  opts.k = 0;
  TopKScheduler scheduler(index, opts);
  Result<std::vector<TopKHit>> hits = scheduler.Query(index.entry(0).prepared);
  ASSERT_TRUE(hits.ok());
  EXPECT_TRUE(hits->empty());

  CorpusIndex empty;
  TopKOptions opts2;
  TopKScheduler s2(empty, opts2);
  Result<std::vector<TopKHit>> hits2 = s2.Query(index.entry(0).prepared);
  ASSERT_TRUE(hits2.ok());
  EXPECT_TRUE(hits2->empty());
}

// Index built at a different min_edge_frequency than the query options:
// the prebuilt graphs are not the graphs a brute match would build, so
// the scheduler must fall back to the brute scan transparently.
TEST(TopKSchedulerTest, OptionMismatchFallsBackToBruteForce) {
  CorpusIndex index = BuildIndex(4, 2, 41);
  TopKOptions opts;
  opts.k = 2;
  opts.match.min_edge_frequency = 0.25;
  TopKScheduler scheduler(index, opts);
  Result<std::vector<TopKHit>> hits = scheduler.Query(index.entry(0).prepared);
  ASSERT_TRUE(hits.ok());
  EXPECT_TRUE(scheduler.stats().used_brute_force);
  EXPECT_EQ(hits->size(), 2u);
}

// Duplicate members score identically; the ranking must keep their
// insertion order on both paths (the stable-sort tie contract).
TEST(TopKSchedulerTest, TiesKeepInsertionOrder) {
  SynthCorpusOptions copts;
  copts.num_members = 4;
  copts.members_per_family = 2;
  copts.min_activities = 6;
  copts.max_activities = 8;
  copts.num_traces = 20;
  copts.seed = 51;
  std::vector<CorpusMember> corpus = MakeCorpus(copts);
  CorpusIndex index;
  for (CorpusMember& m : corpus) {
    ASSERT_TRUE(index.Add(m.name, m.log).ok());
  }
  // The same log again under two names sorting after the originals.
  ASSERT_TRUE(index.Add("zz_twin_1", corpus[0].log).ok());
  ASSERT_TRUE(index.Add("zz_twin_2", corpus[0].log).ok());

  TopKOptions opts;
  opts.k = 6;
  opts.match.label_measure = LabelMeasure::kQGramCosine;
  opts.match.ems.alpha = 0.5;
  TopKOptions brute_opts = opts;
  brute_opts.force_brute_force = true;
  TopKScheduler indexed(index, opts);
  TopKScheduler brute(index, brute_opts);
  const PreparedLog query =
      PrepareLog(corpus[0].log, PrepareOptionsFor(opts.match));
  Result<std::vector<TopKHit>> ih = indexed.Query(query);
  Result<std::vector<TopKHit>> bh = brute.Query(query);
  ASSERT_TRUE(ih.ok() && bh.ok());
  ExpectSameHits(*ih, *bh);
  // The original and both twins share the top score; insertion order.
  ASSERT_GE(ih->size(), 3u);
  EXPECT_EQ((*ih)[0].name, corpus[0].name);
  EXPECT_EQ((*ih)[1].name, "zz_twin_1");
  EXPECT_EQ((*ih)[2].name, "zz_twin_2");
  EXPECT_EQ(std::memcmp(&(*ih)[0].score, &(*ih)[1].score, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&(*ih)[1].score, &(*ih)[2].score, sizeof(double)), 0);
}

}  // namespace
}  // namespace index
}  // namespace ems
