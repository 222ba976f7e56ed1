// Warm-start matching: seeded EMS runs must land on the same fixpoint as
// cold runs (byte-identical on acyclic instances under run_to_horizon,
// and on identical-state resumes in one iteration), and the pair
// pipeline warm-started from a seed must save iterations on cyclic
// instances while reporting the same correspondences.
#include "core/matcher.h"

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/ems_similarity.h"
#include "graph/streaming_graph.h"
#include "log/event_log.h"
#include "synth/dataset.h"

namespace ems {
namespace {

void ExpectMatricesBitIdentical(const SimilarityMatrix& got,
                                const SimilarityMatrix& want) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  for (size_t i = 0; i < got.data().size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(got.data()[i]),
              std::bit_cast<uint64_t>(want.data()[i]))
        << "cell " << i;
  }
}

EventLog AcyclicLog() {
  EventLog log;
  log.AddTrace({"a", "b", "c", "e"});
  log.AddTrace({"a", "c", "d", "e"});
  log.AddTrace({"a", "b", "d"});
  log.AddTrace({"b", "c", "e"});
  return log;
}

EventLog CyclicLog() {
  EventLog log;
  log.AddTrace({"a", "b", "c", "b", "c", "d"});
  log.AddTrace({"a", "c", "b", "c", "d"});
  log.AddTrace({"a", "b", "d"});
  return log;
}

TEST(WarmMatchTest, SeededRunToHorizonIsByteIdenticalToCold) {
  EventLog log1 = AcyclicLog();
  EventLog log2;
  log2.AddTrace({"a", "b", "d", "e"});
  log2.AddTrace({"a", "c", "e"});
  log2.AddTrace({"b", "d", "e"});
  DependencyGraph g1 = DependencyGraph::Build(log1);
  DependencyGraph g2 = DependencyGraph::Build(log2);

  EmsOptions cold_opts;
  cold_opts.run_to_horizon = true;
  EmsSimilarity cold(g1, g2, cold_opts);
  SimilarityMatrix cold_result = cold.Compute();
  SimilarityMatrix seed_fwd, seed_bwd;
  cold.TakeDirectionMatrices(&seed_fwd, &seed_bwd);
  ASSERT_EQ(seed_fwd.rows(), g1.NumNodes());
  ASSERT_EQ(seed_bwd.rows(), g1.NumNodes());

  // Perturb the seed: any starting matrix must land on the same bits
  // once every pair has been iterated through its horizon.
  SimilarityMatrix junk_fwd = seed_fwd;
  SimilarityMatrix junk_bwd = seed_bwd;
  for (NodeId v1 = 1; v1 < static_cast<NodeId>(g1.NumNodes()); ++v1) {
    for (NodeId v2 = 1; v2 < static_cast<NodeId>(g2.NumNodes()); ++v2) {
      junk_fwd.set(v1, v2, 0.123 + 0.5 * junk_fwd.at(v1, v2));
      junk_bwd.set(v1, v2, 0.987 - 0.5 * junk_bwd.at(v1, v2));
    }
  }
  EmsSeed seed;
  seed.forward = &junk_fwd;
  seed.backward = &junk_bwd;
  EmsOptions warm_opts = cold_opts;
  warm_opts.seed = &seed;
  EmsSimilarity warm(g1, g2, warm_opts);
  SimilarityMatrix warm_result = warm.Compute();
  ExpectMatricesBitIdentical(warm_result, cold_result);
}

TEST(WarmMatchTest, AllCleanHintsResumeInOneIteration) {
  EventLog log1 = CyclicLog();
  EventLog log2 = AcyclicLog();
  DependencyGraph g1 = DependencyGraph::Build(log1);
  DependencyGraph g2 = DependencyGraph::Build(log2);

  EmsOptions opts;
  EmsSimilarity cold(g1, g2, opts);
  SimilarityMatrix cold_result = cold.Compute();
  const int cold_iters = cold.stats().iterations;
  EXPECT_GT(cold_iters, 1);
  SimilarityMatrix seed_fwd, seed_bwd;
  cold.TakeDirectionMatrices(&seed_fwd, &seed_bwd);

  std::vector<uint8_t> clean_rows(g1.NumNodes(), 0);
  std::vector<uint8_t> clean_cols(g2.NumNodes(), 0);
  EmsSeed seed;
  seed.forward = &seed_fwd;
  seed.backward = &seed_bwd;
  seed.changed_rows = &clean_rows;
  seed.changed_cols = &clean_cols;
  EmsOptions warm_opts = opts;
  warm_opts.seed = &seed;
  EmsSimilarity warm(g1, g2, warm_opts);
  SimilarityMatrix warm_result = warm.Compute();
  EXPECT_EQ(warm.stats().iterations, 1);
  ExpectMatricesBitIdentical(warm_result, cold_result);
}

TEST(WarmMatchTest, SeedWithoutHintsConvergesToSameFixpointOnCycles) {
  EventLog log1 = CyclicLog();
  EventLog log2;
  log2.AddTrace({"a", "c", "b", "d", "b", "d"});
  log2.AddTrace({"a", "b", "c", "d"});
  DependencyGraph g1 = DependencyGraph::Build(log1);
  DependencyGraph g2 = DependencyGraph::Build(log2);

  EmsOptions opts;
  opts.epsilon = 1e-9;
  EmsSimilarity cold(g1, g2, opts);
  SimilarityMatrix cold_result = cold.Compute();
  const int cold_iters = cold.stats().iterations;
  SimilarityMatrix seed_fwd, seed_bwd;
  cold.TakeDirectionMatrices(&seed_fwd, &seed_bwd);

  // Re-running seeded with the fixpoint (null hints: everything marked
  // changed) must converge far faster and stay within epsilon.
  EmsSeed seed;
  seed.forward = &seed_fwd;
  seed.backward = &seed_bwd;
  EmsOptions warm_opts = opts;
  warm_opts.seed = &seed;
  EmsSimilarity warm(g1, g2, warm_opts);
  SimilarityMatrix warm_result = warm.Compute();
  EXPECT_LT(warm.stats().iterations, cold_iters);
  EXPECT_LE(warm_result.MaxAbsDifference(cold_result), opts.epsilon);
}

TEST(WarmMatchTest, PipelineColdThenAppendSavesIterations) {
  PairOptions pair_opts;
  pair_opts.num_activities = 14;
  pair_opts.num_traces = 80;
  pair_opts.seed = 11;
  LogPair pair = MakeLogPair(Testbed::kDsFB, pair_opts);
  EventLog log1 = pair.log1;
  EventLog log2 = pair.log2;

  MatchOptions options;
  options.ems.epsilon = 1e-7;
  StreamingDependencyGraph stream1(log1);
  DependencyGraph g2 = DependencyGraph::Build(log2);

  WarmSeed seed;
  WarmMatchStats cold_stats;
  PipelineInputs cold_inputs;
  cold_inputs.next_seed = &seed;
  cold_inputs.stats = &cold_stats;
  Result<MatchResult> cold =
      MatchGraphs(options, log1, log2, stream1.graph(), g2, cold_inputs);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_FALSE(cold_stats.warm);
  EXPECT_TRUE(seed.valid);
  EXPECT_EQ(seed.cold_iterations, cold_stats.iterations);

  // Append a few traces to log1 and warm re-match.
  AppendDelta delta = log1.AppendTraces(
      {{"act0", "act1", "act2"}, {"act1", "act3"}});
  stream1.ApplyAppend(delta.first_new_trace);

  WarmSeed next;
  WarmMatchStats warm_stats;
  PipelineInputs warm_inputs;
  warm_inputs.seed = &seed;
  warm_inputs.next_seed = &next;
  warm_inputs.stats = &warm_stats;
  Result<MatchResult> warm =
      MatchGraphs(options, log1, log2, stream1.graph(), g2, warm_inputs);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_TRUE(warm_stats.warm);
  EXPECT_LE(warm_stats.iterations, seed.cold_iterations);
  EXPECT_EQ(warm_stats.iterations_saved,
            seed.cold_iterations - warm_stats.iterations);
  // The baseline survives into the next generation.
  EXPECT_EQ(next.cold_iterations, seed.cold_iterations);

  // Exactness: the warm result equals a cold recompute on the appended
  // logs to within the stop threshold.
  WarmMatchStats ref_stats;
  PipelineInputs ref_inputs;
  ref_inputs.stats = &ref_stats;
  Result<MatchResult> ref =
      MatchGraphs(options, log1, log2, stream1.graph(), g2, ref_inputs);
  ASSERT_TRUE(ref.ok());
  EXPECT_LE(warm->similarity.MaxAbsDifference(ref->similarity),
            options.ems.epsilon);
  ASSERT_EQ(warm->correspondences.size(), ref->correspondences.size());
}

TEST(WarmMatchTest, AssumeUnchangedResumeIsByteIdentical) {
  EventLog log1 = CyclicLog();
  EventLog log2 = AcyclicLog();
  DependencyGraph g1 = DependencyGraph::Build(log1);
  DependencyGraph g2 = DependencyGraph::Build(log2);

  MatchOptions options;
  WarmSeed seed;
  PipelineInputs cold_inputs;
  cold_inputs.next_seed = &seed;
  Result<MatchResult> cold =
      MatchGraphs(options, log1, log2, g1, g2, cold_inputs);
  ASSERT_TRUE(cold.ok());

  WarmMatchStats stats;
  PipelineInputs resume;
  resume.seed = &seed;
  resume.assume_unchanged = true;
  resume.stats = &stats;
  Result<MatchResult> resumed =
      MatchGraphs(options, log1, log2, g1, g2, resume);
  ASSERT_TRUE(resumed.ok());
  EXPECT_EQ(stats.iterations, 1);
  ExpectMatricesBitIdentical(resumed->similarity, cold->similarity);
  ASSERT_EQ(resumed->correspondences.size(), cold->correspondences.size());
  for (size_t i = 0; i < cold->correspondences.size(); ++i) {
    EXPECT_EQ(resumed->correspondences[i].events1,
              cold->correspondences[i].events1);
    EXPECT_EQ(resumed->correspondences[i].events2,
              cold->correspondences[i].events2);
    EXPECT_EQ(std::bit_cast<uint64_t>(resumed->correspondences[i].similarity),
              std::bit_cast<uint64_t>(cold->correspondences[i].similarity));
  }
}

TEST(WarmMatchTest, RejectsCompositeAndEstimatedPipelines) {
  EventLog log1 = AcyclicLog();
  EventLog log2 = AcyclicLog();
  DependencyGraph g1 = DependencyGraph::Build(log1);
  DependencyGraph g2 = DependencyGraph::Build(log2);
  MatchOptions composites;
  composites.match_composites = true;
  EXPECT_TRUE(MatchGraphs(composites, log1, log2, g1, g2)
                  .status()
                  .IsInvalidArgument());
  // The estimated engine runs cold, as Matcher::Match runs it; a warm
  // chain (here: a next-seed slot) is rejected.
  MatchOptions estimated;
  estimated.engine = SimilarityEngine::kEstimated;
  WarmSeed next;
  PipelineInputs chain;
  chain.next_seed = &next;
  EXPECT_TRUE(MatchGraphs(estimated, log1, log2, g1, g2, chain)
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace ems
