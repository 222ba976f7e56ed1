// Append-sequence fuzz for streaming ingestion: over random batch
// ladders sliced from a log's own continued play-out,
//   * the incrementally maintained dependency graph must re-encode to
//     the exact snapshot bytes of a from-scratch rebuild after every
//     append (any instance, cycles included);
//   * on acyclic instances run to the horizon floor, a warm-started
//     re-match must reproduce the cold recompute byte for byte —
//     similarity matrix and correspondences — at every generation and
//     thread count;
//   * an assume_unchanged resume from a snapshot round-tripped seed must
//     return the persisted per-direction fixpoints byte-identically in
//     one iteration.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/matcher.h"
#include "graph/dependency_graph.h"
#include "graph/streaming_graph.h"
#include "log/event_log.h"
#include "store/snapshot.h"
#include "synth/dataset.h"
#include "util/random.h"

namespace ems {
namespace {

struct StreamCase {
  uint64_t seed;
  int activities;
  int base_traces;
  int num_threads;
};

class StreamingProperty : public ::testing::TestWithParam<StreamCase> {};

std::vector<std::vector<std::string>> BatchNames(const EventLog& batch,
                                                 size_t first, size_t count) {
  std::vector<std::vector<std::string>> names;
  names.reserve(count);
  for (size_t t = first; t < first + count; ++t) {
    std::vector<std::string> trace;
    trace.reserve(batch.trace(t).size());
    for (EventId id : batch.trace(t)) trace.push_back(batch.EventName(id));
    names.push_back(std::move(trace));
  }
  return names;
}

bool BitIdentical(const SimilarityMatrix& a, const SimilarityMatrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  return a.data().empty() ||
         std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(double)) == 0;
}

// Slices a random ladder of batch sizes out of one continued play-out.
std::vector<std::vector<std::vector<std::string>>> RandomBatches(
    const PairOptions& popts, uint64_t fuzz_seed, int appends) {
  Rng rng(fuzz_seed);
  std::vector<size_t> sizes;
  size_t total = 0;
  for (int i = 0; i < appends; ++i) {
    sizes.push_back(static_cast<size_t>(rng.UniformInt(1, 7)));
    total += sizes.back();
  }
  std::vector<EventLog> extension =
      MakeAppendBatches(popts, static_cast<int>(total), 1);
  std::vector<std::vector<std::vector<std::string>>> batches;
  size_t next = 0;
  for (size_t size : sizes) {
    batches.push_back(BatchNames(extension[0], next, size));
    next += size;
  }
  return batches;
}

TEST_P(StreamingProperty, IncrementalGraphMatchesRebuild) {
  const StreamCase& p = GetParam();
  PairOptions popts;
  popts.num_activities = p.activities;
  popts.num_traces = p.base_traces;
  popts.seed = p.seed;
  LogPair pair = MakeLogPair(Testbed::kDsFB, popts);

  EventLog log = pair.log1;
  StreamingDependencyGraph stream(log);
  for (const auto& batch : RandomBatches(popts, p.seed * 31 + 7, 6)) {
    const AppendDelta delta = log.AppendTraces(batch);
    const StreamingGraphStats stats = stream.ApplyAppend(delta.first_new_trace);
    EXPECT_EQ(stats.appended_traces, batch.size());
    DependencyGraph rebuilt = DependencyGraph::Build(log);
    ASSERT_EQ(store::EncodeDependencyGraph(stream.graph()),
              store::EncodeDependencyGraph(rebuilt))
        << "maintained graph diverged from rebuild at " << log.NumTraces()
        << " traces";
  }
}

TEST_P(StreamingProperty, AcyclicWarmChainIsByteIdenticalToCold) {
  const StreamCase& p = GetParam();
  PairOptions popts;
  popts.num_activities = p.activities;
  popts.num_traces = p.base_traces;
  popts.seed = p.seed;
  // SEQ/XOR-only trees yield acyclic direct-follows graphs: every pair
  // has a finite horizon, and running to the horizon floor makes the
  // fixpoint seed-independent (Proposition 2) — so warm must equal cold
  // exactly, not just within epsilon.
  popts.tree.weight_loop = 0.0;
  popts.tree.weight_and = 0.0;
  LogPair pair = MakeLogPair(Testbed::kDsFB, popts);

  MatchOptions mopts;
  mopts.ems.run_to_horizon = true;
  mopts.ems.num_threads = p.num_threads;

  EventLog log = pair.log1;
  StreamingDependencyGraph stream(log);
  DependencyGraph graph2 = DependencyGraph::Build(pair.log2);

  WarmSeed seed;
  PipelineInputs chain;
  chain.seed = &seed;
  chain.next_seed = &seed;
  Result<MatchResult> first =
      MatchGraphs(mopts, log, pair.log2, stream.graph(), graph2, chain);
  ASSERT_TRUE(first.ok()) << first.status().ToString();

  for (const auto& batch : RandomBatches(popts, p.seed * 131 + 3, 4)) {
    const AppendDelta delta = log.AppendTraces(batch);
    (void)stream.ApplyAppend(delta.first_new_trace);

    Result<MatchResult> warm =
        MatchGraphs(mopts, log, pair.log2, stream.graph(), graph2, chain);
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();

    DependencyGraph rebuilt = DependencyGraph::Build(log);
    Result<MatchResult> cold =
        MatchGraphs(mopts, log, pair.log2, rebuilt, graph2);
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();

    ASSERT_TRUE(BitIdentical(warm->similarity, cold->similarity))
        << "warm similarity diverged from cold at " << log.NumTraces()
        << " traces";
    ASSERT_EQ(warm->correspondences.size(), cold->correspondences.size());
    for (size_t i = 0; i < warm->correspondences.size(); ++i) {
      EXPECT_EQ(warm->correspondences[i].events1,
                cold->correspondences[i].events1);
      EXPECT_EQ(warm->correspondences[i].events2,
                cold->correspondences[i].events2);
      EXPECT_EQ(std::memcmp(&warm->correspondences[i].similarity,
                            &cold->correspondences[i].similarity,
                            sizeof(double)),
                0);
    }
  }

  // Restart resume: snapshot round-trip, then an assume_unchanged
  // re-match must hand the persisted fixpoints back in one iteration.
  // The horizon floor is a convergence aid for real re-matches and is
  // never set on the serve resume path, so it is off here too.
  Result<WarmSeed> decoded =
      store::DecodeWarmSeed(store::EncodeWarmSeed(seed));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  MatchOptions resume_opts = mopts;
  resume_opts.ems.run_to_horizon = false;
  WarmSeed next;
  WarmMatchStats resume_stats;
  PipelineInputs resume;
  resume.seed = &*decoded;
  resume.assume_unchanged = true;
  resume.next_seed = &next;
  resume.stats = &resume_stats;
  Result<MatchResult> resumed = MatchGraphs(
      resume_opts, log, pair.log2, stream.graph(), graph2, resume);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resume_stats.iterations, 1);
  EXPECT_TRUE(resume_stats.warm);
  EXPECT_TRUE(BitIdentical(next.forward, seed.forward));
  EXPECT_TRUE(BitIdentical(next.backward, seed.backward));
}

INSTANTIATE_TEST_SUITE_P(
    Fuzz, StreamingProperty,
    ::testing::Values(StreamCase{201, 8, 30, 1},
                      StreamCase{202, 12, 50, 1},
                      StreamCase{203, 15, 40, 4},
                      StreamCase{204, 20, 60, 4},
                      StreamCase{205, 10, 25, 1},
                      StreamCase{206, 18, 45, 4}),
    [](const ::testing::TestParamInfo<StreamCase>& info) {
      return "seed" + std::to_string(info.param.seed) + "_n" +
             std::to_string(info.param.activities) + "_t" +
             std::to_string(info.param.num_threads);
    });

}  // namespace
}  // namespace ems
