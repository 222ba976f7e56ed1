#include "core/composite_matcher.h"

#include <gtest/gtest.h>

#include "exec/thread_pool.h"
#include "log/trace_count_reference.h"
#include "paper_example.h"
#include "synth/dataset.h"

namespace ems {
namespace {

using testing::BuildPaperLog1;
using testing::BuildPaperLog2;

CompositeOptions Opts() {
  CompositeOptions opts;
  opts.delta = 0.001;
  opts.ems.alpha = 1.0;
  opts.ems.c = 0.8;
  return opts;
}

// A generated pair with an injected composite: log 2 merged a strict SEQ
// pair (a, b) into one event; the greedy matcher should merge {a, b} in
// log 1. (The hand-reconstructed paper-example logs are too structurally
// uniform — all traces identical up to one XOR — for any objective to
// separate the true merge from its neighbors, so composite recovery is
// asserted on generated data with known injections instead.)
TEST(CompositeMatcherTest, RecoversInjectedComposite) {
  PairOptions pair_opts;
  pair_opts.num_activities = 10;
  pair_opts.num_traces = 80;
  pair_opts.num_composites = 2;
  pair_opts.dislocation = 1;
  pair_opts.seed = 1;
  LogPair pair = MakeLogPair(Testbed::kDsFB, pair_opts);
  ASSERT_TRUE(pair.has_composites);

  std::set<std::vector<std::string>> wanted;
  for (const TruthEntry& e : pair.truth.entries()) {
    if (e.left.size() == 2) {
      std::vector<std::string> sorted = e.left;
      std::sort(sorted.begin(), sorted.end());
      wanted.insert(sorted);
    }
  }
  ASSERT_FALSE(wanted.empty());

  CompositeOptions opts = Opts();
  opts.delta = 0.005;
  CompositeMatcher matcher(pair.log1, pair.log2, opts);
  Result<CompositeMatchResult> result = matcher.Match();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  size_t recovered = 0;
  for (const auto& comp : result->composites1) {
    std::vector<std::string> names;
    for (EventId e : comp) names.push_back(pair.log1.EventName(e));
    std::sort(names.begin(), names.end());
    if (wanted.count(names)) ++recovered;
  }
  EXPECT_GE(recovered, 1u);
  EXPECT_GE(result->stats.merges_accepted, 1);
}

TEST(CompositeMatcherTest, PaperLogsProduceValidDisjointComposites) {
  EventLog log1 = BuildPaperLog1();
  EventLog log2 = BuildPaperLog2();
  CompositeMatcher matcher(log1, log2, Opts());
  Result<CompositeMatchResult> result = matcher.Match();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Whatever was merged must be pairwise disjoint per side.
  for (const auto& side : {result->composites1, result->composites2}) {
    std::set<EventId> used;
    for (const auto& comp : side) {
      EXPECT_GE(comp.size(), 2u);
      for (EventId e : comp) EXPECT_TRUE(used.insert(e).second);
    }
  }
}

TEST(CompositeMatcherTest, MergingImprovesAverageSimilarity) {
  EventLog log1 = BuildPaperLog1();
  EventLog log2 = BuildPaperLog2();
  // Baseline: no composite matching (empty candidate sets).
  CompositeMatcher baseline(log1, log2, Opts());
  baseline.SetCandidates({}, {});
  Result<CompositeMatchResult> base = baseline.Match();
  ASSERT_TRUE(base.ok());

  CompositeMatcher matcher(log1, log2, Opts());
  Result<CompositeMatchResult> merged = matcher.Match();
  ASSERT_TRUE(merged.ok());
  EXPECT_GE(merged->average_similarity, base->average_similarity);
}

TEST(CompositeMatcherTest, HighDeltaBlocksAllMerges) {
  EventLog log1 = BuildPaperLog1();
  EventLog log2 = BuildPaperLog2();
  CompositeOptions opts = Opts();
  opts.delta = 0.9;  // unreachable improvement
  CompositeMatcher matcher(log1, log2, opts);
  Result<CompositeMatchResult> result = matcher.Match();
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->composites1.empty());
  EXPECT_TRUE(result->composites2.empty());
  EXPECT_EQ(result->stats.merges_accepted, 0);
}

TEST(CompositeMatcherTest, PruningConfigurationsAgreeOnResult) {
  EventLog log1 = BuildPaperLog1();
  EventLog log2 = BuildPaperLog2();
  double reference_avg = -1.0;
  std::vector<std::vector<EventId>> reference_w1;
  for (bool uc : {false, true}) {
    for (bool bd : {false, true}) {
      CompositeOptions opts = Opts();
      opts.prune_unchanged = uc;
      opts.prune_bounds = bd;
      CompositeMatcher matcher(log1, log2, opts);
      Result<CompositeMatchResult> result = matcher.Match();
      ASSERT_TRUE(result.ok());
      if (reference_avg < 0) {
        reference_avg = result->average_similarity;
        reference_w1 = result->composites1;
      } else {
        EXPECT_NEAR(result->average_similarity, reference_avg, 1e-3)
            << "uc=" << uc << " bd=" << bd;
        EXPECT_EQ(result->composites1, reference_w1);
      }
    }
  }
}

TEST(CompositeMatcherTest, UcPruningFreezesRows) {
  EventLog log1 = BuildPaperLog1();
  EventLog log2 = BuildPaperLog2();
  CompositeOptions opts = Opts();
  opts.prune_unchanged = true;
  opts.prune_bounds = false;
  CompositeMatcher matcher(log1, log2, opts);
  Result<CompositeMatchResult> result = matcher.Match();
  ASSERT_TRUE(result.ok());
  if (result->stats.merges_accepted > 0) {
    EXPECT_GT(result->stats.rows_frozen, 0u);
  }
}

TEST(CompositeMatcherTest, UcPruningSavesFormulaEvaluations) {
  EventLog log1 = BuildPaperLog1();
  EventLog log2 = BuildPaperLog2();
  CompositeOptions with_uc = Opts();
  with_uc.prune_unchanged = true;
  with_uc.prune_bounds = false;
  CompositeOptions without = Opts();
  without.prune_unchanged = false;
  without.prune_bounds = false;
  CompositeMatcher m1(log1, log2, with_uc);
  CompositeMatcher m2(log1, log2, without);
  Result<CompositeMatchResult> r1 = m1.Match();
  Result<CompositeMatchResult> r2 = m2.Match();
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_LE(r1->stats.formula_evaluations, r2->stats.formula_evaluations);
}

TEST(CompositeMatcherTest, ExplicitCandidatesRestrictSearch) {
  EventLog log1 = BuildPaperLog1();
  EventLog log2 = BuildPaperLog2();
  EventId ship = log1.FindEvent("ShipGoods");
  EventId email = log1.FindEvent("EmailCustomer");
  CompositeMatcher matcher(log1, log2, Opts());
  // Only offer the wrong candidate {ShipGoods, EmailCustomer}.
  matcher.SetCandidates({CompositeCandidate{{ship, email}, 1.0}}, {});
  Result<CompositeMatchResult> result = matcher.Match();
  ASSERT_TRUE(result.ok());
  for (const auto& comp : result->composites1) {
    // If anything was merged it can only be the offered candidate.
    EXPECT_EQ(comp.size(), 2u);
  }
  EXPECT_EQ(result->stats.candidates_evaluated,
            result->stats.merges_accepted == 0
                ? 1
                : result->stats.candidates_evaluated);
}

TEST(CompositeMatcherTest, GreedyMatchesExactOnSmallInstance) {
  EventLog log1 = BuildPaperLog1();
  EventLog log2 = BuildPaperLog2();
  CandidateOptions cand_opts;
  cand_opts.min_confidence = 1.0;
  std::vector<CompositeCandidate> c1 = DiscoverCandidates(log1, cand_opts);
  std::vector<CompositeCandidate> c2 = DiscoverCandidates(log2, cand_opts);
  Result<CompositeMatchResult> exact =
      ExactCompositeMatch(log1, log2, c1, c2, Opts());
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();

  CompositeMatcher matcher(log1, log2, Opts());
  matcher.SetCandidates(c1, c2);
  Result<CompositeMatchResult> greedy = matcher.Match();
  ASSERT_TRUE(greedy.ok());
  // Greedy cannot beat the optimum; on this easy instance it should tie
  // (within the acceptance threshold delta per merge step).
  EXPECT_LE(greedy->average_similarity, exact->average_similarity + 1e-9);
  EXPECT_NEAR(greedy->average_similarity, exact->average_similarity, 0.02);
}

TEST(CompositeMatcherTest, ExactMatcherRespectsCombinationBudget) {
  EventLog log1 = BuildPaperLog1();
  EventLog log2 = BuildPaperLog2();
  std::vector<CompositeCandidate> many;
  for (EventId e = 0; e + 1 < static_cast<EventId>(log1.NumEvents()); ++e) {
    many.push_back(CompositeCandidate{{e, static_cast<EventId>(e + 1)}, 1.0});
  }
  Result<CompositeMatchResult> r =
      ExactCompositeMatch(log1, log2, many, many, Opts(), nullptr,
                          /*max_combinations=*/2);
  EXPECT_TRUE(r.status().IsResourceExhausted());
}

TEST(CompositeMatcherTest, ResultGraphsReflectMerges) {
  EventLog log1 = BuildPaperLog1();
  EventLog log2 = BuildPaperLog2();
  CompositeMatcher matcher(log1, log2, Opts());
  Result<CompositeMatchResult> result = matcher.Match();
  ASSERT_TRUE(result.ok());
  size_t merged_members = 0;
  for (NodeId v = 1; v < static_cast<NodeId>(result->graph1.NumNodes()); ++v) {
    if (result->graph1.Members(v).size() > 1) ++merged_members;
  }
  EXPECT_EQ(merged_members, result->composites1.size());
  EXPECT_EQ(result->similarity.rows(), result->graph1.NumNodes());
  EXPECT_EQ(result->similarity.cols(), result->graph2.NumNodes());
}

LogPair InjectedPair() {
  PairOptions pair_opts;
  pair_opts.num_activities = 10;
  pair_opts.num_traces = 80;
  pair_opts.num_composites = 2;
  pair_opts.dislocation = 1;
  pair_opts.seed = 1;
  return MakeLogPair(Testbed::kDsFB, pair_opts);
}

// The parallel greedy step must be invisible in the result: same
// composites, bitwise-equal objective, and a similarity matrix with zero
// deviation from the serial run.
void ExpectBitIdentical(const CompositeMatchResult& ref,
                        const CompositeMatchResult& got,
                        const std::string& what) {
  EXPECT_EQ(ref.composites1, got.composites1) << what;
  EXPECT_EQ(ref.composites2, got.composites2) << what;
  EXPECT_EQ(ref.average_similarity, got.average_similarity) << what;
  ASSERT_EQ(ref.similarity.rows(), got.similarity.rows()) << what;
  ASSERT_EQ(ref.similarity.cols(), got.similarity.cols()) << what;
  EXPECT_EQ(ref.similarity.MaxAbsDifference(got.similarity), 0.0) << what;
}

// The search's final graphs are the string-rewriting trace scan's graphs
// of its accepted composites, byte for byte.
void ExpectGraphsMatchTraceScan(const EventLog& log1, const EventLog& log2,
                                const CompositeMatchResult& result,
                                DependencyGraphOptions graph) {
  graph.add_artificial_event = true;
  EXPECT_EQ(testing::TraceScanDifference(result.graph1, log1,
                                         result.composites1, graph),
            "");
  EXPECT_EQ(testing::TraceScanDifference(result.graph2, log2,
                                         result.composites2, graph),
            "");
}

TEST(CompositeMatcherTest, FinalGraphsMatchTraceScanReference) {
  LogPair pair = InjectedPair();
  QGramCosineSimilarity qgram;
  CompositeOptions opts = Opts();
  opts.delta = 0.005;
  opts.ems.alpha = 0.5;
  for (double min_edge_frequency : {0.0, 0.1}) {
    opts.graph.min_edge_frequency = min_edge_frequency;
    CompositeMatcher matcher(pair.log1, pair.log2, opts, &qgram);
    Result<CompositeMatchResult> result = matcher.Match();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_GE(result->stats.merges_accepted, 1);
    ExpectGraphsMatchTraceScan(pair.log1, pair.log2, *result, opts.graph);
  }

  EventLog log1 = BuildPaperLog1();
  EventLog log2 = BuildPaperLog2();
  CandidateOptions cand_opts;
  cand_opts.min_confidence = 1.0;
  Result<CompositeMatchResult> exact = ExactCompositeMatch(
      log1, log2, DiscoverCandidates(log1, cand_opts),
      DiscoverCandidates(log2, cand_opts), Opts());
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  ExpectGraphsMatchTraceScan(log1, log2, *exact, Opts().graph);
}

TEST(CompositeMatcherTest, ParallelStepBitIdenticalToSerial) {
  LogPair pair = InjectedPair();
  QGramCosineSimilarity qgram;
  CompositeOptions serial_opts = Opts();
  serial_opts.delta = 0.005;
  serial_opts.ems.alpha = 0.5;
  serial_opts.num_threads = 1;
  CompositeMatcher serial(pair.log1, pair.log2, serial_opts, &qgram);
  Result<CompositeMatchResult> ref = serial.Match();
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  EXPECT_EQ(ref->stats.candidates_evaluated_parallel, 0);

  // 0 = hardware concurrency; both must reproduce the serial bits.
  for (int threads : {4, 0}) {
    CompositeOptions opts = serial_opts;
    opts.num_threads = threads;
    CompositeMatcher matcher(pair.log1, pair.log2, opts, &qgram);
    Result<CompositeMatchResult> got = matcher.Match();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectBitIdentical(*ref, *got, "threads=" + std::to_string(threads));
    // threads=0 resolves to hardware concurrency, which may be 1 on a
    // small machine — then the step legitimately stays serial.
    const bool parallel = exec::ThreadPool::EffectiveThreads(threads) > 1;
    EXPECT_EQ(got->stats.candidates_evaluated_parallel,
              parallel ? got->stats.candidates_evaluated : 0)
        << "threads=" << threads;
  }
}

TEST(CompositeMatcherTest, ParallelStepBitIdenticalUnderEstimation) {
  LogPair pair = InjectedPair();
  QGramCosineSimilarity qgram;
  CompositeOptions serial_opts = Opts();
  serial_opts.delta = 0.005;
  serial_opts.ems.alpha = 0.5;
  serial_opts.use_estimation = true;
  serial_opts.estimation_iterations = 3;
  serial_opts.num_threads = 1;
  CompositeMatcher serial(pair.log1, pair.log2, serial_opts, &qgram);
  Result<CompositeMatchResult> ref = serial.Match();
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();

  for (int threads : {4, 0}) {
    CompositeOptions opts = serial_opts;
    opts.num_threads = threads;
    CompositeMatcher matcher(pair.log1, pair.log2, opts, &qgram);
    Result<CompositeMatchResult> got = matcher.Match();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectBitIdentical(*ref, *got,
                       "estimation threads=" + std::to_string(threads));
  }
}

// Uc freezes rows of the PREVIOUS matrices and replays them into the next
// evaluation; after a merge removes nodes, every frozen row index must be
// remapped through the new node ids. Forcing two same-side merges (delta
// < 0 accepts unconditionally) shifts ids twice; the Uc run must agree
// with the unpruned run on the chosen composites and their objective.
TEST(CompositeMatcherTest, UcRemapsFrozenRowsAcrossNodeIdShifts) {
  EventLog log1 = BuildPaperLog1();
  EventLog log2 = BuildPaperLog2();
  ASSERT_GE(log1.NumEvents(), 6u);
  std::vector<CompositeCandidate> c1 = {
      CompositeCandidate{{0, 1}, 1.0},
      CompositeCandidate{{2, 3}, 1.0},
  };

  CompositeMatchResult results[2];
  for (bool uc : {false, true}) {
    CompositeOptions opts = Opts();
    opts.delta = -1.0;  // accept every step's best merge
    opts.prune_unchanged = uc;
    opts.prune_bounds = false;
    opts.max_steps = 2;
    CompositeMatcher matcher(log1, log2, opts);
    matcher.SetCandidates(c1, {});
    Result<CompositeMatchResult> result = matcher.Match();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    // Both same-side merges accepted -> node ids shifted after step 1.
    ASSERT_EQ(result->stats.merges_accepted, 2);
    ASSERT_EQ(result->composites1.size(), 2u);
    if (uc) {
      EXPECT_GT(result->stats.rows_frozen, 0u);
    }
    results[uc ? 1 : 0] = std::move(*result);
  }
  EXPECT_EQ(results[0].composites1, results[1].composites1);
  EXPECT_EQ(results[0].composites2, results[1].composites2);
  EXPECT_NEAR(results[0].average_similarity, results[1].average_similarity,
              1e-3);
  EXPECT_LE(results[0].similarity.MaxAbsDifference(results[1].similarity),
            1e-3);
}

// The same shape on a log with an event named "a+b": once the composite
// {a, b} is merged, two nodes of log 1's graph are named "a+b". Uc must
// pair the next step's nodes with the previous step's by member set; a
// pairing by name replays the composite's rows into the event's.
TEST(CompositeMatcherTest, UcRemapsFrozenRowsWhenNamesRepeat) {
  EventLog log1;
  log1.AddTrace({"a", "b", "c", "d", "e"});
  log1.AddTrace({"a", "b", "x", "c", "d"});
  log1.AddTrace({"a+b", "e"});
  log1.AddTrace({"a+b", "y", "e"});
  // Log 2 is log 1 with {a, b} already one event: that merge wins the
  // first step.
  EventLog log2;
  log2.AddTrace({"P", "C", "D", "E"});
  log2.AddTrace({"P", "X", "C", "D"});
  log2.AddTrace({"Q", "E"});
  log2.AddTrace({"Q", "Y", "E"});
  const std::vector<EventId> ab = {log1.FindEvent("a"), log1.FindEvent("b")};
  const std::vector<EventId> cd = {log1.FindEvent("c"), log1.FindEvent("d")};

  CompositeMatchResult results[2];
  for (bool uc : {false, true}) {
    CompositeOptions opts = Opts();
    opts.delta = -1.0;  // accept every step's best merge
    opts.prune_unchanged = uc;
    opts.prune_bounds = false;
    opts.max_steps = 2;
    CompositeMatcher matcher(log1, log2, opts);
    matcher.SetCandidates({CompositeCandidate{ab, 1.0},
                           CompositeCandidate{cd, 1.0}},
                          {});
    Result<CompositeMatchResult> result = matcher.Match();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    // {a, b} first, so the second step starts from a graph with two
    // nodes named "a+b".
    ASSERT_EQ(result->composites1,
              (std::vector<std::vector<EventId>>{ab, cd}));
    if (uc) {
      EXPECT_GT(result->stats.rows_frozen, 0u);
    }
    results[uc ? 1 : 0] = std::move(*result);
  }
  EXPECT_NEAR(results[0].average_similarity, results[1].average_similarity,
              1e-3);
  EXPECT_LE(results[0].similarity.MaxAbsDifference(results[1].similarity),
            1e-3);
}

}  // namespace
}  // namespace ems
