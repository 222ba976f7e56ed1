// Corpus index: entry bookkeeping, the retrieval label bound against the
// brute-force label-matrix maximum, and the prepared per-node label
// profiles that the postings and the scheduler's S^L matrices read.
#include "index/corpus_index.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "graph/dependency_graph.h"
#include "synth/dataset.h"
#include "text/label_similarity.h"
#include "util/string_util.h"

namespace ems {
namespace index {
namespace {

std::vector<CorpusMember> SmallCorpus(int members, int family_size) {
  SynthCorpusOptions opts;
  opts.num_members = members;
  opts.members_per_family = family_size;
  opts.min_activities = 6;
  opts.max_activities = 9;
  opts.num_traces = 25;
  opts.seed = 77;
  return MakeCorpus(opts);
}

TEST(CorpusIndexTest, AddRemoveFind) {
  CorpusIndex index;
  std::vector<CorpusMember> corpus = SmallCorpus(3, 2);
  for (CorpusMember& m : corpus) {
    ASSERT_TRUE(index.Add(m.name, m.log).ok()) << m.name;
  }
  EXPECT_EQ(index.size(), 3u);
  EXPECT_TRUE(index.Add(corpus[0].name, corpus[0].log).IsInvalidArgument());
  EXPECT_TRUE(index.Add("", corpus[0].log).IsInvalidArgument());
  EXPECT_EQ(index.FindIndex(corpus[1].name), 1);
  EXPECT_EQ(index.FindIndex("missing"), -1);
  ASSERT_TRUE(index.Remove(corpus[0].name).ok());
  EXPECT_EQ(index.size(), 2u);
  EXPECT_EQ(index.FindIndex(corpus[1].name), 0);  // shifted down
  EXPECT_TRUE(index.Remove(corpus[0].name).IsNotFound());
}

// The retrieval bound must equal the maximum entry of the label matrix a
// real match would compute: not an inequality pair but the same number —
// both sides reduce to the max cosine over identical part profiles.
TEST(CorpusIndexTest, MaxLabelCosinesMatchesLabelMatrixMax) {
  CorpusIndex index;
  std::vector<CorpusMember> corpus = SmallCorpus(6, 2);
  for (CorpusMember& m : corpus) {
    ASSERT_TRUE(index.Add(m.name, m.log).ok());
  }
  // Query with a family member: in-family entries must reach a high
  // cosine, cross-family ones a low cosine — both matching exactly.
  const EventLog& query = corpus[1].log;
  DependencyGraph query_graph = DependencyGraph::Build(query);
  QGramCosineSimilarity measure;
  std::vector<double> bounds = index.MaxLabelCosines(
      LabelProfiles(query.event_names(), index.options().qgram_q));
  ASSERT_EQ(bounds.size(), index.size());
  for (size_t i = 0; i < index.size(); ++i) {
    std::vector<std::vector<double>> labels =
        LabelSimilarityMatrix(query_graph, index.entry(i).prepared.graph,
                              measure);
    double brute_max = 0.0;
    for (const auto& row : labels) {
      for (double v : row) brute_max = std::max(brute_max, v);
    }
    EXPECT_NEAR(bounds[i], brute_max, 1e-9) << index.entry(i).name;
  }
  // Same-family queries share a private vocabulary prefix.
  EXPECT_GT(bounds[0], 0.5);
}

// Remove rebuilds the postings: bounds after a removal must equal the
// bounds of an index built fresh over the survivors.
TEST(CorpusIndexTest, RemoveRebuildsPostings) {
  std::vector<CorpusMember> corpus = SmallCorpus(4, 2);
  CorpusIndex full;
  CorpusIndex survivors;
  for (CorpusMember& m : corpus) ASSERT_TRUE(full.Add(m.name, m.log).ok());
  for (size_t i = 1; i < corpus.size(); ++i) {
    ASSERT_TRUE(survivors.Add(corpus[i].name, corpus[i].log).ok());
  }
  ASSERT_TRUE(full.Remove(corpus[0].name).ok());
  const EventLog& query = corpus[2].log;
  const LabelProfiles query_labels(query.event_names(),
                                   full.options().qgram_q);
  std::vector<double> a = full.MaxLabelCosines(query_labels);
  std::vector<double> b = survivors.MaxLabelCosines(query_labels);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
}

// The prepared label profiles must mirror the graph at the index's q:
// one entry per node, artificial nodes without parts, real nodes one part
// and one q-gram profile per '+'-part of the node name.
TEST(CorpusIndexTest, LabelProfilesMirrorGraphNodes) {
  CorpusIndex index;
  std::vector<CorpusMember> corpus = SmallCorpus(2, 2);
  ASSERT_TRUE(index.Add(corpus[0].name, corpus[0].log).ok());
  const PreparedLog& e = index.entry(0).prepared;
  ASSERT_EQ(e.labels.size(), e.graph.NumNodes());
  EXPECT_EQ(e.labels.qgram_q(), index.options().qgram_q);
  for (NodeId v = 0; v < static_cast<NodeId>(e.graph.NumNodes()); ++v) {
    const size_t i = static_cast<size_t>(v);
    if (e.graph.IsArtificial(v)) {
      EXPECT_TRUE(e.labels.parts(i).empty());
    } else {
      EXPECT_EQ(e.labels.parts(i), Split(e.graph.NodeName(v), '+'));
    }
    EXPECT_EQ(e.labels.qgrams(i).size(), e.labels.parts(i).size());
  }
}

TEST(CorpusIndexTest, HorizonCapsAreWarm) {
  CorpusIndex index;
  std::vector<CorpusMember> corpus = SmallCorpus(2, 2);
  ASSERT_TRUE(index.Add(corpus[0].name, corpus[0].log).ok());
  const CorpusEntry& e = index.entry(0);
  // Acyclic graphs of nontrivial logs have positive finite horizons.
  EXPECT_GT(e.max_longest_from, 0);
  EXPECT_GT(e.max_longest_to, 0);
}

}  // namespace
}  // namespace index
}  // namespace ems
