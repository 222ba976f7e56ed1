#include "text/label_similarity.h"

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/matcher.h"
#include "exec/thread_pool.h"
#include "graph/dependency_graph_builder.h"
#include "paper_example.h"
#include "util/string_util.h"

namespace ems {
namespace {

// Every shipped measure, plus the q-gram measure at a second q.
std::vector<std::unique_ptr<LabelSimilarity>> AllMeasures() {
  std::vector<std::unique_ptr<LabelSimilarity>> measures;
  for (LabelMeasure m :
       {LabelMeasure::kNone, LabelMeasure::kQGramCosine,
        LabelMeasure::kLevenshtein, LabelMeasure::kTokenJaccard,
        LabelMeasure::kJaroWinkler}) {
    measures.push_back(MakeLabelMeasure(m));
  }
  measures.push_back(std::make_unique<QGramCosineSimilarity>(2));
  return measures;
}

// The label rule computed the slow way: split both labels on '+' and
// take the max of measure.Similarity over part pairs, per cell.
std::vector<std::vector<double>> PerCellMax(
    const std::vector<std::string>& a, const std::vector<std::string>& b,
    const LabelSimilarity& measure) {
  std::vector<std::vector<double>> m(a.size(),
                                     std::vector<double>(b.size(), 0.0));
  for (size_t i = 0; i < a.size(); ++i) {
    for (size_t j = 0; j < b.size(); ++j) {
      for (const std::string& pa : Split(a[i], '+')) {
        for (const std::string& pb : Split(b[j], '+')) {
          m[i][j] = std::max(m[i][j], measure.Similarity(pa, pb));
        }
      }
    }
  }
  return m;
}

TEST(NoLabelSimilarityTest, AlwaysZero) {
  NoLabelSimilarity none;
  EXPECT_DOUBLE_EQ(none.Similarity("a", "a"), 0.0);
  EXPECT_EQ(none.Name(), "none");
}

TEST(QGramCosineSimilarityTest, MatchesFreeFunction) {
  QGramCosineSimilarity sim(3);
  EXPECT_DOUBLE_EQ(sim.Similarity("delivery", "delivery"), 1.0);
  EXPECT_EQ(sim.Name(), "qgram-cosine(q=3)");
}

TEST(LevenshteinLabelSimilarityTest, Normalized) {
  LevenshteinLabelSimilarity sim;
  EXPECT_DOUBLE_EQ(sim.Similarity("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(sim.Similarity("ab", "abcd"), 0.5);
}

TEST(TokenJaccardTest, TokenOverlap) {
  TokenJaccardSimilarity sim;
  EXPECT_DOUBLE_EQ(sim.Similarity("Check Inventory", "inventory_check"), 1.0);
  EXPECT_DOUBLE_EQ(sim.Similarity("Ship Goods", "Email Customer"), 0.0);
  EXPECT_NEAR(sim.Similarity("Paid by Cash", "Paid by Card"), 0.5, 1e-12);
}

TEST(TokenJaccardTest, EmptyInputs) {
  TokenJaccardSimilarity sim;
  EXPECT_DOUBLE_EQ(sim.Similarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(sim.Similarity("", "x"), 0.0);
  EXPECT_DOUBLE_EQ(sim.Similarity("!!!", "???"), 1.0);  // both tokenless
}

TEST(LabelSimilarityMatrixTest, ArtificialPairsAreZero) {
  DependencyGraph g1 = testing::BuildPaperGraph1();
  DependencyGraph g2 = testing::BuildPaperGraph2();
  QGramCosineSimilarity sim;
  auto m = LabelSimilarityMatrix(g1, g2, sim);
  ASSERT_EQ(m.size(), g1.NumNodes());
  ASSERT_EQ(m[0].size(), g2.NumNodes());
  for (size_t j = 0; j < m[0].size(); ++j) EXPECT_DOUBLE_EQ(m[0][j], 0.0);
  for (size_t i = 0; i < m.size(); ++i) EXPECT_DOUBLE_EQ(m[i][0], 0.0);
}

TEST(LabelSimilarityMatrixTest, SimilarLabelsScoreHigher) {
  DependencyGraph g1 = testing::BuildPaperGraph1();
  DependencyGraph g2 = testing::BuildPaperGraph2();
  QGramCosineSimilarity sim;
  auto m = LabelSimilarityMatrix(g1, g2, sim);
  // "PaidCash" vs "PaidCash2" beats "PaidCash" vs "Delivery".
  EXPECT_GT(m[1 + testing::A][1 + testing::N2],
            m[1 + testing::A][1 + testing::N5]);
}

TEST(LabelSimilarityMatrixTest, CompositeNodesUseMemberMax) {
  EventLog log;
  log.AddTrace({"checkinv", "validate", "ship"});
  log.AddTrace({"checkinv", "validate", "ship"});
  EventId c = log.FindEvent("checkinv");
  EventId v = log.FindEvent("validate");
  Result<DependencyGraph> g1 =
      DependencyGraphBuilder(log).BuildWithComposites({{c, v}});
  ASSERT_TRUE(g1.ok());
  EventLog log2;
  log2.AddTrace({"validate", "deliver"});
  DependencyGraph g2 = DependencyGraph::Build(log2);
  QGramCosineSimilarity sim;
  auto m = LabelSimilarityMatrix(*g1, g2, sim);
  // Find the composite node of g1.
  NodeId comp = -1;
  for (NodeId n = 1; n < static_cast<NodeId>(g1->NumNodes()); ++n) {
    if (g1->Members(n).size() == 2) comp = n;
  }
  ASSERT_GE(comp, 0);
  NodeId validate2 = -1;
  for (NodeId n = 1; n < static_cast<NodeId>(g2.NumNodes()); ++n) {
    if (g2.NodeName(n) == "validate") validate2 = n;
  }
  ASSERT_GE(validate2, 0);
  // Composite "checkinv+validate" vs "validate": member max = 1.0.
  EXPECT_DOUBLE_EQ(m[static_cast<size_t>(comp)][static_cast<size_t>(validate2)],
                   1.0);
}

// Invariant (a): the prepared-profile matrix is the per-cell max of
// measure.Similarity, bit for bit, for every measure — over labels with
// '+', mixed case, empty parts and parts shorter than q — serially and on
// a pool.
TEST(LabelProfilesTest, PreparedMatrixEqualsPerCellMax) {
  const std::vector<std::string> a = {
      "Check Stock", "check_stock+Ship Order", "", "a", "ab+", "+RECEIVE goods",
      "Inventory Check", "x+y+z", "Ab"};
  const std::vector<std::string> b = {
      "check stock", "SHIP order", "a+B", "receive", "", "inventory_check+",
      "zz", "Y", "++"};
  exec::ThreadPool pool(4);
  for (const auto& measure : AllMeasures()) {
    const std::vector<std::vector<double>> want = PerCellMax(a, b, *measure);
    const int q = ProfileQ(*measure);
    const LabelProfiles pa(a, q);
    const LabelProfiles pb(b, q);
    EXPECT_EQ(LabelSimilarityMatrix(pa, pb, *measure), want)
        << measure->Name();
    EXPECT_EQ(LabelSimilarityMatrix(pa, pb, *measure, &pool), want)
        << measure->Name() << " on 4 threads";
  }
}

// Invariant (b): a composite graph's label matrix read off the singleton
// matrix of the two vocabularies (member max) equals the direct matrix
// over the graph's node names, for every measure. Log 1 has an event
// whose own name contains '+' inside a composite, and an event "a+b" that
// keeps its own node next to the composite {a, b}: both nodes are named
// "a+b", and both have the parts a and b. Log 2 has a composite with an
// empty-named member.
TEST(LabelProfilesTest, MemberMaxEqualsCompositeGraphMatrix) {
  EventLog log1;
  log1.AddTrace({"Check Stock", "ship+pack", "Receive", "a", "b", "Bill"});
  log1.AddTrace({"Check Stock", "ship+pack", "a+b", "Bill"});
  log1.AddTrace({"Receive", "a", "b", "Bill"});
  EventLog log2;
  log2.AddTrace({"check stock", "SHIP", "pack", "receive goods", "bill"});
  log2.AddTrace({"check stock", "x", "", "bill"});
  const auto id1 = [&](const char* name) { return log1.FindEvent(name); };
  const auto id2 = [&](const char* name) { return log2.FindEvent(name); };
  const DependencyGraphBuilder builder1(log1);
  const DependencyGraphBuilder builder2(log2);
  Result<DependencyGraph> g1 = builder1.BuildWithComposites(
      {{id1("Check Stock"), id1("ship+pack")}, {id1("a"), id1("b")}});
  Result<DependencyGraph> g2 = builder2.BuildWithComposites(
      {{id2("SHIP"), id2("pack")}, {id2("x"), id2("")}});
  ASSERT_TRUE(g1.ok()) << g1.status().ToString();
  ASSERT_TRUE(g2.ok()) << g2.status().ToString();
  size_t named_ab = 0;
  for (NodeId v = 1; v < static_cast<NodeId>(g1->NumNodes()); ++v) {
    if (g1->NodeName(v) == "a+b") ++named_ab;
  }
  ASSERT_EQ(named_ab, 2u);
  for (const auto& measure : AllMeasures()) {
    const int q = ProfileQ(*measure);
    const std::vector<std::vector<double>> events = LabelSimilarityMatrix(
        LabelProfiles(log1.event_names(), q),
        LabelProfiles(log2.event_names(), q), *measure);
    EXPECT_EQ(MemberLabelMatrix(*g1, *g2, events),
              LabelSimilarityMatrix(*g1, *g2, *measure))
        << measure->Name();
  }
}

}  // namespace
}  // namespace ems
