// Corpus persistence: snapshot roundtrip, the warm-load path through the
// artifact store (a second load must be one snapshot hit and zero
// re-parses), option-mismatch fallback, and key sensitivity to member
// content.
#include "index/corpus_io.h"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "index/topk_scheduler.h"
#include "log/log_io.h"
#include "obs/context.h"
#include "synth/dataset.h"

namespace ems {
namespace index {
namespace {

namespace fs = std::filesystem;

std::string TempDir() {
  const char* env = std::getenv("TMPDIR");
  return env != nullptr ? env : "/tmp";
}

// A corpus directory of trace-format members; returns the dir.
std::string WriteCorpusDir(const std::string& name, int members) {
  const std::string dir = TempDir() + "/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  SynthCorpusOptions opts;
  opts.num_members = members;
  opts.members_per_family = 2;
  opts.min_activities = 6;
  opts.max_activities = 8;
  opts.num_traces = 20;
  opts.seed = 91;
  for (const CorpusMember& m : MakeCorpus(opts)) {
    EXPECT_TRUE(WriteTraceFile(m.log, dir + "/" + m.name + ".txt").ok());
  }
  return dir;
}

void ExpectSameQueryResults(const CorpusIndex& a, const CorpusIndex& b) {
  ASSERT_EQ(a.size(), b.size());
  TopKOptions opts;
  opts.k = 3;
  opts.match.label_measure = LabelMeasure::kQGramCosine;
  opts.match.ems.alpha = 0.5;
  TopKScheduler sa(a, opts);
  TopKScheduler sb(b, opts);
  const PreparedLog& query = a.entry(0).prepared;
  Result<std::vector<TopKHit>> ha = sa.Query(query);
  Result<std::vector<TopKHit>> hb = sb.Query(query);
  ASSERT_TRUE(ha.ok() && hb.ok());
  ASSERT_EQ(ha->size(), hb->size());
  for (size_t i = 0; i < ha->size(); ++i) {
    EXPECT_EQ((*ha)[i].name, (*hb)[i].name);
    EXPECT_EQ(
        std::memcmp(&(*ha)[i].score, &(*hb)[i].score, sizeof(double)), 0);
  }
}

TEST(CorpusIoTest, ListCorpusFilesSortsAndFilters) {
  const std::string dir = WriteCorpusDir("corpus_io_list", 4);
  std::ofstream(dir + "/notes.md") << "not a log\n";
  Result<std::vector<std::string>> files = ListCorpusFiles(dir);
  ASSERT_TRUE(files.ok());
  EXPECT_EQ(files->size(), 4u);
  for (size_t i = 1; i < files->size(); ++i) {
    EXPECT_LT((*files)[i - 1], (*files)[i]);  // sorted, deterministic
  }
  EXPECT_TRUE(ListCorpusFiles(dir + "/missing").status().IsIOError());
  fs::remove_all(dir);
}

TEST(CorpusIoTest, SnapshotRoundtripPreservesTheIndex) {
  const std::string dir = WriteCorpusDir("corpus_io_roundtrip", 4);
  CorpusLoadOptions load;
  Result<CorpusIndex> cold = LoadCorpusFromDirectory(dir, load);
  ASSERT_TRUE(cold.ok());
  const std::string snapshot = EncodeCorpusIndex(*cold);
  Result<CorpusIndex> decoded = DecodeCorpusIndex(snapshot, load.index);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), cold->size());
  for (size_t i = 0; i < cold->size(); ++i) {
    EXPECT_EQ(decoded->entry(i).name, cold->entry(i).name);
    EXPECT_EQ(decoded->entry(i).content_hash, cold->entry(i).content_hash);
    EXPECT_EQ(decoded->entry(i).prepared.graph.NumNodes(),
              cold->entry(i).prepared.graph.NumNodes());
    EXPECT_EQ(decoded->entry(i).max_longest_from,
              cold->entry(i).max_longest_from);
  }
  ExpectSameQueryResults(*cold, *decoded);

  // Decoding under different build options must fail, not mislead.
  CorpusIndexOptions other;
  other.qgram_q = 4;
  EXPECT_TRUE(DecodeCorpusIndex(snapshot, other).status().IsInvalidArgument());
  fs::remove_all(dir);
}

// The satellite regression: a restart pointed at the same cache dir must
// serve the whole index from one snapshot hit — zero per-member loads,
// zero re-parses (a parse only ever follows a store miss).
TEST(CorpusIoTest, SecondLoadIsOneSnapshotHitAndZeroReparses) {
  const std::string dir = WriteCorpusDir("corpus_io_warm", 4);
  const std::string cache = TempDir() + "/corpus_io_warm_store";
  fs::remove_all(cache);
  ObsContext obs;
  store::ArtifactStoreOptions store_opts;
  store_opts.dir = cache;
  store_opts.obs = &obs;
  Result<store::ArtifactStore> store = store::ArtifactStore::Open(store_opts);
  ASSERT_TRUE(store.ok());

  CorpusLoadOptions load;
  load.store = &*store;
  Result<CorpusIndex> cold = LoadCorpusFromDirectory(dir, load);
  ASSERT_TRUE(cold.ok());
  const uint64_t misses_after_cold = obs.metrics.CounterValue("store.misses");
  EXPECT_GE(misses_after_cold, 1u);  // whole-index miss (+ per-log misses)
  const uint64_t hits_after_cold = obs.metrics.CounterValue("store.hits");

  Result<CorpusIndex> warm = LoadCorpusFromDirectory(dir, load);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(obs.metrics.CounterValue("store.hits"), hits_after_cold + 1);
  EXPECT_EQ(obs.metrics.CounterValue("store.misses"), misses_after_cold);
  ExpectSameQueryResults(*cold, *warm);
  fs::remove_all(dir);
  fs::remove_all(cache);
}

// Changing one member's bytes must change the whole-index key, so stale
// snapshots can never answer for an edited corpus.
TEST(CorpusIoTest, KeyTracksMemberContentAndOptions) {
  const std::string dir = WriteCorpusDir("corpus_io_key", 3);
  Result<std::vector<std::string>> files = ListCorpusFiles(dir);
  ASSERT_TRUE(files.ok());
  CorpusLoadOptions load;
  Result<store::ArtifactKey> before = CorpusKeyForFiles(*files, load);
  ASSERT_TRUE(before.ok());

  std::ofstream(files->front(), std::ios::app) << "a;b\n";
  Result<store::ArtifactKey> after = CorpusKeyForFiles(*files, load);
  ASSERT_TRUE(after.ok());
  EXPECT_NE(before->content_hash, after->content_hash);
  EXPECT_EQ(before->fingerprint, after->fingerprint);

  CorpusLoadOptions other = load;
  other.index.qgram_q = 4;
  Result<store::ArtifactKey> refit = CorpusKeyForFiles(*files, other);
  ASSERT_TRUE(refit.ok());
  EXPECT_NE(refit->fingerprint, after->fingerprint);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace index
}  // namespace ems
