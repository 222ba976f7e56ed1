// Snapshot layer: XXH64 vectors, framing envelope verification, and
// round-trip bit-identity for every artifact kind — decoded artifacts
// must equal their sources field for field and re-encode to the exact
// same bytes. Corruption (truncation, bit flips, version skew, kind
// mismatch, hostile counts) must decode to an error Status, never a
// crash or a wrong artifact.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/matcher.h"
#include "graph/dependency_graph.h"
#include "log/event_log.h"
#include "log/log_io.h"
#include "log/mxml.h"
#include "log/xes.h"
#include "store/hashing.h"
#include "store/snapshot.h"
#include "synth/log_generator.h"
#include "synth/process_tree.h"
#include "util/random.h"

namespace ems {
namespace store {
namespace {

std::string TempDir() {
  const char* env = std::getenv("TMPDIR");
  return env != nullptr ? env : "/tmp";
}

EventLog SampleLog() {
  EventLog log;
  log.AddTrace({"receive order", "check stock", "ship", "bill"});
  log.AddTrace({"receive order", "check stock", "bill", "ship"});
  log.AddTrace({"receive order", "reject"});
  log.AddTrace({"receive order", "check stock", "ship", "bill"});  // repeat
  return log;
}

EventLog SyntheticLog(uint64_t seed) {
  Rng rng(seed);
  ProcessTreeOptions tree_options;
  tree_options.num_activities = 12;
  std::unique_ptr<ProcessNode> tree = GenerateProcessTree(tree_options, &rng);
  PlayoutOptions playout;
  playout.num_traces = 60;
  return PlayoutLog(*tree, playout, &rng);
}

void ExpectSameLog(const EventLog& a, const EventLog& b) {
  ASSERT_EQ(a.NumEvents(), b.NumEvents());
  EXPECT_EQ(a.event_names(), b.event_names());
  ASSERT_EQ(a.NumTraces(), b.NumTraces());
  EXPECT_EQ(a.traces(), b.traces());
}

// ---------------------------------------------------------------------
// Hashing
// ---------------------------------------------------------------------

TEST(HashingTest, MatchesReferenceXxh64Vectors) {
  // Explicit string_view: a bare literal with a second integer argument
  // would resolve to the (const void*, size_t) overload instead.
  EXPECT_EQ(Hash64(std::string_view("")), 0xEF46DB3751D8E999ULL);
  EXPECT_EQ(Hash64(std::string_view("a")), 0xD24EC4F1A98C6E5BULL);
  EXPECT_EQ(Hash64(std::string_view("abc")), 0x44BC2CF5AD770999ULL);
}

TEST(HashingTest, CoversAllLengthRegimes) {
  // < 4, < 8, < 32, and >= 32 bytes take different code paths; each must
  // be deterministic and sensitive to every byte.
  for (size_t len : {1u, 5u, 17u, 31u, 32u, 33u, 100u}) {
    std::string data(len, 'x');
    const uint64_t h = Hash64(data);
    EXPECT_EQ(h, Hash64(data)) << len;
    for (size_t i = 0; i < len; ++i) {
      std::string mutated = data;
      mutated[i] ^= 1;
      EXPECT_NE(Hash64(mutated), h) << "byte " << i << " of " << len;
    }
  }
}

TEST(HashingTest, SeedChangesHash) {
  EXPECT_NE(Hash64(std::string_view("payload"), 0),
            Hash64(std::string_view("payload"), 1));
}

// Split anywhere, the incremental state folds the same bytes as the
// one-shot hash: at every cut of every length around the 32-byte stripe,
// and in uneven three-way splits.
TEST(HashingTest, IncrementalMatchesOneShot) {
  std::string data;
  for (size_t i = 0; i < 200; ++i) {
    data.push_back(static_cast<char>((i * 131 + 7) & 0xFF));
  }
  for (size_t len = 0; len <= 100; ++len) {
    const uint64_t expected = Hash64(data.data(), len, 3);
    for (size_t cut = 0; cut <= len; ++cut) {
      Hash64State state(3);
      state.Update(data.data(), cut);
      state.Update(data.data() + cut, len - cut);
      EXPECT_EQ(state.Digest(), expected) << len << " cut " << cut;
    }
  }
  for (size_t a : {1u, 5u, 31u, 33u, 64u}) {
    for (size_t b : {0u, 2u, 30u, 32u, 70u}) {
      Hash64State state;
      state.Update(data.data(), a);
      state.Update(data.data() + a, b);
      state.Update(data.data() + a + b, data.size() - a - b);
      EXPECT_EQ(state.Digest(), Hash64(data)) << a << "/" << b;
    }
  }
}

// HashFile streams in 64 KiB reads: every short length, and sizes on
// either side of one, two and three read boundaries, must hash like the
// whole contents in memory. A directory is an IOError, not a throw.
TEST(HashingTest, HashFileMatchesInMemoryHash) {
  const std::string path = TempDir() + "/hashing_test_file.bin";
  std::vector<size_t> sizes;
  for (size_t len = 0; len <= 300; ++len) sizes.push_back(len);
  for (size_t len : {65535u, 65536u, 65537u, 3u * 65536u + 31u}) {
    sizes.push_back(len);
  }
  for (size_t len : sizes) {
    std::string body(len, '\0');
    for (size_t i = 0; i < len; ++i) {
      body[i] = static_cast<char>((i * 2654435761u) >> 13);
    }
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << body;
    }
    Result<uint64_t> hashed = HashFile(path);
    ASSERT_TRUE(hashed.ok()) << len;
    EXPECT_EQ(hashed.value(), Hash64(body)) << len;
  }
  std::remove(path.c_str());

  Result<uint64_t> dir = HashFile(TempDir());
  EXPECT_TRUE(dir.status().IsIOError()) << dir.status().ToString();
}

TEST(HashingTest, HashFileReportsMissingFile) {
  EXPECT_FALSE(HashFile(TempDir() + "/hashing_test_absent.bin").ok());
}

TEST(HashingTest, HashHexIsFixedWidthLowercase) {
  EXPECT_EQ(HashHex(0), "0000000000000000");
  EXPECT_EQ(HashHex(0xDEADBEEFULL), "00000000deadbeef");
  EXPECT_EQ(HashHex(0x0123456789ABCDEFULL), "0123456789abcdef");
}

TEST(FingerprintBuilderTest, SensitiveToValuesNamesAndOrder) {
  const uint64_t base =
      FingerprintBuilder().Add("alpha", 0.5).Add("labels", "qgram").Finish();
  EXPECT_EQ(
      base,
      FingerprintBuilder().Add("alpha", 0.5).Add("labels", "qgram").Finish());
  EXPECT_NE(
      base,
      FingerprintBuilder().Add("alpha", 0.6).Add("labels", "qgram").Finish());
  EXPECT_NE(
      base,
      FingerprintBuilder().Add("beta", 0.5).Add("labels", "qgram").Finish());
  EXPECT_NE(
      base,
      FingerprintBuilder().Add("labels", "qgram").Add("alpha", 0.5).Finish());
  EXPECT_NE(FingerprintBuilder().Add("flag", true).Finish(),
            FingerprintBuilder().Add("flag", false).Finish());
}

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

TEST(SnapshotFramingTest, FieldsRoundTripExactly) {
  SnapshotWriter w;
  w.U8(7);
  w.U32(0xCAFEBABEu);
  w.U64(0x0123456789ABCDEFULL);
  w.I32(-42);
  w.F64(-0.0);
  w.F64(0.1);  // not exactly representable: bit pattern must survive
  w.Str("hello \xE2\x82\xAC");
  w.Str("");
  const std::string snapshot = w.Finish(ArtifactKind::kEventLog);

  EXPECT_TRUE(VerifySnapshot(snapshot, ArtifactKind::kEventLog).ok());
  Result<SnapshotReader> reader =
      SnapshotReader::Open(snapshot, ArtifactKind::kEventLog);
  ASSERT_TRUE(reader.ok());
  SnapshotReader r = std::move(reader).value();
  EXPECT_EQ(r.U8(), 7);
  EXPECT_EQ(r.U32(), 0xCAFEBABEu);
  EXPECT_EQ(r.U64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.I32(), -42);
  const double neg_zero = r.F64();
  EXPECT_EQ(neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(neg_zero));
  EXPECT_EQ(r.F64(), 0.1);
  EXPECT_EQ(r.Str(), "hello \xE2\x82\xAC");
  EXPECT_EQ(r.Str(), "");
  EXPECT_TRUE(r.ExpectEnd().ok());
}

TEST(SnapshotFramingTest, RejectsTruncation) {
  SnapshotWriter w;
  w.Str("payload");
  const std::string snapshot = w.Finish(ArtifactKind::kEventLog);
  for (size_t len : {size_t{0}, size_t{5}, kSnapshotHeaderBytes,
                     snapshot.size() - 1}) {
    EXPECT_FALSE(
        VerifySnapshot(snapshot.substr(0, len), ArtifactKind::kEventLog).ok())
        << len;
  }
}

TEST(SnapshotFramingTest, RejectsEveryBitFlip) {
  SnapshotWriter w;
  w.U64(1234);
  w.Str("abc");
  const std::string snapshot = w.Finish(ArtifactKind::kEventLog);
  for (size_t i = 0; i < snapshot.size(); ++i) {
    std::string mutated = snapshot;
    mutated[i] ^= 0x10;
    EXPECT_FALSE(VerifySnapshot(mutated, ArtifactKind::kEventLog).ok())
        << "byte " << i;
  }
}

TEST(SnapshotFramingTest, RejectsVersionSkewEvenWithValidChecksum) {
  SnapshotWriter w;
  w.U64(1);
  std::string snapshot = w.Finish(ArtifactKind::kEventLog);
  // Bump the format version and re-seal the trailer, simulating a file
  // written by a future build: the envelope is intact, only the version
  // differs, and it must still be rejected.
  const uint32_t future = kSnapshotVersion + 1;
  std::memcpy(&snapshot[4], &future, sizeof(future));
  const uint64_t reseal =
      Hash64(snapshot.data(), snapshot.size() - kSnapshotTrailerBytes);
  std::memcpy(&snapshot[snapshot.size() - kSnapshotTrailerBytes], &reseal,
              sizeof(reseal));
  const Status st = VerifySnapshot(snapshot, ArtifactKind::kEventLog);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("version skew"), std::string::npos);
}

TEST(SnapshotFramingTest, RejectsKindMismatch) {
  SnapshotWriter w;
  w.U64(1);
  const std::string snapshot = w.Finish(ArtifactKind::kDependencyGraph);
  EXPECT_FALSE(VerifySnapshot(snapshot, ArtifactKind::kEventLog).ok());
  EXPECT_TRUE(VerifySnapshot(snapshot, ArtifactKind::kDependencyGraph).ok());
}

TEST(SnapshotFramingTest, ReaderErrorIsSticky) {
  SnapshotWriter w;
  w.U32(5);
  const std::string snapshot = w.Finish(ArtifactKind::kEventLog);
  SnapshotReader r =
      std::move(SnapshotReader::Open(snapshot, ArtifactKind::kEventLog))
          .value();
  EXPECT_EQ(r.U32(), 5u);
  EXPECT_EQ(r.U64(), 0u);  // past the end: fails
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.U32(), 0u);  // still failing, returns zero
  EXPECT_FALSE(r.ExpectEnd().ok());
}

TEST(SnapshotFramingTest, CheckCountBlocksAllocationBombs) {
  SnapshotWriter w;
  w.U64(0xFFFFFFFFFFFFFFFFULL);  // hostile element count
  const std::string snapshot = w.Finish(ArtifactKind::kEventLog);
  SnapshotReader r =
      std::move(SnapshotReader::Open(snapshot, ArtifactKind::kEventLog))
          .value();
  const uint64_t count = r.U64();
  EXPECT_FALSE(r.CheckCount(count, 4));
  EXPECT_FALSE(r.ok());
}

// ---------------------------------------------------------------------
// EventLog round-trip
// ---------------------------------------------------------------------

void ExpectLogRoundTrip(const EventLog& log) {
  const std::string snapshot = EncodeEventLog(log);
  Result<EventLog> decoded = DecodeEventLog(snapshot);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectSameLog(log, *decoded);
  // Bit identity: re-encoding the decoded log reproduces the bytes.
  EXPECT_EQ(EncodeEventLog(*decoded), snapshot);
  EXPECT_EQ(EstimateLogSnapshotBytes(log), snapshot.size());
}

TEST(EventLogSnapshotTest, RoundTripsHandWrittenLog) {
  ExpectLogRoundTrip(SampleLog());
}

TEST(EventLogSnapshotTest, RoundTripsEmptyAndDegenerateLogs) {
  ExpectLogRoundTrip(EventLog());
  EventLog no_traces;
  no_traces.AddEvent("lonely");
  ExpectLogRoundTrip(no_traces);
  EventLog empty_trace;
  empty_trace.AddTraceIds({});
  ExpectLogRoundTrip(empty_trace);
}

TEST(EventLogSnapshotTest, RoundTripsSyntheticLogs) {
  for (uint64_t seed : {1u, 7u, 99u}) {
    SCOPED_TRACE(seed);
    ExpectLogRoundTrip(SyntheticLog(seed));
  }
}

TEST(EventLogSnapshotTest, RoundTripsEveryParserFormat) {
  const EventLog source = SyntheticLog(5);
  const std::string dir = TempDir();

  const std::string csv = dir + "/snapshot_roundtrip.csv";
  {
    std::ofstream out(csv);
    ASSERT_TRUE(WriteCsv(source, out).ok());
  }
  Result<EventLog> from_csv = ReadCsvFile(csv);
  ASSERT_TRUE(from_csv.ok());
  ExpectLogRoundTrip(*from_csv);
  std::remove(csv.c_str());

  const std::string xes = dir + "/snapshot_roundtrip.xes";
  ASSERT_TRUE(WriteXesFile(source, xes).ok());
  Result<EventLog> from_xes = ReadXesFile(xes);
  ASSERT_TRUE(from_xes.ok());
  ExpectLogRoundTrip(*from_xes);
  std::remove(xes.c_str());

  const std::string mxml = dir + "/snapshot_roundtrip.mxml";
  ASSERT_TRUE(WriteMxmlFile(source, mxml).ok());
  Result<EventLog> from_mxml = ReadMxmlFile(mxml);
  ASSERT_TRUE(from_mxml.ok());
  ExpectLogRoundTrip(*from_mxml);
  std::remove(mxml.c_str());
}

TEST(EventLogSnapshotTest, RejectsOutOfRangeEventIds) {
  // Hand-build a payload whose trace references a nonexistent event.
  SnapshotWriter w;
  w.U64(1);  // one event
  w.Str("a");
  w.U64(1);  // one trace
  w.U64(1);  // of length one
  w.I32(7);  // invalid id
  Result<EventLog> decoded = DecodeEventLog(w.Finish(ArtifactKind::kEventLog));
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsParseError());
}

TEST(EventLogSnapshotTest, RejectsDuplicateEventNames) {
  SnapshotWriter w;
  w.U64(2);
  w.Str("same");
  w.Str("same");
  w.U64(0);
  EXPECT_FALSE(DecodeEventLog(w.Finish(ArtifactKind::kEventLog)).ok());
}

// ---------------------------------------------------------------------
// DependencyGraph round-trip
// ---------------------------------------------------------------------

void ExpectSameGraph(const DependencyGraph& a, const DependencyGraph& b) {
  ASSERT_EQ(a.NumNodes(), b.NumNodes());
  EXPECT_EQ(a.has_artificial(), b.has_artificial());
  EXPECT_EQ(a.NumEdges(), b.NumEdges());
  for (NodeId v = 0; v < static_cast<NodeId>(a.NumNodes()); ++v) {
    EXPECT_EQ(a.NodeName(v), b.NodeName(v));
    EXPECT_EQ(a.NodeFrequency(v), b.NodeFrequency(v));  // exact doubles
    EXPECT_EQ(a.Members(v), b.Members(v));
    EXPECT_EQ(a.Predecessors(v), b.Predecessors(v));
    EXPECT_EQ(a.PredecessorFrequencies(v), b.PredecessorFrequencies(v));
    EXPECT_EQ(a.Successors(v), b.Successors(v));
    EXPECT_EQ(a.SuccessorFrequencies(v), b.SuccessorFrequencies(v));
  }
  const CsrAdjacency csr_a = a.ExportPredecessorCsr();
  const CsrAdjacency csr_b = b.ExportPredecessorCsr();
  EXPECT_EQ(csr_a.offsets, csr_b.offsets);
  EXPECT_EQ(csr_a.neighbors, csr_b.neighbors);
  EXPECT_EQ(csr_a.frequencies, csr_b.frequencies);
}

TEST(DependencyGraphSnapshotTest, RoundTripsWithEmbeddedDistances) {
  const EventLog log = SyntheticLog(11);
  const DependencyGraph g = DependencyGraph::Build(log);
  const std::vector<int> from = g.LongestDistancesFromArtificial();
  const std::vector<int> to = g.LongestDistancesToArtificial();

  const std::string snapshot = EncodeDependencyGraph(g);
  Result<DependencyGraph> decoded = DecodeDependencyGraph(snapshot);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectSameGraph(g, *decoded);
  // The lazy caches were embedded: the decoded graph returns the same
  // distances (and re-encoding reproduces the bytes, caches included).
  EXPECT_EQ(decoded->LongestDistancesFromArtificial(), from);
  EXPECT_EQ(decoded->LongestDistancesToArtificial(), to);
  EXPECT_EQ(EncodeDependencyGraph(*decoded), snapshot);
}

TEST(DependencyGraphSnapshotTest, RoundTripsWithoutDistances) {
  const EventLog log = SampleLog();
  const DependencyGraph g = DependencyGraph::Build(log);
  const std::string snapshot =
      EncodeDependencyGraph(g, /*include_distances=*/false);
  Result<DependencyGraph> decoded = DecodeDependencyGraph(snapshot);
  ASSERT_TRUE(decoded.ok());
  ExpectSameGraph(g, *decoded);
  // Distances recompute lazily and agree with the source graph.
  EXPECT_EQ(decoded->LongestDistancesFromArtificial(),
            g.LongestDistancesFromArtificial());
}

TEST(DependencyGraphSnapshotTest, RoundTripsGraphWithoutArtificialNode) {
  DependencyGraphOptions options;
  options.add_artificial_event = false;
  const DependencyGraph g = DependencyGraph::Build(SampleLog(), options);
  Result<DependencyGraph> decoded =
      DecodeDependencyGraph(EncodeDependencyGraph(g));
  ASSERT_TRUE(decoded.ok());
  ExpectSameGraph(g, *decoded);
}

TEST(DependencyGraphSnapshotTest, RejectsOutOfRangeNeighbors) {
  SnapshotWriter w;
  w.U8(0);   // no artificial node
  w.U64(1);  // one node
  w.Str("a");
  w.F64(1.0);
  w.U64(0);   // no members
  w.U64(1);   // pre degree 1
  w.I32(99);  // invalid neighbor
  w.F64(0.5);
  w.U64(0);  // post degree 0
  w.U8(0);   // no distance caches
  w.U8(0);
  Result<DependencyGraph> decoded =
      DecodeDependencyGraph(w.Finish(ArtifactKind::kDependencyGraph));
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsParseError());
}

// Typed decoders inherit envelope protection: corrupting any byte of a
// typed snapshot yields a clean error from every decoder.
TEST(TypedCorruptionTest, AllDecodersSurviveCorruptInput) {
  const EventLog log = SampleLog();
  const std::string snapshot = EncodeEventLog(log);
  for (size_t i = 0; i < snapshot.size(); i += 3) {
    std::string mutated = snapshot;
    mutated[i] ^= 0x40;
    Result<EventLog> decoded = DecodeEventLog(mutated);
    if (decoded.ok()) {
      // A flip that survives verification is impossible: the checksum
      // covers every byte.
      ADD_FAILURE() << "corrupt snapshot decoded at byte " << i;
    }
  }
  EXPECT_FALSE(DecodeDependencyGraph(snapshot).ok());  // wrong kind
}

TEST(WarmSeedSnapshotTest, RoundTripsBitExactly) {
  WarmSeed seed;
  seed.forward = SimilarityMatrix(3, 4);
  seed.backward = SimilarityMatrix(3, 4);
  double v = 0.0;
  for (NodeId r = 0; r < 3; ++r) {
    for (NodeId c = 0; c < 4; ++c) {
      seed.forward.set(r, c, v += 0.0625);
      seed.backward.set(r, c, 1.0 / (v + 1.0));
    }
  }
  seed.forward.set(0, 0, -0.0);  // signed-zero round-trip
  seed.cold_iterations = 17;
  seed.valid = true;

  const std::string snapshot = EncodeWarmSeed(seed);
  Result<WarmSeed> decoded = DecodeWarmSeed(snapshot);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded->valid);
  EXPECT_EQ(decoded->cold_iterations, 17);
  ASSERT_EQ(decoded->forward.rows(), 3u);
  ASSERT_EQ(decoded->forward.cols(), 4u);
  ASSERT_EQ(decoded->backward.rows(), 3u);
  for (size_t i = 0; i < seed.forward.data().size(); ++i) {
    EXPECT_EQ(std::memcmp(&decoded->forward.data()[i],
                          &seed.forward.data()[i], sizeof(double)),
              0);
    EXPECT_EQ(std::memcmp(&decoded->backward.data()[i],
                          &seed.backward.data()[i], sizeof(double)),
              0);
  }
  // Re-encoding reproduces the same bytes.
  EXPECT_EQ(EncodeWarmSeed(*decoded), snapshot);
}

TEST(WarmSeedSnapshotTest, RejectsCorruptionAndWrongKind) {
  WarmSeed seed;
  seed.forward = SimilarityMatrix(2, 2, 0.5);
  seed.backward = SimilarityMatrix(2, 2, 0.25);
  seed.cold_iterations = 3;
  seed.valid = true;
  const std::string snapshot = EncodeWarmSeed(seed);
  for (size_t i = 0; i < snapshot.size(); i += 3) {
    std::string mutated = snapshot;
    mutated[i] ^= 0x40;
    EXPECT_FALSE(DecodeWarmSeed(mutated).ok()) << "byte " << i;
  }
  EXPECT_FALSE(DecodeWarmSeed(EncodeEventLog(SampleLog())).ok());
  EXPECT_FALSE(DecodeEventLog(snapshot).ok());
}

}  // namespace
}  // namespace store
}  // namespace ems
