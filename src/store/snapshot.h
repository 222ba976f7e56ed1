// Versioned, checksummed binary snapshots of the pipeline's derived
// artifacts — the serialization layer of the persistent artifact store
// (docs/PERSISTENCE.md).
//
// Every snapshot is one self-describing blob:
//
//   header  (24 bytes): magic "EMS1" | format version | artifact kind |
//                       reserved 0   | payload size (u64)
//   payload (n bytes):  artifact-specific field stream
//   trailer (8 bytes):  XXH64 of header + payload
//
// Integers and doubles are fixed-width native-endian (snapshots are a
// same-machine cache, not an interchange format); doubles round-trip by
// bit pattern, so decoded artifacts reproduce the source bit for bit.
// Any malformed input — short read, bad magic, version skew, wrong kind,
// checksum mismatch, or an inconsistent payload — decodes to an error
// Status, never a crash: readers bounds-check every field and decoders
// validate counts and ids before allocating.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace ems {

class EventLog;
class DependencyGraph;
struct WarmSeed;

namespace store {

/// What a snapshot contains; written into the header and into cache
/// file names, so a key never deserializes as the wrong type. Values 3,
/// 4 and 7 belonged to retired kinds and stay unused.
enum class ArtifactKind : uint32_t {
  kEventLog = 1,         // interned vocabulary + trace multiset
  kDependencyGraph = 2,  // nodes, adjacency, cached l(v) distances
  kCorpusIndex = 5,      // corpus top-k index (src/index/corpus_io.h)
  kSimilarityMatrix = 6,  // warm-start seed: per-direction EMS fixpoints
};

/// Short lowercase name ("log", "graph", ...) used in cache file names;
/// "unknown" for unrecognized values.
const char* ArtifactKindName(ArtifactKind kind);

/// "EMS1" read as a little-endian u32.
inline constexpr uint32_t kSnapshotMagic = 0x31534D45u;

/// Bump whenever any payload layout changes: old files then fail
/// verification and fall back to re-deriving from source.
inline constexpr uint32_t kSnapshotVersion = 1;

inline constexpr size_t kSnapshotHeaderBytes = 24;
inline constexpr size_t kSnapshotTrailerBytes = 8;

/// Checks the envelope only (length, magic, version, kind, payload size,
/// trailer checksum) — cheap enough to run on every cache read.
Status VerifySnapshot(std::string_view snapshot, ArtifactKind expected);

/// \brief Appends fixed-width fields to a payload, then frames it.
class SnapshotWriter {
 public:
  void U8(uint8_t v);
  void U32(uint32_t v);
  void U64(uint64_t v);
  void I32(int32_t v);
  void F64(double v);  // bit pattern, exact round-trip incl. -0.0 / NaN
  void Str(std::string_view s);

  /// The framed snapshot: header + payload + checksum trailer.
  std::string Finish(ArtifactKind kind) const;

  size_t payload_size() const { return payload_.size(); }

 private:
  std::string payload_;
};

/// \brief Bounds-checked field reader with a sticky error.
///
/// Getters return 0/empty once any read has failed; decoders check ok()
/// at structural boundaries instead of per field. CheckCount guards
/// element counts against allocation bombs from corrupted lengths.
class SnapshotReader {
 public:
  /// Verifies the envelope and positions the cursor at the payload.
  static Result<SnapshotReader> Open(std::string_view snapshot,
                                     ArtifactKind expected);

  uint8_t U8();
  uint32_t U32();
  uint64_t U64();
  int32_t I32();
  double F64();
  std::string Str();

  /// True if `count` elements of at least `min_bytes_each` could still
  /// fit in the remaining payload; sets the sticky error otherwise.
  bool CheckCount(uint64_t count, size_t min_bytes_each);

  /// Fails unless the payload was consumed exactly.
  Status ExpectEnd();

  size_t remaining() const { return end_ - pos_; }
  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

 private:
  SnapshotReader(const char* begin, const char* end)
      : pos_(begin), end_(end) {}

  bool Take(void* out, size_t n);
  void Fail(const std::string& what);

  const char* pos_;
  const char* end_;
  Status status_;
};

// ---------------------------------------------------------------------
// Typed serializers. Every Encode returns a fully framed snapshot;
// every Decode verifies the envelope itself (so callers can hand raw
// file bytes straight in) and reproduces the artifact bit-identically:
// re-encoding a decoded artifact yields the same bytes, and matching on
// decoded artifacts equals matching on freshly derived ones.
// ---------------------------------------------------------------------

/// Event log: vocabulary in EventId order + every trace.
std::string EncodeEventLog(const EventLog& log);
Result<EventLog> DecodeEventLog(std::string_view snapshot);

/// Dependency graph: nodes (name, frequency, members) and both
/// adjacency directions with edge frequencies — the exact arrays CSR
/// exports flatten, so ExportPredecessorCsr/ExportSuccessorCsr of a
/// decoded graph equal the source's. With `include_distances` (default)
/// the lazy longest-distance caches are computed now and embedded, so a
/// warm-started graph skips that derivation too.
std::string EncodeDependencyGraph(const DependencyGraph& g,
                                  bool include_distances = true);
Result<DependencyGraph> DecodeDependencyGraph(std::string_view snapshot);

/// Warm-start seed (src/core/matcher.h): both per-direction EMS
/// fixpoint matrices plus the chain's cold-iteration baseline. The store
/// keys these by the content hashes of BOTH logs and the fingerprint of
/// the graph- and fixpoint-shaping match options, so a restarted server
/// only resumes a seed produced by the exact state it is re-matching.
/// Only valid seeds encode.
std::string EncodeWarmSeed(const WarmSeed& seed);
Result<WarmSeed> DecodeWarmSeed(std::string_view snapshot);

/// Size EncodeEventLog(log) would produce, computed arithmetically
/// (no encoding) — the cost estimate for byte-budget caches.
size_t EstimateLogSnapshotBytes(const EventLog& log);

}  // namespace store
}  // namespace ems
