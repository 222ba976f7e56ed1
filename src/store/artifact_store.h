// Content-addressed on-disk cache of snapshot artifacts — the
// persistence layer of docs/PERSISTENCE.md. A store is one directory of
// framed snapshots (src/store/snapshot.h), each named by its key:
//
//   <kind>-<content hash hex>-<options fingerprint hex>.emsnap
//
// so a key changes whenever the source bytes or any derivation option
// changes, and stale entries are simply never addressed again. Writes
// are atomic (tmp file + rename); loads verify the envelope checksum
// and NEVER surface corruption to the caller — a short read, version
// skew, checksum mismatch, or wrong kind counts store.fallback_rederives,
// evicts the bad file, and returns nullopt so the caller re-derives
// from source. An optional byte budget evicts least-recently-used
// entries (by file mtime, refreshed on every hit) after each write.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

#include "store/snapshot.h"
#include "util/status.h"

namespace ems {

struct ObsContext;

namespace store {

/// Identity of one cached artifact. Two keys collide only if the kind,
/// the source content hash, AND the options fingerprint all match — at
/// which point the cached bytes are interchangeable with re-deriving.
struct ArtifactKey {
  ArtifactKind kind = ArtifactKind::kEventLog;
  /// XXH64 of the source bytes the artifact derives from (for logs: the
  /// raw file; for graphs: the log snapshot they came from).
  uint64_t content_hash = 0;
  /// FingerprintBuilder digest of every option that affects derivation.
  uint64_t fingerprint = 0;

  /// "<kind>-<hash hex>-<fingerprint hex>.emsnap"
  std::string FileName() const;
};

struct ArtifactStoreOptions {
  /// Cache directory; created (with parents) by Open.
  std::string dir;
  /// Byte budget over all .emsnap files; 0 disables eviction.
  uint64_t max_bytes = 0;
  /// Metrics sink for the store.* counters (docs/OBSERVABILITY.md);
  /// null runs without instrumentation.
  ObsContext* obs = nullptr;
};

/// \brief Directory-backed artifact cache with graceful fallback.
///
/// Thread-safe: Load and Store serialize on an internal mutex (file
/// system work is trivial next to the parse/derive it saves). Multiple
/// processes may share a directory — atomic renames keep files
/// internally consistent, and verification catches anything else.
class ArtifactStore {
 public:
  /// Creates `options.dir` if needed. IOError if that fails.
  static Result<ArtifactStore> Open(ArtifactStoreOptions options);

  ArtifactStore(ArtifactStore&&) = default;
  ArtifactStore& operator=(ArtifactStore&&) = default;

  /// The verified snapshot bytes for `key`, or nullopt when absent or
  /// invalid (counted as store.misses resp. store.fallback_rederives —
  /// invalid files are also deleted so the next Store replaces them).
  /// A hit refreshes the entry's mtime for LRU and counts store.hits
  /// and store.bytes_read.
  std::optional<std::string> Load(const ArtifactKey& key);

  /// Atomically writes `snapshot` (already framed by SnapshotWriter)
  /// under `key`, then enforces the byte budget by deleting
  /// least-recently-used entries (store.evictions). Write failures are
  /// swallowed after counting store.write_errors: the cache being
  /// unwritable must not fail the pipeline.
  void Store(const ArtifactKey& key, std::string_view snapshot);

  /// Bytes currently held in .emsnap files (directory scan).
  uint64_t TotalBytes() const;

  const std::string& dir() const { return options_.dir; }
  uint64_t max_bytes() const { return options_.max_bytes; }
  ObsContext* obs() const { return options_.obs; }

 private:
  explicit ArtifactStore(ArtifactStoreOptions options);

  void EnforceBudgetLocked();

  ArtifactStoreOptions options_;
  std::unique_ptr<std::mutex> mu_;  // unique_ptr keeps the store movable
  uint64_t tmp_counter_ = 0;
};

/// Fingerprint of event-log parsing: the resolved format name. Logs
/// parsed from the same bytes as CSV vs XES are distinct artifacts.
uint64_t LogFingerprint(std::string_view format_name);

}  // namespace store
}  // namespace ems
