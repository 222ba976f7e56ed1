// LRU repository of prepared event logs — the cache in front of the
// batch matching service. Bulk workloads (Khan et al.'s reproducibility
// sweeps, warehouse scans) match the same logs against many partners;
// a value holds everything of a match that depends on one log alone —
// the parsed log, its dependency graph and its label profiles — so a
// request does only the pair's work. Streaming sessions start from the
// same values (serve/stream_session.h): log 2 of a session is the shared
// value itself, and log 1 a copy the session appends to.
//
// Keys include the file's content hash, so a log rewritten between jobs
// is re-parsed, never served stale. With an artifact store attached the
// cache is two-level: a memory miss first consults the on-disk snapshot
// store (docs/PERSISTENCE.md) and only re-parses the source format when
// the store misses too — which is what makes a restarted ems_serve warm.
#pragma once

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "core/matcher.h"
#include "log/event_log.h"
#include "serve/lru_cache.h"
#include "util/status.h"

namespace ems {

struct ObsContext;

namespace store {
class ArtifactStore;
}  // namespace store

namespace serve {

/// \brief Thread-safe two-level load-through cache of prepared logs.
///
/// Keys are `canonical_path|format|content_hash|prepare`: the canonical
/// path resolves symlinks and relative segments (realpath) so two
/// spellings of one file share an entry, the XXH64 content hash makes a
/// rewritten file a different key, and `prepare` fingerprints the
/// PrepareOptions, so each graph option set and label q has its own
/// entry. Hashing reads the whole file on every lookup — it is what
/// keeps the cache coherent without invalidation messages, and it runs
/// at read speed, well under parsing but not free. Values are
/// shared_ptr<const PreparedLog>: eviction never invalidates a log a
/// running job still holds, and jobs only read a value (its graph's
/// distance caches are filled before it is published).
///
/// Loads are single-flight: the first miss on a key loads outside the
/// cache lock, and concurrent callers of that key wait for its result
/// and count as hits. A failed load goes back to its waiters and is not
/// cached, so the next lookup retries.
class LogCache {
 public:
  /// `obs` (borrowed, may be null) receives serve.cache.{hits,misses}
  /// and the serve.cache_bytes gauge. `store` (borrowed, may be null)
  /// is the on-disk snapshot layer consulted between memory and source.
  /// `max_cost_bytes` bounds resident entries by their estimated bytes
  /// (log snapshot, graph and label profiles); 0 keeps the entry-count
  /// bound alone (the default mode).
  explicit LogCache(size_t capacity, ObsContext* obs = nullptr,
                    store::ArtifactStore* store = nullptr,
                    uint64_t max_cost_bytes = 0);

  /// The log at `path` prepared under `prepare`, loading and preparing
  /// it on a miss. `format` is auto|trace|csv|xes|mxml, as in the CLI
  /// tools; "auto" detects from the extension. An unreadable file (a
  /// directory, for one) is an IOError. `content_hash_out` (optional)
  /// receives the XXH64 of the file the value was keyed by.
  Result<std::shared_ptr<const PreparedLog>> GetOrLoad(
      const std::string& path, const std::string& format,
      const PrepareOptions& prepare = {},
      uint64_t* content_hash_out = nullptr);

  /// Lookups answered without a load of their own (resident entries and
  /// waiters on another caller's load) and lookups that loaded.
  uint64_t hits() const;
  uint64_t misses() const;
  size_t size() const { return cache_.size(); }
  uint64_t cost_bytes() const { return cache_.cost_bytes(); }

 private:
  using Loaded = Result<std::shared_ptr<const PreparedLog>>;

  LruCache<std::string, std::shared_ptr<const PreparedLog>> cache_;
  ObsContext* obs_;
  store::ArtifactStore* store_;

  // Guards the counters and the in-flight loads: a key is in `loading_`
  // from its first miss until its result is cached or has failed.
  mutable std::mutex mu_;
  std::map<std::string, std::shared_future<Loaded>> loading_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

/// The concrete format name ("trace", "csv", "xes", "mxml") that `format`
/// resolves to for `path`; "auto"/"" detect from the extension. Unknown
/// explicit formats pass through and fail in LoadEventLog.
std::string ResolveLogFormat(const std::string& path,
                             const std::string& format);

/// Loads one event log with the CLI tools' format auto-detection.
Result<EventLog> LoadEventLog(const std::string& path,
                              const std::string& format);

/// Loads `path` through `store` when non-null: on a store hit the log
/// decodes from its snapshot without touching the source parser; on a
/// miss it parses from source and writes the snapshot back. With a null
/// store this is LoadEventLog. `content_hash_out` (optional) receives
/// the source file's XXH64.
Result<EventLog> LoadEventLogThroughStore(store::ArtifactStore* store,
                                          const std::string& path,
                                          const std::string& format,
                                          uint64_t* content_hash_out = nullptr);

/// Resolves symlinks/relative segments; the input path when resolution
/// fails (e.g. the file does not exist yet — the load will report that).
std::string CanonicalPath(const std::string& path);

}  // namespace serve
}  // namespace ems
