// Streaming ingestion sessions for the batch matching service: one
// session per (log pair, graph and fixpoint options) holds the
// appended-to event log, the incrementally maintained dependency graph,
// and the warm-start seed of the last EMS fixpoint. An {"cmd": "append"}
// wire request folds a batch of traces into the session and warm
// re-matches in a fraction of the cold iteration count
// (docs/STREAMING.md).
//
// A session starts from the shard's prepared logs (serve/log_cache.h):
// log 2 is the cache's shared value, log 1 a copy with its own streaming
// graph and label profiles, which appends grow.
//
// Sessions are also the authority for plain match jobs over a pair they
// cover: after an append, the file on disk is stale relative to the
// session, so the service consults TryMatch BEFORE the parsed-log cache
// — the append-then-match stale-parse regression test pins this order.
// Top-k queries are not: they rank the member files as they are on disk.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/matcher.h"
#include "graph/streaming_graph.h"
#include "util/status.h"

namespace ems {

struct ObsContext;

namespace store {
class ArtifactStore;
}  // namespace store

namespace serve {

class LogCache;
struct JobRequest;

/// One parsed {"cmd": "append"} line. Exactly one of `traces` (inline
/// batch: an array of arrays of event names) or `delta` (a log file in
/// any supported format, appended trace by trace) provides the batch;
/// an empty batch is allowed and resumes/creates the session without
/// changing it.
struct AppendRequest {
  std::string log1;  // the log the batch appends to (session routing key)
  std::string log2;
  std::string format = "auto";
  std::vector<std::vector<std::string>> traces;
  std::string delta;
  MatchOptions options;
};

/// Everything one append produced — the response material.
struct StreamAppendOutcome {
  MatchResult match;
  WarmMatchStats match_stats;
  StreamingGraphStats graph_stats;
  size_t new_events = 0;
  size_t total_traces = 0;  // traces in the session log after the batch
  bool session_created = false;
  bool resumed_from_store = false;  // seed loaded from a persisted snapshot
};

/// Fingerprint of every MatchOptions field that shapes a session's
/// graphs or its EMS fixpoint — part of the session key and of the
/// persisted seed's artifact key. Selection options (strategy, minimum
/// similarity, prob) are left out: every match a session serves selects
/// with its own request's options.
uint64_t StreamOptionsFingerprint(const MatchOptions& options);

/// \brief Registry of live streaming sessions.
///
/// Thread-safe: the registry map has its own mutex; each session carries
/// a shared_mutex (appends exclusive — they mutate log, graph, and seed
/// and re-match inside the lock; session-served matches shared). `cache`
/// is the shard's log cache, which sessions start from; it, `store` and
/// `obs` are borrowed, and the last two may be null: without a store,
/// seeds live only in memory and restarts resume cold.
class StreamSessionManager {
 public:
  StreamSessionManager(LogCache* cache, store::ArtifactStore* store,
                       ObsContext* obs);
  ~StreamSessionManager();

  /// Folds one append batch into the pair's session (creating it from
  /// the shard's prepared logs on first touch) and warm re-matches,
  /// selecting with the request's options. Requires the exact engine and
  /// no composites. `job_obs` (may be null) receives the match's span
  /// tree.
  Result<StreamAppendOutcome> Append(const AppendRequest& request,
                                     ObsContext* job_obs);

  /// Serves a match from a live session when one covers the request's
  /// pair with the same graph and fixpoint options and the backing files
  /// are unchanged on disk since session start, selecting with the
  /// request's own options; nullopt sends the caller down the normal
  /// cache path. The similarity is the session's last fixpoint
  /// (byte-identical, one warm iteration). A session whose backing file
  /// WAS rewritten on disk is dropped here (the disk state wins over
  /// lost in-memory appends).
  std::optional<Result<MatchResult>> TryMatch(const JobRequest& request,
                                              ObsContext* job_obs);

  size_t live_sessions() const;

 private:
  struct Session;

  Result<std::shared_ptr<Session>> GetOrCreate(const AppendRequest& request,
                                               bool* created, bool* resumed);
  void PersistSeed(const Session& session);

  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<Session>> sessions_;
  LogCache* cache_;
  store::ArtifactStore* store_;
  ObsContext* obs_;
};

}  // namespace serve
}  // namespace ems
