// Concurrent batch matching service: newline-delimited JSON job requests
// in, one JSON result line per job out. Jobs are scheduled on a
// ThreadPool behind an LRU log cache, so a stream of thousands of
// matchings (the paper's Section-7 evaluation regime, warehouse
// reconciliation sweeps) parses each log once and saturates every core.
//
// Job request (one JSON object per line; `log1`/`log2` required):
//   {"id": "j1", "log1": "a.xes", "log2": "b.xes",
//    "format": "auto|trace|csv|xes|mxml",
//    "labels": "none|qgram|levenshtein|jaro|tokens",
//    "alpha": 0.5, "c": 0.8, "engine": "exact|estimated",
//    "iterations": 5, "composites": false, "delta": 0.005,
//    "selection": "hungarian|greedy|mutual",
//    "min_similarity": 0.05, "min_edge_frequency": 0.0,
//    "prob": false, "prob_temp": 0.05, "prob_tol": 1e-6,
//    "prob_iters": 50, "prob_min_confidence": 0.02}
//
// Result line (completion order; correlate by id):
//   {"id": "j1", "status": "ok", "millis": 12.3,
//    "correspondences": [{"left": [..], "right": [..],
//                         "similarity": 0.81}, ...],
//    "ems": {"iterations": 7, "formula_evaluations": 1234}}
// or {"id": "j1", "status": "error", "code": "NotFound",
//     "error": "..."}.
// With "prob": true (docs/PROBABILISTIC.md) each correspondence gains a
// "confidence" (its EM posterior mass) and the result a
// "prob": {"iterations", "converged", "final_delta", "mean_entropy"}
// object; non-prob responses are byte-identical to older builds. The
// sharded router hands shards the request it parsed, so every option,
// prob included, works unchanged under --shards/--tcp.
//
// Typed options: every key above is optional, but one present with the
// wrong JSON type (null included) is InvalidArgument naming the key,
// never a silent default. "labels": "none" forces "alpha" to 1, as in
// ems_match. In an append (docs/STREAMING.md) "delta" is the batch
// file's path, not the composite threshold.
//
// Ids: a string "id" is echoed as sent and a number as its integer text
// (7 -> "7"), on every request kind and on a line that fails
// validation; the router (serve/sharded_service.h) assigns "req-N" to
// lines without one (or that are not JSON) before they reach a shard.
//
// Top-k corpus queries ride the same protocol, dispatched on the
// `query` key (docs/CORPUS.md): rank the members of a corpus against
// one query log and return the k best, exactly as a brute-force scan
// would rank them but scheduled through the corpus index:
//   {"id": "t1", "query": "q.xes", "topk": 5,
//    "members": ["a.xes", ...]  |  "corpus": "warehouse/",
//    "brute_force": false, ...match options as above}
// ->
//   {"id": "t1", "status": "ok", "millis": targeted, "k": 5,
//    "hits": [{"member": "a.xes", "rank": 1, "score": 0.83,
//              "score_bits": "3fe51eb851eb851f" (IEEE-754 hex, exact),
//              "correspondences": 17}, ...],
//    "index": {"candidates_retrieved": N, "pruned_by_bound": P,
//              "exact_runs": E, "aborted_runs": A,
//              "brute_force": false}}
// Hits carry the ranking and per-member scores; for the full
// correspondence list of one hit, issue a regular match job for that
// pair (it is served from the same caches). Built corpus indexes are
// cached in-process keyed by member content hashes, and persisted
// through the artifact store, so repeated queries against one corpus
// skip the build entirely. A query ranks the member files as they are
// on disk: an append grows its streaming session, not a corpus member.
//
// Admin commands ({"cmd": "stats" | "health" | "slow" | "drain"}) ride
// the same NDJSON protocol; the router answers them inline, never
// queued behind match jobs (docs/OBSERVABILITY.md). A shard never sees
// one.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/matcher.h"
#include "exec/thread_pool.h"
#include "index/corpus_index.h"
#include "index/topk_scheduler.h"
#include "obs/flight_recorder.h"
#include "serve/log_cache.h"
#include "serve/stream_session.h"
#include "store/artifact_store.h"

namespace ems {

struct ObsContext;

namespace serve {

/// Service configuration.
struct ServiceOptions {
  /// Worker threads; 0 = hardware concurrency, 1 = serve jobs serially.
  int threads = 0;

  /// Bounded job queue; the router's admission cap sits on top of it.
  size_t queue_capacity = 256;

  /// LRU capacity of the parsed-log cache, in logs.
  size_t cache_capacity = 64;

  /// Byte budget of the parsed-log cache (estimated snapshot bytes of
  /// resident logs); 0 keeps the entry-count bound alone.
  size_t cache_byte_budget = 0;

  /// Directory of the persistent artifact store (docs/PERSISTENCE.md);
  /// empty disables persistence. A restarted service with the same
  /// directory starts warm: the first job per log loads its snapshot
  /// instead of re-parsing the source file. An unusable directory is
  /// tolerated — the service runs without persistence.
  std::string cache_dir;

  /// Byte budget of the on-disk store (LRU file eviction); 0 = unbounded.
  uint64_t cache_dir_bytes = 0;

  /// Observability sink for serve.*, store.*, and exec.pool.* metrics
  /// (borrowed). When null and `telemetry` is true (the default), the
  /// service owns a private ObsContext so the stats/health/slow admin
  /// commands always have live data.
  ObsContext* obs = nullptr;

  /// Master switch for the telemetry plane. False runs the service bare
  /// (no owned context, no per-job tracing, no flight recorder) — the
  /// pre-telemetry behavior, kept measurable for bench_serve_obs.
  bool telemetry = true;

  /// Flight-recorder retention: the N slowest and the N most recently
  /// failed requests, each with its span tree.
  size_t flight_slow_capacity = 16;
  size_t flight_failed_capacity = 16;
};

/// A parsed match job.
struct JobRequest {
  std::string id;
  std::string log1;
  std::string log2;
  std::string format = "auto";
  MatchOptions options;
};

/// Parses one NDJSON job line into a match job (ParseError/
/// InvalidArgument on malformed input), whatever its kind.
Result<JobRequest> ParseJobRequest(const std::string& line);

/// A parsed top-k corpus query. Exactly one of `members` / `corpus` is
/// set.
struct TopKRequest {
  std::string query;                 // the query log's path
  std::string format = "auto";
  size_t k = 5;
  std::vector<std::string> members;  // explicit member paths, in rank
                                     // tie-break order
  std::string corpus;                // or: a corpus directory
  bool brute_force = false;          // baseline scan (tests, CI checks)
  MatchOptions options;
};

/// One request line, parsed once. The kind follows the dispatch rules:
/// `"cmd": "append"` is a streaming append job (docs/STREAMING.md: a
/// match job plus either `traces`, an array of arrays of event names
/// appended to log1, or `delta`, a log file whose traces are appended),
/// any other `cmd` an admin command answered inline, a `query` key a
/// top-k query, and anything else a match job. Only the payload of
/// `kind` is filled.
struct Request {
  enum class Kind { kMatch, kTopK, kAppend, kAdmin };
  Kind kind = Kind::kMatch;

  /// The client's id under the one id rule (see the header comment);
  /// empty when absent.
  std::string id;

  /// Why the line is not a valid request of its kind; a line that is not
  /// JSON at all is a match job failing with ParseError.
  Status status;

  std::string cmd;       // kAdmin: the command
  JobRequest match;      // kMatch
  TopKRequest topk;      // kTopK
  AppendRequest append;  // kAppend
};

/// Parses one NDJSON line; never fails — problems land in
/// Request::status.
Request ParseRequest(const std::string& line);

/// The typed outcome of a top-k query, before rendering.
struct TopKAnswer {
  std::vector<index::TopKHit> hits;
  index::TopKStats stats;
};

/// The error response every service renders.
std::string RenderError(const std::string& id, const Status& status);

/// The ok response of a top-k query; `shards` >= 0 adds the number of
/// shards a sharded router fanned the query out to.
std::string RenderTopKResult(const std::string& id, size_t k,
                             const TopKAnswer& answer, double millis,
                             int shards = -1);

/// \brief One worker shard of the matching service.
///
/// HandleJobLine is the pure per-job path (parse -> load via cache ->
/// match -> render), safe to call from any thread; the router
/// (ShardedMatchService) schedules it on this shard's pool. Every job
/// kind runs through one wrapper that owns the per-job trace and root
/// span, the timer, the outcome counters and the flight record.
class BatchMatchService {
 public:
  explicit BatchMatchService(const ServiceOptions& options);
  ~BatchMatchService();  // out of line: ObsContext is incomplete here

  /// Processes one job line synchronously and returns the result line
  /// (without trailing newline). Never fails: malformed requests, and
  /// admin commands, which only the router answers, render as
  /// status:"error" results.
  std::string HandleJobLine(const std::string& line);

  /// HandleJobLine for a line already parsed (the sharded router's typed
  /// hand-off).
  std::string HandleRequest(Request request);

  /// A top-k query the sharded router parsed once, restricted to this
  /// shard's members: runs through the job wrapper like HandleRequest
  /// and fills `answer` instead of rendering. Returns the rendered error
  /// response when the query failed, empty otherwise.
  std::string QueryTopKShard(Request request, TopKAnswer* answer);

  LogCache& cache() { return cache_; }
  exec::ThreadPool& pool() { return pool_; }

  /// The persistent artifact store, or null when `cache_dir` was empty
  /// or unusable.
  store::ArtifactStore* artifact_store() {
    return store_.has_value() ? &*store_ : nullptr;
  }

  /// The effective telemetry context: the caller's, the owned one, or
  /// null when `telemetry` was disabled without a caller context.
  ObsContext* obs() { return options_.obs; }

  /// The slow/failed request retention, or null when telemetry is off.
  FlightRecorder* flight_recorder() { return flight_.get(); }

 private:
  struct Job;  // what a job body sees of the wrapper (.cc)

  // The one job wrapper: bookkeeping around the body of `request`'s
  // kind, each of which returns its rendered ok response. A top-k
  // `answer` is filled instead of rendered when non-null.
  std::string RunJob(Request request, TopKAnswer* answer);
  Result<std::string> RunMatch(JobRequest& request, const Job& job);
  Result<std::string> RunAppend(AppendRequest& request, const Job& job);
  Result<std::string> RunTopK(TopKRequest& request, const Job& job,
                              TopKAnswer* answer);

  /// The corpus index for `members` (in order), built with the request's
  /// min_edge_frequency — from the in-process cache when the member
  /// files are unchanged, else through the artifact store
  /// (index::LoadCorpusFromFiles). Keys include member content hashes,
  /// so a rewritten member rebuilds, never serves stale.
  Result<std::shared_ptr<const index::CorpusIndex>> GetOrBuildCorpus(
      const std::vector<std::string>& members, const std::string& format,
      const MatchOptions& options);

  std::unique_ptr<ObsContext> owned_obs_;  // set before options_
  ServiceOptions options_;
  exec::ThreadPool pool_;
  std::optional<store::ArtifactStore> store_;  // must outlive cache_
  LogCache cache_;
  StreamSessionManager stream_sessions_;  // after cache_: borrows it
  std::unique_ptr<FlightRecorder> flight_;

  // Tiny MRU cache of built corpus indexes (shared so concurrent top-k
  // jobs read one immutable index). An index over a 1k-member corpus is
  // expensive to build and cheap to keep; a handful covers the working
  // set of corpora one deployment serves.
  struct CorpusCacheEntry {
    std::string key;  // content hash + options fingerprint
    std::shared_ptr<const index::CorpusIndex> index;
  };
  static constexpr size_t kCorpusCacheCapacity = 4;
  std::mutex corpus_mu_;
  std::vector<CorpusCacheEntry> corpus_cache_;  // MRU at the back
};

}  // namespace serve
}  // namespace ems
