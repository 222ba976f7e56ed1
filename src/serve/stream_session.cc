#include "serve/stream_session.h"

#include <optional>
#include <shared_mutex>
#include <utility>

#include "log/event_log.h"
#include "obs/context.h"
#include "serve/log_cache.h"
#include "serve/service.h"
#include "store/artifact_store.h"
#include "store/hashing.h"
#include "store/snapshot.h"

namespace ems {
namespace serve {

namespace {

// The append batch as name vectors: inline traces, or the traces of a
// delta log file parsed with the service's format detection.
Result<std::vector<std::vector<std::string>>> ResolveBatch(
    const AppendRequest& request) {
  if (request.delta.empty()) return request.traces;
  if (!request.traces.empty()) {
    return Status::InvalidArgument(
        "append takes either inline traces or a delta file, not both");
  }
  auto delta_log = LoadEventLog(request.delta, request.format);
  if (!delta_log.ok()) return delta_log.status();
  std::vector<std::vector<std::string>> batch;
  batch.reserve(delta_log->NumTraces());
  for (size_t t = 0; t < delta_log->NumTraces(); ++t) {
    const Trace& trace = delta_log->trace(t);
    std::vector<std::string> names;
    names.reserve(trace.size());
    for (EventId id : trace) names.push_back(delta_log->EventName(id));
    batch.push_back(std::move(names));
  }
  return batch;
}

// Folds both source hashes into the content-hash half of the seed's
// artifact key (ArtifactKey has one content-hash slot; a seed derives
// from two files).
uint64_t PairContentHash(uint64_t hash1, uint64_t hash2) {
  return store::FingerprintBuilder()
      .Add("log1_hash", hash1)
      .Add("log2_hash", hash2)
      .Finish();
}

Status ValidateStreamOptions(const MatchOptions& options) {
  if (options.engine != SimilarityEngine::kExact) {
    return Status::InvalidArgument(
        "streaming sessions require the exact engine");
  }
  if (options.match_composites) {
    return Status::InvalidArgument(
        "streaming sessions do not support composite matching");
  }
  return Status::OK();
}

}  // namespace

uint64_t StreamOptionsFingerprint(const MatchOptions& options) {
  return store::FingerprintBuilder()
      .Add("engine", static_cast<uint64_t>(options.engine))
      .Add("alpha", options.ems.alpha)
      .Add("c", options.ems.c)
      .Add("epsilon", options.ems.epsilon)
      .Add("max_iterations", static_cast<uint64_t>(options.ems.max_iterations))
      .Add("label_measure", static_cast<uint64_t>(options.label_measure))
      .Add("min_edge_frequency", options.min_edge_frequency)
      .Add("match_composites", options.match_composites)
      .Finish();
}

/// One live pair. Heap-allocated and never moved: `graph1` borrows
/// `log1`, so the log must stay at a fixed address for the session's
/// lifetime (log1 is assigned before graph1 is emplaced and only mutated
/// through AppendTraces afterwards).
struct StreamSessionManager::Session {
  std::shared_mutex mu;

  std::string canon1;
  std::string canon2;
  std::string format1;
  std::string format2;
  uint64_t base_hash1 = 0;  // on-disk content hashes at session creation
  uint64_t base_hash2 = 0;
  uint64_t options_fingerprint = 0;

  // Log 1: the session's copy of the prepared log, which appends grow,
  // its streaming graph, and its label profiles (re-prepared when an
  // append adds nodes). Log 2: the shard cache's shared preparation.
  EventLog log1;
  std::optional<StreamingDependencyGraph> graph1;
  LabelProfiles labels1;
  std::shared_ptr<const PreparedLog> prepared2;

  WarmSeed seed;
  /// False while the seed came from a persisted snapshot and no match has
  /// run over the CURRENT graphs yet — a restart reloads the base files,
  /// which may differ from the appended state the snapshot converged on,
  /// so resume must warm-start with null hints, never assume_unchanged.
  bool seed_matches_current_graphs = false;
};

StreamSessionManager::StreamSessionManager(LogCache* cache,
                                           store::ArtifactStore* store,
                                           ObsContext* obs)
    : cache_(cache), store_(store), obs_(obs) {}

StreamSessionManager::~StreamSessionManager() = default;

namespace {

std::string SessionKey(const std::string& canon1, const std::string& canon2,
                       const std::string& format1, const std::string& format2,
                       uint64_t options_fingerprint) {
  std::string key = canon1;
  key += '\x1f';
  key += canon2;
  key += '\x1f';
  key += format1;
  key += '\x1f';
  key += format2;
  key += '\x1f';
  key += store::HashHex(options_fingerprint);
  return key;
}

}  // namespace

Result<std::shared_ptr<StreamSessionManager::Session>>
StreamSessionManager::GetOrCreate(const AppendRequest& request, bool* created,
                                  bool* resumed) {
  *created = false;
  *resumed = false;
  const std::string canon1 = CanonicalPath(request.log1);
  const std::string canon2 = CanonicalPath(request.log2);
  const std::string format1 = ResolveLogFormat(request.log1, request.format);
  const std::string format2 = ResolveLogFormat(request.log2, request.format);
  const uint64_t fp = StreamOptionsFingerprint(request.options);
  const std::string key = SessionKey(canon1, canon2, format1, format2, fp);

  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(key);
    if (it != sessions_.end()) return it->second;
  }

  // Build outside the registry lock: loading a log and building its
  // streaming graph must not stall unrelated sessions.
  auto session = std::make_shared<Session>();
  session->canon1 = canon1;
  session->canon2 = canon2;
  session->format1 = format1;
  session->format2 = format2;
  session->options_fingerprint = fp;

  const PrepareOptions prepare = PrepareOptionsFor(request.options);
  EMS_ASSIGN_OR_RETURN(std::shared_ptr<const PreparedLog> prepared1,
                       cache_->GetOrLoad(request.log1, request.format,
                                         prepare, &session->base_hash1));
  EMS_ASSIGN_OR_RETURN(session->prepared2,
                       cache_->GetOrLoad(request.log2, request.format,
                                         prepare, &session->base_hash2));
  session->log1 = prepared1->log;
  session->labels1 = prepared1->labels;
  session->graph1.emplace(session->log1, prepare.graph);

  if (store_ != nullptr) {
    store::ArtifactKey seed_key{
        store::ArtifactKind::kSimilarityMatrix,
        PairContentHash(session->base_hash1, session->base_hash2), fp};
    if (auto snapshot = store_->Load(seed_key)) {
      auto seed = store::DecodeWarmSeed(*snapshot);
      // The snapshot may have converged on an appended log whose
      // vocabulary outgrew the base file reloaded here; any-seed
      // warm-start is sound only over matching dimensions.
      if (seed.ok() &&
          seed->forward.rows() == session->graph1->graph().NumNodes() &&
          seed->forward.cols() == session->prepared2->graph.NumNodes()) {
        session->seed = std::move(*seed);
        session->seed_matches_current_graphs = false;
        *resumed = true;
        ObsIncrement(obs_, "stream.seed_resumes");
      }
    }
  }

  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = sessions_.emplace(key, session);
  if (!inserted) return it->second;  // lost a creation race; theirs wins
  *created = true;
  ObsSetGauge(obs_, "stream.sessions", static_cast<double>(sessions_.size()));
  return session;
}

Result<StreamAppendOutcome> StreamSessionManager::Append(
    const AppendRequest& request, ObsContext* job_obs) {
  Status valid = ValidateStreamOptions(request.options);
  if (!valid.ok()) return valid;
  auto batch = ResolveBatch(request);
  if (!batch.ok()) return batch.status();

  bool created = false;
  bool resumed = false;
  auto session_or = GetOrCreate(request, &created, &resumed);
  if (!session_or.ok()) return session_or.status();
  Session& session = **session_or;

  std::unique_lock<std::shared_mutex> lock(session.mu);

  const AppendDelta delta = session.log1.AppendTraces(*batch);
  StreamingGraphStats graph_stats;
  if (delta.appended_traces > 0) {
    graph_stats = session.graph1->ApplyAppend(delta.first_new_trace);
    if (graph_stats.new_nodes > 0) {
      session.labels1 = LabelProfiles(session.graph1->graph(),
                                      session.labels1.qgram_q());
    }
  }

  // assume_unchanged needs the seed's graphs bit-identical to the current
  // ones: a live in-memory seed with an empty batch qualifies; a seed
  // resumed from a snapshot does not until one match re-converges it.
  const bool assume_unchanged = session.seed.valid &&
                                session.seed_matches_current_graphs &&
                                delta.appended_traces == 0;

  MatchOptions match_options = request.options;
  match_options.obs.context = job_obs;
  StreamAppendOutcome outcome;
  PipelineInputs inputs;
  inputs.seed = &session.seed;
  inputs.assume_unchanged = assume_unchanged;
  inputs.next_seed = &session.seed;
  inputs.stats = &outcome.match_stats;
  const PreparedLog& prepared2 = *session.prepared2;
  auto match = MatchPrepared(match_options, session.log1, prepared2.log,
                             session.graph1->graph(), prepared2.graph,
                             session.labels1, prepared2.labels, inputs);
  if (!match.ok()) return match.status();
  session.seed_matches_current_graphs = true;
  PersistSeed(session);

  outcome.match = std::move(*match);
  outcome.graph_stats = graph_stats;
  outcome.new_events = delta.new_events;
  outcome.total_traces = session.log1.NumTraces();
  outcome.session_created = created;
  outcome.resumed_from_store = resumed;
  lock.unlock();

  ObsIncrement(obs_, "stream.appends");
  ObsIncrement(obs_, "stream.appended_traces", delta.appended_traces);
  ObsIncrement(obs_, "stream.new_nodes", graph_stats.new_nodes);
  ObsIncrement(obs_, "stream.delta_edges",
               graph_stats.added_edges + graph_stats.removed_edges);
  ObsIncrement(obs_, "stream.distance_rows_invalidated",
               graph_stats.distance_rows_invalidated);
  if (outcome.match_stats.warm) {
    ObsIncrement(obs_, "stream.warm_matches");
    ObsIncrement(obs_, "stream.warm_iterations",
                 static_cast<uint64_t>(outcome.match_stats.iterations));
    ObsIncrement(obs_, "stream.iterations_saved",
                 static_cast<uint64_t>(outcome.match_stats.iterations_saved));
  }
  return outcome;
}

std::optional<Result<MatchResult>> StreamSessionManager::TryMatch(
    const JobRequest& request, ObsContext* job_obs) {
  if (!ValidateStreamOptions(request.options).ok()) return std::nullopt;
  const std::string canon1 = CanonicalPath(request.log1);
  const std::string canon2 = CanonicalPath(request.log2);
  const std::string key = SessionKey(
      canon1, canon2, ResolveLogFormat(request.log1, request.format),
      ResolveLogFormat(request.log2, request.format),
      StreamOptionsFingerprint(request.options));

  std::shared_ptr<Session> session;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(key);
    if (it == sessions_.end()) return std::nullopt;
    session = it->second;
  }

  // A backing file rewritten since session start means the disk state
  // diverged from the stream; the session's appends are stale relative
  // to it, so the session is dropped and the normal cache path (which
  // hashes and re-parses the file) serves the job.
  auto hash1 = store::HashFile(request.log1);
  auto hash2 = store::HashFile(request.log2);
  if (!hash1.ok() || !hash2.ok() || *hash1 != session->base_hash1 ||
      *hash2 != session->base_hash2) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(key);
    if (it != sessions_.end() && it->second == session) {
      sessions_.erase(it);
      ObsIncrement(obs_, "stream.sessions_invalidated");
      ObsSetGauge(obs_, "stream.sessions",
                  static_cast<double>(sessions_.size()));
    }
    return std::nullopt;
  }

  std::shared_lock<std::shared_mutex> lock(session->mu);
  if (!session->seed.valid || !session->seed_matches_current_graphs) {
    return std::nullopt;
  }

  // The session's in-memory appended log is authoritative over the
  // on-disk file, which never sees the appended traces: serving from the
  // session (one all-clean warm iteration, byte-identical to the last
  // fixpoint) is what fixes the append-then-match stale-parse bug.
  // Selection runs with this request's options, not the session's.
  MatchOptions match_options = request.options;
  match_options.obs.context = job_obs;
  PipelineInputs inputs;
  inputs.seed = &session->seed;
  inputs.assume_unchanged = true;
  const PreparedLog& prepared2 = *session->prepared2;
  Result<MatchResult> match = MatchPrepared(
      match_options, session->log1, prepared2.log, session->graph1->graph(),
      prepared2.graph, session->labels1, prepared2.labels, inputs);
  lock.unlock();
  if (match.ok()) ObsIncrement(obs_, "stream.session_matches");
  return match;
}

size_t StreamSessionManager::live_sessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

void StreamSessionManager::PersistSeed(const Session& session) {
  if (store_ == nullptr || !session.seed.valid) return;
  store::ArtifactKey key{
      store::ArtifactKind::kSimilarityMatrix,
      PairContentHash(session.base_hash1, session.base_hash2),
      session.options_fingerprint};
  store_->Store(key, store::EncodeWarmSeed(session.seed));
}

}  // namespace serve
}  // namespace ems
