#include "serve/service.h"

#include <climits>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <mutex>
#include <string_view>
#include <type_traits>

#include "index/corpus_io.h"
#include "index/topk_scheduler.h"
#include "obs/context.h"
#include "util/json_parser.h"
#include "util/json_writer.h"
#include "util/log.h"
#include "util/timer.h"

namespace ems {
namespace serve {

namespace {

exec::ThreadPoolOptions PoolOptions(const ServiceOptions& options) {
  exec::ThreadPoolOptions pool;
  pool.num_threads = options.threads;
  pool.queue_capacity = options.queue_capacity;
  pool.obs = options.obs;
  return pool;
}

// Reads request key `key` into `*out`; an absent key leaves `*out` (the
// default) untouched. A key present with another JSON type, null
// included, is InvalidArgument naming it: what the client sent never
// turns silently into a default.
template <typename T>
Status ReadKey(const JsonValue& doc, std::string_view key, T* out) {
  const JsonValue* v = doc.Find(key);
  if (v == nullptr) return Status::OK();
  const char* expected = nullptr;
  if constexpr (std::is_same_v<T, std::string>) {
    if (v->is_string()) *out = v->string_value();
    else expected = "a string";
  } else if constexpr (std::is_same_v<T, bool>) {
    if (v->is_bool()) *out = v->bool_value();
    else expected = "true or false";
  } else if constexpr (std::is_same_v<T, int>) {
    // Range-checked before narrowing: 2^32 + 5 must not wrap to 5.
    if (v->is_number() && std::fabs(v->number_value()) <= INT_MAX) {
      *out = static_cast<int>(std::lround(v->number_value()));
    } else {
      expected = "a number within int range";
    }
  } else {
    static_assert(std::is_same_v<T, double>);
    if (v->is_number()) *out = v->number_value();
    else expected = "a number";
  }
  if (expected == nullptr) return Status::OK();
  return Status::InvalidArgument("'" + std::string(key) + "' must be " +
                                 expected);
}

// The options every request kind shares. `delta` is the composite
// threshold except in an append, where it names the batch file.
Status ParseMatchOptions(const JsonValue& job, bool append, MatchOptions* out) {
  std::string labels = "qgram";
  EMS_RETURN_NOT_OK(ReadKey(job, "labels", &labels));
  if (labels == "none") out->label_measure = LabelMeasure::kNone;
  else if (labels == "qgram") out->label_measure = LabelMeasure::kQGramCosine;
  else if (labels == "levenshtein") {
    out->label_measure = LabelMeasure::kLevenshtein;
  } else if (labels == "jaro") {
    out->label_measure = LabelMeasure::kJaroWinkler;
  } else if (labels == "tokens") {
    out->label_measure = LabelMeasure::kTokenJaccard;
  } else {
    return Status::InvalidArgument("unknown label measure '" + labels + "'");
  }
  out->ems.alpha = 0.5;
  EMS_RETURN_NOT_OK(ReadKey(job, "alpha", &out->ems.alpha));
  // As in ems_match: without labels, structure is all there is.
  if (out->label_measure == LabelMeasure::kNone) out->ems.alpha = 1.0;
  if (out->ems.alpha < 0.0 || out->ems.alpha > 1.0) {
    return Status::InvalidArgument("alpha must be in [0, 1]");
  }
  EMS_RETURN_NOT_OK(ReadKey(job, "c", &out->ems.c));
  if (out->ems.c <= 0.0 || out->ems.c >= 1.0) {
    return Status::InvalidArgument("c must be in (0, 1)");
  }
  std::string engine = "exact";
  EMS_RETURN_NOT_OK(ReadKey(job, "engine", &engine));
  if (engine == "exact") out->engine = SimilarityEngine::kExact;
  else if (engine == "estimated") out->engine = SimilarityEngine::kEstimated;
  else return Status::InvalidArgument("unknown engine '" + engine + "'");
  EMS_RETURN_NOT_OK(ReadKey(job, "iterations", &out->estimation_iterations));
  if (out->estimation_iterations < 0) {
    return Status::InvalidArgument("iterations must be >= 0");
  }
  EMS_RETURN_NOT_OK(ReadKey(job, "composites", &out->match_composites));
  if (!append) EMS_RETURN_NOT_OK(ReadKey(job, "delta", &out->composite.delta));
  std::string selection = "hungarian";
  EMS_RETURN_NOT_OK(ReadKey(job, "selection", &selection));
  if (selection == "hungarian") {
    out->selection = SelectionStrategy::kMaxTotalSimilarity;
  } else if (selection == "greedy") {
    out->selection = SelectionStrategy::kGreedy;
  } else if (selection == "mutual") {
    out->selection = SelectionStrategy::kMutualBest;
  } else {
    return Status::InvalidArgument("unknown selection '" + selection + "'");
  }
  EMS_RETURN_NOT_OK(ReadKey(job, "min_similarity", &out->min_match_similarity));
  EMS_RETURN_NOT_OK(
      ReadKey(job, "min_edge_frequency", &out->min_edge_frequency));
  // Probabilistic matching (src/prob/): {"prob":true} switches the job
  // to EM posterior selection; the knobs mirror ems_match's --prob-*.
  EMS_RETURN_NOT_OK(ReadKey(job, "prob", &out->prob.enabled));
  EMS_RETURN_NOT_OK(ReadKey(job, "prob_temp", &out->prob.temperature));
  if (out->prob.temperature <= 0.0) {
    return Status::InvalidArgument("prob_temp must be > 0");
  }
  EMS_RETURN_NOT_OK(ReadKey(job, "prob_tol", &out->prob.rtole));
  if (out->prob.rtole <= 0.0) {
    return Status::InvalidArgument("prob_tol must be > 0");
  }
  EMS_RETURN_NOT_OK(ReadKey(job, "prob_iters", &out->prob.max_iterations));
  if (out->prob.max_iterations < 1) {
    return Status::InvalidArgument("prob_iters must be >= 1");
  }
  EMS_RETURN_NOT_OK(
      ReadKey(job, "prob_min_confidence", &out->prob.min_confidence));
  if (out->prob.min_confidence < 0.0 || out->prob.min_confidence > 1.0) {
    return Status::InvalidArgument("prob_min_confidence must be in [0, 1]");
  }
  return Status::OK();
}

void WriteNames(JsonWriter* w, const std::vector<std::string>& names) {
  w->BeginArray();
  for (const std::string& n : names) w->String(n);
  w->EndArray();
}

std::string RenderResult(const std::string& id, const MatchResult& result,
                         double millis) {
  JsonWriter w;
  w.BeginObject();
  w.Key("id");
  w.String(id);
  w.Key("status");
  w.String("ok");
  w.Key("millis");
  w.Number(millis);
  w.Key("correspondences");
  w.BeginArray();
  for (const Correspondence& c : result.correspondences) {
    w.BeginObject();
    w.Key("left");
    WriteNames(&w, c.events1);
    w.Key("right");
    WriteNames(&w, c.events2);
    w.Key("similarity");
    w.Number(c.similarity);
    // Calibrated confidence exists only on prob jobs; omitting the key
    // otherwise keeps non-prob responses byte-identical to older builds.
    if (result.soft.has_value()) {
      w.Key("confidence");
      w.Number(c.confidence);
    }
    w.EndObject();
  }
  w.EndArray();
  w.Key("ems");
  w.BeginObject();
  w.Key("iterations");
  w.Int(result.ems_stats.iterations);
  w.Key("formula_evaluations");
  w.Int(static_cast<long long>(result.ems_stats.formula_evaluations +
                               result.composite_stats.formula_evaluations));
  w.EndObject();
  if (result.soft.has_value()) {
    const prob::EmStats& em = result.soft->stats;
    w.Key("prob");
    w.BeginObject();
    w.Key("iterations");
    w.Int(em.iterations);
    w.Key("converged");
    w.Bool(em.converged);
    w.Key("final_delta");
    w.Number(em.final_delta);
    w.Key("mean_entropy");
    w.Number(em.mean_entropy);
    w.EndObject();
  }
  w.EndObject();
  return w.str();
}

// Service-wide prob.* rollup (the per-job obs context the engine writes
// into is private to the request and discarded with it).
void RecordProbMetrics(ObsContext* obs, const MatchResult& result) {
  if (obs == nullptr || !result.soft.has_value()) return;
  ObsIncrement(obs, "prob.runs");
  ObsIncrement(obs, "prob.iterations",
               static_cast<uint64_t>(result.soft->stats.iterations));
  if (result.soft->stats.converged) ObsIncrement(obs, "prob.converged_runs");
  for (double h : result.soft->row_entropy) {
    ObsObserveQuantile(obs, "prob.posterior_entropy", h);
  }
}

// An append result is a match result plus the streaming report: what the
// batch changed and what the warm start saved.
std::string RenderAppendResult(const std::string& id,
                               const StreamAppendOutcome& outcome,
                               double millis) {
  std::string base = RenderResult(id, outcome.match, millis);
  // Splice the "stream" object before the closing brace of the match
  // rendering, keeping the two renderers from drifting apart.
  base.pop_back();  // '}'
  JsonWriter w;
  w.BeginObject();
  w.Key("appended_traces");
  w.Int(static_cast<long long>(outcome.graph_stats.appended_traces));
  w.Key("total_traces");
  w.Int(static_cast<long long>(outcome.total_traces));
  w.Key("new_events");
  w.Int(static_cast<long long>(outcome.new_events));
  w.Key("new_nodes");
  w.Int(static_cast<long long>(outcome.graph_stats.new_nodes));
  w.Key("added_edges");
  w.Int(static_cast<long long>(outcome.graph_stats.added_edges));
  w.Key("removed_edges");
  w.Int(static_cast<long long>(outcome.graph_stats.removed_edges));
  w.Key("distance_rows_invalidated");
  w.Int(static_cast<long long>(
      outcome.graph_stats.distance_rows_invalidated));
  w.Key("warm");
  w.Bool(outcome.match_stats.warm);
  w.Key("iterations");
  w.Int(outcome.match_stats.iterations);
  w.Key("iterations_saved");
  w.Int(outcome.match_stats.iterations_saved);
  w.Key("session_created");
  w.Bool(outcome.session_created);
  w.Key("resumed_from_store");
  w.Bool(outcome.resumed_from_store);
  w.EndObject();
  return base + ",\"stream\":" + w.str() + "}";
}

// The exact IEEE-754 bits of a score, as a hex string: "score" prints 12
// significant digits, and JSON numbers parse back as double, so a 64-bit
// integer would lose its low bits — a string lets clients compare
// rankings exactly.
std::string ScoreBitsHex(double score) {
  static_assert(sizeof(unsigned long long) == sizeof(double),
                "bit-cast width");
  unsigned long long bits = 0;
  std::memcpy(&bits, &score, sizeof(bits));
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llx", bits);
  return buf;
}

// The one id rule: a string is used as sent, a number as its integer
// text (fraction truncated), anything else — or no id — is empty.
std::string IdOf(const JsonValue& doc) {
  const JsonValue* id = doc.Find("id");
  if (id == nullptr) return "";
  if (id->is_string()) return id->string_value();
  if (!id->is_number()) return "";
  const double v = std::trunc(id->number_value());
  if (std::fabs(v) < 9e18) return std::to_string(static_cast<long long>(v));
  char buf[400];  // %.0f of the largest double: 309 digits
  std::snprintf(buf, sizeof(buf), "%.0f", v);
  return buf;
}

// The `cmd` of a parsed line, or empty when it has none.
std::string AdminCommandOf(const JsonValue& doc) {
  return doc.is_object() ? doc.GetString("cmd", "") : "";
}

Status ParseJob(const JsonValue& doc, JobRequest* request) {
  if (!doc.is_object()) {
    return Status::InvalidArgument("job request must be a JSON object");
  }
  request->id = IdOf(doc);
  EMS_RETURN_NOT_OK(ReadKey(doc, "log1", &request->log1));
  EMS_RETURN_NOT_OK(ReadKey(doc, "log2", &request->log2));
  if (request->log1.empty() || request->log2.empty()) {
    return Status::InvalidArgument("job needs 'log1' and 'log2' paths");
  }
  EMS_RETURN_NOT_OK(ReadKey(doc, "format", &request->format));
  return ParseMatchOptions(doc, /*append=*/false, &request->options);
}

Status ParseAppend(const JsonValue& doc, AppendRequest* request) {
  EMS_RETURN_NOT_OK(ReadKey(doc, "log1", &request->log1));
  EMS_RETURN_NOT_OK(ReadKey(doc, "log2", &request->log2));
  if (request->log1.empty() || request->log2.empty()) {
    return Status::InvalidArgument("append needs 'log1' and 'log2' paths");
  }
  EMS_RETURN_NOT_OK(ReadKey(doc, "format", &request->format));
  EMS_RETURN_NOT_OK(ReadKey(doc, "delta", &request->delta));
  const JsonValue* traces = doc.Find("traces");
  if (traces != nullptr) {
    if (!traces->is_array()) {
      return Status::InvalidArgument(
          "'traces' must be an array of arrays of event names");
    }
    for (const JsonValue& trace : traces->array_items()) {
      if (!trace.is_array()) {
        return Status::InvalidArgument("each appended trace must be an array");
      }
      std::vector<std::string> names;
      names.reserve(trace.array_items().size());
      for (const JsonValue& event : trace.array_items()) {
        if (!event.is_string()) {
          return Status::InvalidArgument("trace events must be strings");
        }
        names.push_back(event.string_value());
      }
      request->traces.push_back(std::move(names));
    }
  }
  return ParseMatchOptions(doc, /*append=*/true, &request->options);
}

Status ParseTopK(const JsonValue& doc, TopKRequest* request) {
  EMS_RETURN_NOT_OK(ReadKey(doc, "query", &request->query));
  if (request->query.empty()) {
    return Status::InvalidArgument("topk request needs a 'query' log path");
  }
  int k = 5;
  EMS_RETURN_NOT_OK(ReadKey(doc, "topk", &k));
  if (k < 0) return Status::InvalidArgument("'topk' must be >= 0");
  request->k = static_cast<size_t>(k);
  const JsonValue* members = doc.Find("members");
  EMS_RETURN_NOT_OK(ReadKey(doc, "corpus", &request->corpus));
  if ((members != nullptr) == !request->corpus.empty()) {
    return Status::InvalidArgument(
        "topk request needs exactly one of 'members' or 'corpus'");
  }
  if (members != nullptr) {
    if (!members->is_array() || members->array_items().empty()) {
      return Status::InvalidArgument(
          "'members' must be a non-empty array of log paths");
    }
    for (const JsonValue& item : members->array_items()) {
      if (!item.is_string() || item.string_value().empty()) {
        return Status::InvalidArgument("'members' entries must be paths");
      }
      request->members.push_back(item.string_value());
    }
  }
  EMS_RETURN_NOT_OK(ReadKey(doc, "format", &request->format));
  EMS_RETURN_NOT_OK(ReadKey(doc, "brute_force", &request->brute_force));
  return ParseMatchOptions(doc, /*append=*/false, &request->options);
}

}  // namespace

Result<JobRequest> ParseJobRequest(const std::string& line) {
  EMS_ASSIGN_OR_RETURN(JsonValue doc, ParseJson(line));
  JobRequest request;
  EMS_RETURN_NOT_OK(ParseJob(doc, &request));
  return request;
}

Request ParseRequest(const std::string& line) {
  Request request;
  Result<JsonValue> doc = ParseJson(line);
  if (!doc.ok()) {
    request.status = doc.status();
    return request;
  }
  request.id = IdOf(*doc);
  const std::string cmd = AdminCommandOf(*doc);
  if (cmd == "append") {
    request.kind = Request::Kind::kAppend;
    request.status = ParseAppend(*doc, &request.append);
  } else if (!cmd.empty()) {
    request.kind = Request::Kind::kAdmin;
    request.cmd = cmd;
  } else if (doc->Find("query") != nullptr) {
    request.kind = Request::Kind::kTopK;
    request.status = ParseTopK(*doc, &request.topk);
  } else {
    request.status = ParseJob(*doc, &request.match);
  }
  return request;
}

std::string RenderError(const std::string& id, const Status& status) {
  JsonWriter w;
  w.BeginObject();
  w.Key("id");
  w.String(id);
  w.Key("status");
  w.String("error");
  w.Key("code");
  w.String(StatusCodeToString(status.code()));
  w.Key("error");
  w.String(status.message());
  w.EndObject();
  return w.str();
}

std::string RenderTopKResult(const std::string& id, size_t k,
                             const TopKAnswer& answer, double millis,
                             int shards) {
  JsonWriter w;
  w.BeginObject();
  w.Key("id");
  w.String(id);
  w.Key("status");
  w.String("ok");
  w.Key("millis");
  w.Number(millis);
  w.Key("k");
  w.Int(static_cast<long long>(k));
  if (shards >= 0) {
    w.Key("shards");
    w.Int(shards);
  }
  w.Key("hits");
  w.BeginArray();
  for (size_t i = 0; i < answer.hits.size(); ++i) {
    const index::TopKHit& hit = answer.hits[i];
    w.BeginObject();
    w.Key("member");
    w.String(hit.name);
    w.Key("rank");
    w.Int(static_cast<long long>(i + 1));
    w.Key("score");
    w.Number(hit.score);
    w.Key("score_bits");
    w.String(ScoreBitsHex(hit.score));
    w.Key("correspondences");
    w.Int(static_cast<long long>(hit.match.correspondences.size()));
    w.EndObject();
  }
  w.EndArray();
  const index::TopKStats& stats = answer.stats;
  w.Key("index");
  w.BeginObject();
  w.Key("candidates_retrieved");
  w.Int(static_cast<long long>(stats.candidates_retrieved));
  w.Key("pruned_by_bound");
  w.Int(static_cast<long long>(stats.pruned_by_bound));
  w.Key("exact_runs");
  w.Int(static_cast<long long>(stats.exact_runs));
  w.Key("aborted_runs");
  w.Int(static_cast<long long>(stats.aborted_runs));
  w.Key("brute_force");
  w.Bool(stats.used_brute_force);
  w.EndObject();
  w.EndObject();
  return w.str();
}

namespace {

std::optional<store::ArtifactStore> OpenStore(const ServiceOptions& options) {
  if (options.cache_dir.empty()) return std::nullopt;
  store::ArtifactStoreOptions store_options;
  store_options.dir = options.cache_dir;
  store_options.max_bytes = options.cache_dir_bytes;
  store_options.obs = options.obs;
  Result<store::ArtifactStore> opened =
      store::ArtifactStore::Open(std::move(store_options));
  if (!opened.ok()) {
    // An unusable cache directory must not take the service down; it
    // just runs cold.
    ObsIncrement(options.obs, "store.open_errors");
    LogWarn("cache directory unusable, serving cold: " +
            opened.status().message());
    return std::nullopt;
  }
  return std::move(opened).value();
}

ServiceOptions WithEffectiveObs(const ServiceOptions& options,
                                ObsContext* owned) {
  ServiceOptions effective = options;
  if (effective.obs == nullptr) effective.obs = owned;
  return effective;
}

}  // namespace

BatchMatchService::BatchMatchService(const ServiceOptions& options)
    : owned_obs_(options.obs == nullptr && options.telemetry
                     ? std::make_unique<ObsContext>()
                     : nullptr),
      options_(WithEffectiveObs(options, owned_obs_.get())),
      pool_(PoolOptions(options_)),
      store_(OpenStore(options_)),
      cache_(options_.cache_capacity, options_.obs, artifact_store(),
             options_.cache_byte_budget),
      stream_sessions_(&cache_, artifact_store(), options_.obs),
      flight_(options_.telemetry
                  ? std::make_unique<FlightRecorder>(
                        options_.flight_slow_capacity,
                        options_.flight_failed_capacity)
                  : nullptr) {}

BatchMatchService::~BatchMatchService() = default;

std::string BatchMatchService::HandleJobLine(const std::string& line) {
  return HandleRequest(ParseRequest(line));
}

std::string BatchMatchService::HandleRequest(Request request) {
  if (request.kind == Request::Kind::kAdmin) {
    return RenderError(request.id,
                       Status::InvalidArgument("admin command '" +
                                               request.cmd +
                                               "' is answered by the router"));
  }
  return RunJob(std::move(request), nullptr);
}

std::string BatchMatchService::QueryTopKShard(Request request,
                                              TopKAnswer* answer) {
  return RunJob(std::move(request), answer);
}

Result<std::shared_ptr<const index::CorpusIndex>>
BatchMatchService::GetOrBuildCorpus(const std::vector<std::string>& members,
                                    const std::string& format,
                                    const MatchOptions& options) {
  index::CorpusLoadOptions load;
  load.format = format;
  load.index.min_edge_frequency = options.min_edge_frequency;
  load.index.obs = options_.obs;
  load.store = artifact_store();

  EMS_ASSIGN_OR_RETURN(store::ArtifactKey key,
                       index::CorpusKeyForFiles(members, load));
  const std::string cache_key = std::to_string(key.content_hash) + "/" +
                                std::to_string(key.fingerprint);
  {
    std::lock_guard<std::mutex> lock(corpus_mu_);
    for (size_t i = 0; i < corpus_cache_.size(); ++i) {
      if (corpus_cache_[i].key != cache_key) continue;
      CorpusCacheEntry hit = corpus_cache_[i];
      corpus_cache_.erase(corpus_cache_.begin() + static_cast<long>(i));
      corpus_cache_.push_back(hit);
      ObsIncrement(options_.obs, "serve.corpus_cache.hits");
      return hit.index;
    }
  }
  ObsIncrement(options_.obs, "serve.corpus_cache.misses");

  // Built outside the lock: concurrent first queries may build twice,
  // which wastes work but never correctness — both builds are identical.
  EMS_ASSIGN_OR_RETURN(index::CorpusIndex built,
                       index::LoadCorpusFromFiles(members, load));
  auto shared =
      std::make_shared<const index::CorpusIndex>(std::move(built));
  {
    std::lock_guard<std::mutex> lock(corpus_mu_);
    corpus_cache_.push_back(CorpusCacheEntry{cache_key, shared});
    if (corpus_cache_.size() > kCorpusCacheCapacity) {
      corpus_cache_.erase(corpus_cache_.begin());
    }
  }
  return shared;
}

struct BatchMatchService::Job {
  const std::string& id;  // what the response carries
  ObsContext* obs;        // the per-job trace; null when telemetry is off
  const Timer& timer;
};

std::string BatchMatchService::RunJob(Request request, TopKAnswer* answer) {
  const Request::Kind kind = request.kind;
  const bool topk = kind == Request::Kind::kTopK;
  const bool append = kind == Request::Kind::kAppend;
  ObsIncrement(options_.obs, "serve.jobs_submitted");
  if (topk) ObsIncrement(options_.obs, "serve.topk_jobs");
  if (append) ObsIncrement(options_.obs, "serve.append_jobs");
  Timer timer;

  // The request id — the client's, even on a line that fails validation,
  // or the router's req-N — goes into the job's span tree and the flight
  // recorder.
  const std::string& request_id = request.id;

  // The per-job trace is private to the request (the shared registry
  // would interleave concurrent jobs); its span snapshot lands in the
  // flight recorder at completion.
  std::unique_ptr<ObsContext> job_obs;
  if (flight_ != nullptr) job_obs = std::make_unique<ObsContext>();
  ScopedSpan request_span(
      job_obs.get(),
      (topk ? "topk:" : append ? "append:" : "request:") + request_id);

  Status failure = request.status;
  std::string response;
  if (failure.ok()) {
    const Job job{request_id, job_obs.get(), timer};
    // An exception escaping a body is answered like any failure: every
    // admitted line gets its response, and the wrapper's bookkeeping
    // (here and in the sharded router) still runs.
    Result<std::string> rendered = [&]() -> Result<std::string> {
      try {
        return topk     ? RunTopK(request.topk, job, answer)
               : append ? RunAppend(request.append, job)
                        : RunMatch(request.match, job);
      } catch (const std::exception& e) {
        return Status::Internal(std::string("unexpected exception: ") +
                                e.what());
      } catch (...) {
        return Status::Internal("unexpected exception");
      }
    }();
    if (rendered.ok()) {
      response = *std::move(rendered);
    } else {
      failure = rendered.status();
    }
  }
  if (!failure.ok()) response = RenderError(request_id, failure);
  request_span.End();

  const double millis = timer.ElapsedMillis();
  const bool ok = failure.ok();
  ObsIncrement(options_.obs, ok ? "serve.jobs_ok" : "serve.jobs_failed");
  // Per-outcome latency quantiles: the stats command's p50/p90/p99.
  ObsObserveQuantile(options_.obs,
                     ok ? "serve.latency_ms.ok" : "serve.latency_ms.error",
                     millis);
  if (flight_ != nullptr) {
    FlightRecord record;
    record.request_id = request_id;
    record.outcome = ok ? "ok" : "error";
    record.error = failure.message();
    record.millis = millis;
    record.spans = job_obs->trace.Snapshot();
    flight_->Record(std::move(record));
  }
  if (!ok && LogEnabled(LogLevel::kInfo)) {
    LogInfo(std::string(topk ? "topk " : append ? "append " : "job ") +
            request_id + " failed: " + failure.message());
  }
  return response;
}

Result<std::string> BatchMatchService::RunMatch(JobRequest& request,
                                                const Job& job) {
  request.options.obs.context = job.obs;
  // A live streaming session covering this pair is authoritative: its
  // in-memory log carries appended traces the on-disk file (and hence
  // the parsed-log cache) never sees. Consulting it FIRST is what
  // keeps an append-then-match sequence from serving a stale parse.
  std::optional<Result<MatchResult>> session_match =
      stream_sessions_.TryMatch(request, job.obs);
  if (session_match.has_value()) {
    if (!session_match->ok()) return session_match->status();
    RecordProbMetrics(options_.obs, **session_match);
    return RenderResult(job.id, **session_match, job.timer.ElapsedMillis());
  }
  const PrepareOptions prepare = PrepareOptionsFor(request.options);
  ScopedSpan load_span(job.obs, "load_logs");
  EMS_ASSIGN_OR_RETURN(
      std::shared_ptr<const PreparedLog> log1,
      cache_.GetOrLoad(request.log1, request.format, prepare));
  EMS_ASSIGN_OR_RETURN(
      std::shared_ptr<const PreparedLog> log2,
      cache_.GetOrLoad(request.log2, request.format, prepare));
  load_span.End();
  // Jobs parallelize across the pool, so each matching runs
  // single-threaded inside its worker (nested ParallelFor on the same
  // pool would degrade to inline execution anyway). A 1:1 match does
  // only the pair's work on the cached graphs and profiles; the
  // composite search builds its own graphs.
  MatchResult result;
  if (request.options.match_composites) {
    EMS_ASSIGN_OR_RETURN(result,
                         Matcher(request.options).Match(log1->log, log2->log));
  } else {
    ScopedSpan match_span(job.obs, "match");
    EMS_ASSIGN_OR_RETURN(
        result, MatchPrepared(request.options, log1->log, log2->log,
                              log1->graph, log2->graph, log1->labels,
                              log2->labels));
  }
  RecordProbMetrics(options_.obs, result);
  return RenderResult(job.id, result, job.timer.ElapsedMillis());
}

Result<std::string> BatchMatchService::RunAppend(AppendRequest& request,
                                                 const Job& job) {
  EMS_ASSIGN_OR_RETURN(StreamAppendOutcome outcome,
                       stream_sessions_.Append(request, job.obs));
  RecordProbMetrics(options_.obs, outcome.match);
  return RenderAppendResult(job.id, outcome, job.timer.ElapsedMillis());
}

Result<std::string> BatchMatchService::RunTopK(TopKRequest& request,
                                               const Job& job,
                                               TopKAnswer* answer) {
  request.options.obs.context = job.obs;
  std::vector<std::string> members = request.members;
  if (!request.corpus.empty()) {
    EMS_ASSIGN_OR_RETURN(members, index::ListCorpusFiles(request.corpus));
  }
  ScopedSpan build_span(job.obs, "build_corpus");
  EMS_ASSIGN_OR_RETURN(
      std::shared_ptr<const index::CorpusIndex> corpus,
      GetOrBuildCorpus(members, request.format, request.options));
  build_span.End();
  EMS_ASSIGN_OR_RETURN(
      std::shared_ptr<const PreparedLog> query,
      cache_.GetOrLoad(request.query, request.format,
                       PrepareOptionsFor(request.options)));
  index::TopKOptions opts;
  opts.k = request.k;
  opts.match = request.options;
  // Candidate evaluations fan out on the service pool; when this job
  // itself runs on a pool worker (as every routed job does) the nested
  // group degrades to serial inside the worker, which is exactly the
  // per-job parallelism budget match jobs get.
  opts.pool = &pool_;
  opts.obs = options_.obs;  // index.* aggregates service-wide
  opts.force_brute_force = request.brute_force;
  index::TopKScheduler scheduler(*corpus, opts);
  TopKAnswer local;
  TopKAnswer& out = answer != nullptr ? *answer : local;
  EMS_ASSIGN_OR_RETURN(out.hits, scheduler.Query(*query));
  out.stats = scheduler.stats();
  if (answer != nullptr) return std::string();  // the router renders
  return RenderTopKResult(job.id, request.k, out, job.timer.ElapsedMillis());
}

}  // namespace serve
}  // namespace ems
