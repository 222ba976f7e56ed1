#include "serve/log_cache.h"

#include <cstdlib>
#include <optional>
#include <utility>

#include "log/log_io.h"
#include "log/mxml.h"
#include "log/xes.h"
#include "obs/context.h"
#include "store/artifact_store.h"
#include "store/hashing.h"
#include "store/snapshot.h"
#include "util/string_util.h"

namespace ems {
namespace serve {

std::string CanonicalPath(const std::string& path) {
  char* resolved = ::realpath(path.c_str(), nullptr);
  if (resolved == nullptr) return path;
  std::string out(resolved);
  std::free(resolved);
  return out;
}

std::string ResolveLogFormat(const std::string& path,
                             const std::string& format) {
  if (format != "auto" && !format.empty()) return format;
  if (EndsWith(path, ".xes")) return "xes";
  if (EndsWith(path, ".mxml")) return "mxml";
  if (EndsWith(path, ".csv")) return "csv";
  return "trace";
}

Result<EventLog> LoadEventLog(const std::string& path,
                              const std::string& format) {
  const std::string fmt = ResolveLogFormat(path, format);
  if (fmt == "xes") return ReadXesFile(path);
  if (fmt == "mxml") return ReadMxmlFile(path);
  if (fmt == "csv") return ReadCsvFile(path);
  if (fmt == "trace") return ReadTraceFile(path);
  return Status::InvalidArgument("unknown format '" + fmt + "'");
}

Result<EventLog> LoadEventLogThroughStore(store::ArtifactStore* store,
                                          const std::string& path,
                                          const std::string& format,
                                          uint64_t* content_hash_out) {
  if (store == nullptr) return LoadEventLog(path, format);
  // An unreadable file falls through to the source parser, whose error
  // message names the format and path.
  Result<uint64_t> hashed = store::HashFile(path);
  if (!hashed.ok()) return LoadEventLog(path, format);
  if (content_hash_out != nullptr) *content_hash_out = hashed.value();
  const std::string fmt = ResolveLogFormat(path, format);
  const store::ArtifactKey key{store::ArtifactKind::kEventLog, hashed.value(),
                               store::LogFingerprint(fmt)};
  if (std::optional<std::string> snapshot = store->Load(key)) {
    Result<EventLog> decoded = store::DecodeEventLog(*snapshot);
    if (decoded.ok()) return decoded;
    // The envelope verified but the payload didn't decode (a logic-level
    // inconsistency): count the re-derive like any other fallback.
    ObsIncrement(store->obs(), "store.fallback_rederives");
  }
  EMS_ASSIGN_OR_RETURN(EventLog log, LoadEventLog(path, format));
  store->Store(key, store::EncodeEventLog(log));
  return log;
}

namespace {

// Estimated resident bytes of a prepared log: the log as its snapshot,
// the graph's nodes (name, frequency, members, both distances) and edges
// (id and frequency in both adjacency directions), and the label parts
// and q-grams.
uint64_t EstimatePreparedBytes(const PreparedLog& prepared) {
  uint64_t bytes = store::EstimateLogSnapshotBytes(prepared.log);
  const DependencyGraph& g = prepared.graph;
  for (NodeId v = 0; v < static_cast<NodeId>(g.NumNodes()); ++v) {
    bytes += g.NodeName(v).size() + 8 + 4 * g.Members(v).size() + 8;
  }
  bytes += 24 * g.NumEdges();
  const LabelProfiles& labels = prepared.labels;
  const uint64_t gram_bytes = static_cast<uint64_t>(labels.qgram_q()) + 4;
  for (size_t i = 0; i < labels.size(); ++i) {
    for (const std::string& part : labels.parts(i)) bytes += part.size();
    for (const QGramProfile& profile : labels.qgrams(i)) {
      bytes += gram_bytes * profile.DistinctGrams();
    }
  }
  return bytes;
}

// The cache key of `prepare`: every field PrepareLog reads.
uint64_t PrepareFingerprint(const PrepareOptions& prepare) {
  return store::FingerprintBuilder()
      .Add("add_artificial_event", prepare.graph.add_artificial_event)
      .Add("min_edge_frequency", prepare.graph.min_edge_frequency)
      .Add("qgram_q", static_cast<uint64_t>(prepare.qgram_q))
      .Finish();
}

}  // namespace

LogCache::LogCache(size_t capacity, ObsContext* obs,
                   store::ArtifactStore* store, uint64_t max_cost_bytes)
    : cache_(capacity, max_cost_bytes), obs_(obs), store_(store) {}

Result<std::shared_ptr<const PreparedLog>> LogCache::GetOrLoad(
    const std::string& path, const std::string& format,
    const PrepareOptions& prepare, uint64_t* content_hash_out) {
  // Hash the file on every lookup: a rewritten file gets a fresh key, so
  // no job is ever answered with a stale parse. An unreadable file (one
  // missing, a directory) is a miss that caches nothing.
  const Result<uint64_t> hashed = store::HashFile(path);
  if (!hashed.ok()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++misses_;
    }
    ObsIncrement(obs_, "serve.cache.misses");
    return hashed.status();
  }
  if (content_hash_out != nullptr) *content_hash_out = hashed.value();
  const std::string key = CanonicalPath(path) + "|" +
                          ResolveLogFormat(path, format) + "|" +
                          store::HashHex(hashed.value()) + "|" +
                          store::HashHex(PrepareFingerprint(prepare));

  std::optional<std::shared_ptr<const PreparedLog>> hit;
  std::shared_future<Loaded> pending;
  std::optional<std::promise<Loaded>> leader;
  {
    std::lock_guard<std::mutex> lock(mu_);
    hit = cache_.Get(key);
    if (!hit) {
      auto it = loading_.find(key);
      if (it != loading_.end()) {
        pending = it->second;
      } else {
        leader.emplace();
        loading_.emplace(key, leader->get_future().share());
      }
    }
    if (leader) {
      ++misses_;
    } else {
      ++hits_;
    }
  }
  if (!leader) {
    ObsIncrement(obs_, "serve.cache.hits");
    return hit ? Loaded(*hit) : pending.get();
  }
  ObsIncrement(obs_, "serve.cache.misses");

  // The first miss on this key: load and prepare outside the lock.
  const Loaded loaded = [&]() -> Loaded {
    EMS_ASSIGN_OR_RETURN(EventLog log,
                         LoadEventLogThroughStore(store_, path, format));
    auto shared = std::make_shared<const PreparedLog>(
        PrepareLog(std::move(log), prepare));
    // Cached before the in-flight entry goes, so a caller arriving in
    // between finds one or the other.
    cache_.Put(key, shared, EstimatePreparedBytes(*shared));
    ObsSetGauge(obs_, "serve.cache_bytes",
                static_cast<double>(cache_.cost_bytes()));
    return shared;
  }();
  {
    std::lock_guard<std::mutex> lock(mu_);
    loading_.erase(key);
  }
  leader->set_value(loaded);
  return loaded;
}

uint64_t LogCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

uint64_t LogCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

}  // namespace serve
}  // namespace ems
