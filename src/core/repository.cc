#include "core/repository.h"

#include <utility>

#include "index/topk_scheduler.h"

namespace ems {

namespace {

index::CorpusIndexOptions IndexOptionsFor(const MatchOptions& options) {
  index::CorpusIndexOptions opts;
  opts.min_edge_frequency = options.min_edge_frequency;
  opts.obs = options.obs.context;
  return opts;
}

}  // namespace

LogRepository::LogRepository(const MatchOptions& options)
    : options_(options), index_(IndexOptionsFor(options)) {}

Status LogRepository::Add(const std::string& name, EventLog log) {
  return index_.Add(name, std::move(log));
}

Status LogRepository::Remove(const std::string& name) {
  return index_.Remove(name);
}

std::vector<std::string> LogRepository::Names() const {
  std::vector<std::string> names;
  names.reserve(index_.size());
  for (size_t i = 0; i < index_.size(); ++i) {
    names.push_back(index_.entry(i).name);
  }
  return names;
}

Result<const EventLog*> LogRepository::Get(const std::string& name) const {
  const int i = index_.FindIndex(name);
  if (i < 0) return Status::NotFound("no repository entry '" + name + "'");
  return &index_.entry(static_cast<size_t>(i)).prepared.log;
}

Result<std::vector<RepositoryHit>> LogRepository::Query(
    const EventLog& query, size_t top_k, exec::ThreadPool* pool) const {
  return RunQuery(query, top_k, pool, /*brute_force=*/false);
}

Result<std::vector<RepositoryHit>> LogRepository::QueryBruteForce(
    const EventLog& query, size_t top_k, exec::ThreadPool* pool) const {
  return RunQuery(query, top_k, pool, /*brute_force=*/true);
}

Result<std::vector<RepositoryHit>> LogRepository::RunQuery(
    const EventLog& query, size_t top_k, exec::ThreadPool* pool,
    bool brute_force) const {
  index::TopKOptions opts;
  opts.k = top_k;
  opts.match = options_;
  opts.pool = pool;
  opts.force_brute_force = brute_force;
  index::TopKScheduler scheduler(index_, opts);
  EMS_ASSIGN_OR_RETURN(
      std::vector<index::TopKHit> top,
      scheduler.Query(PrepareLog(query, PrepareOptionsFor(options_))));
  std::vector<RepositoryHit> hits;
  hits.reserve(top.size());
  for (index::TopKHit& hit : top) {
    RepositoryHit out;
    out.name = std::move(hit.name);
    out.score = hit.score;
    out.match = std::move(hit.match);
    hits.push_back(std::move(out));
  }
  return hits;
}

}  // namespace ems
