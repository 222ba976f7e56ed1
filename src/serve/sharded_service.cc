#include "serve/sharded_service.h"

#include <algorithm>
#include <future>
#include <map>
#include <unordered_map>
#include <utility>

#include "index/corpus_io.h"
#include "obs/context.h"
#include "serve/log_cache.h"
#include "util/json_writer.h"
#include "util/log.h"

namespace ems {
namespace serve {

namespace {

// An admission refusal: "overloaded" once a shard's inflight budget is
// spent, "draining" after Drain(). `shard` < 0 leaves the shard out (a
// draining top-k fan-out has none).
std::string RenderRefusal(const std::string& id, bool overloaded, int shard,
                          size_t max_inflight) {
  JsonWriter w;
  w.BeginObject();
  w.Key("id");
  w.String(id);
  w.Key("status");
  w.String(overloaded ? "overloaded" : "draining");
  if (shard >= 0) {
    w.Key("shard");
    w.Int(shard);
  }
  w.Key("error");
  w.String(overloaded ? "shard " + std::to_string(shard) +
                            " at admission capacity (" +
                            std::to_string(max_inflight) + " jobs in flight)"
                      : "service is draining; resubmit elsewhere");
  w.EndObject();
  return w.str();
}

}  // namespace

// One worker shard: a full BatchMatchService slice plus the router-side
// admission state and pre-resolved per-shard instruments.
struct ShardedMatchService::Shard {
  int index = 0;
  std::unique_ptr<BatchMatchService> service;
  std::atomic<int64_t> inflight{0};
  size_t max_inflight = 0;

  // serve.shard.<i>.* instruments; null when telemetry is off.
  Counter* routed = nullptr;
  Counter* rejected_overloaded = nullptr;
  Counter* rejected_draining = nullptr;
  Gauge* inflight_gauge = nullptr;
  Gauge* queue_depth_gauge = nullptr;
};

ShardedMatchService::ShardedMatchService(const ShardedServiceOptions& options)
    : owned_obs_(options.obs == nullptr && options.telemetry
                     ? std::make_unique<ObsContext>()
                     : nullptr),
      options_([&] {
        ShardedServiceOptions effective = options;
        if (effective.num_shards < 1) effective.num_shards = 1;
        if (effective.obs == nullptr) effective.obs = owned_obs_.get();
        return effective;
      }()),
      ring_(net::HashRingOptions{options_.num_shards,
                                 options_.vnodes_per_shard}) {
  const int total =
      exec::ThreadPool::EffectiveThreads(options_.total_threads);
  const int per_shard = std::max(1, total / options_.num_shards);
  shards_.reserve(static_cast<size_t>(options_.num_shards));
  for (int i = 0; i < options_.num_shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->index = i;

    ServiceOptions shard_options;
    shard_options.threads = per_shard;
    shard_options.queue_capacity = options_.shard_queue_capacity;
    shard_options.cache_capacity = options_.cache_capacity;
    shard_options.cache_byte_budget = options_.cache_byte_budget;
    if (!options_.cache_dir.empty()) {
      // Consistent placement makes disk caches shard-local: the keys a
      // shard serves are the keys whose snapshots live in its directory,
      // and a resize only re-derives the ~1/N that actually moved.
      shard_options.cache_dir =
          options_.cache_dir + "/shard-" + std::to_string(i);
    }
    shard_options.cache_dir_bytes = options_.cache_dir_bytes;
    shard_options.obs = options_.obs;  // shared: serve.* totals aggregate
    shard_options.telemetry = options_.telemetry;
    shard_options.flight_slow_capacity = options_.flight_slow_capacity;
    shard_options.flight_failed_capacity = options_.flight_failed_capacity;
    shard->service = std::make_unique<BatchMatchService>(shard_options);

    shard->max_inflight =
        options_.max_inflight_per_shard != 0
            ? options_.max_inflight_per_shard
            : options_.shard_queue_capacity + static_cast<size_t>(per_shard);
    if (options_.obs != nullptr) {
      MetricsRegistry& metrics = options_.obs->metrics;
      shard->routed =
          metrics.GetCounter(ShardMetricName("serve.shard", i, "routed"));
      shard->rejected_overloaded = metrics.GetCounter(
          ShardMetricName("serve.shard", i, "rejected_overloaded"));
      shard->rejected_draining = metrics.GetCounter(
          ShardMetricName("serve.shard", i, "rejected_draining"));
      shard->inflight_gauge =
          metrics.GetGauge(ShardMetricName("serve.shard", i, "inflight"));
      shard->queue_depth_gauge =
          metrics.GetGauge(ShardMetricName("serve.shard", i, "queue_depth"));
    }
    shards_.push_back(std::move(shard));
  }
}

ShardedMatchService::~ShardedMatchService() {
  Drain();
  WaitDrained();
}

BatchMatchService& ShardedMatchService::shard_service(int i) {
  return *shards_[static_cast<size_t>(i)]->service;
}

int64_t ShardedMatchService::shard_inflight(int i) const {
  return shards_[static_cast<size_t>(i)]->inflight.load(
      std::memory_order_relaxed);
}

int ShardedMatchService::ShardForPath(const std::string& path) const {
  return ring_.ShardFor(CanonicalPath(path));
}

void ShardedMatchService::HandleLine(const std::string& line,
                                     net::EmitFn emit) {
  Route(line, std::move(emit), /*wait=*/false);
}

net::LinesServed ShardedMatchService::RunStream(int in_fd, int out_fd) {
  return net::ServeLines(
      in_fd, out_fd,
      [this](const std::string& line, net::EmitFn emit) {
        Route(line, std::move(emit), /*wait=*/true);
      },
      options_.obs);
}

void ShardedMatchService::Route(const std::string& line, net::EmitFn emit,
                                bool wait) {
  Request request = ParseRequest(line);
  if (request.kind == Request::Kind::kAdmin) {
    emit(HandleAdmin(request.cmd, request.id));
    return;
  }
  // One sequence for the whole router, drawn before routing: ids never
  // collide across shards, and a refusal carries the id too.
  if (request.id.empty()) {
    request.id = "req-" + std::to_string(next_request_seq_.fetch_add(
                              1, std::memory_order_relaxed));
  }
  if (!request.status.ok()) {
    // Unroutable — bytes that are not JSON, or a job without its logs or
    // with bad options: answered by shard 0's job wrapper, so malformed
    // input gets the job error shape and counters. A listener answers it
    // inline; the pipe queues it on shard 0 to keep the input order.
    if (request.status.IsParseError()) {
      ObsIncrement(options_.obs, "net.protocol_errors");
    }
    if (!wait) {
      emit(shards_[0]->service->HandleRequest(std::move(request)));
      return;
    }
  } else if (request.kind == Request::Kind::kTopK) {
    HandleTopK(std::move(request), emit, wait);
    return;
  }
  // Appends route like matches, by the canonical path of log1 — the same
  // shard every match for that pair routes to, which is what keeps each
  // streaming session on exactly one shard.
  const std::string& log1 = request.kind == Request::Kind::kAppend
                                ? request.append.log1
                                : request.match.log1;
  Shard& shard = request.status.ok()
                     ? *shards_[ring_.ShardFor(CanonicalPath(log1))]
                     : *shards_[0];
  if (shard.routed != nullptr) shard.routed->Increment();
  if (draining()) {
    if (shard.rejected_draining != nullptr) {
      shard.rejected_draining->Increment();
    }
    ObsIncrement(options_.obs, "net.jobs_rejected_draining");
    emit(RenderRefusal(request.id, false, shard.index, shard.max_inflight));
    return;
  }

  // Admission control at the boundary: a bounded inflight budget per
  // shard. A listener sheds with an explicit response instead of
  // buffering; the pipe waits for a slot and then for queue room.
  const std::string id = request.id;
  auto job = [this, &shard, request = std::move(request), emit]() mutable {
    emit(shard.service->HandleRequest(std::move(request)));
    FinishShardJob(shard);
  };
  if (Reserve({&shard}, wait) != nullptr) {
    emit(Shed(shard, id));
    return;
  }
  if (wait) {
    shard.service->pool().Submit(std::move(job));
  } else if (!shard.service->pool().TrySubmit(std::move(job))) {
    FinishShardJob(shard);
    emit(Shed(shard, id));
    return;
  }
  if (shard.inflight_gauge != nullptr) {
    shard.inflight_gauge->Set(static_cast<double>(
        shard.inflight.load(std::memory_order_relaxed)));
  }
  if (shard.queue_depth_gauge != nullptr) {
    shard.queue_depth_gauge->Set(
        static_cast<double>(shard.service->pool().QueueDepth()));
  }
}

ShardedMatchService::Shard* ShardedMatchService::Reserve(
    const std::vector<Shard*>& shards, bool wait) {
  auto full = [](const Shard* shard) {
    return shard->inflight.load(std::memory_order_acquire) >=
           static_cast<int64_t>(shard->max_inflight);
  };
  if (wait) {
    std::unique_lock<std::mutex> lock(drain_mu_);
    drain_cv_.wait(lock, [&] {
      return std::none_of(shards.begin(), shards.end(), full);
    });
    for (Shard* shard : shards) {
      shard->inflight.fetch_add(1, std::memory_order_acq_rel);
    }
    return nullptr;
  }
  for (size_t i = 0; i < shards.size(); ++i) {
    const int64_t admitted =
        shards[i]->inflight.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (admitted <= static_cast<int64_t>(shards[i]->max_inflight)) continue;
    for (size_t j = 0; j <= i; ++j) FinishShardJob(*shards[j]);
    return shards[i];
  }
  return nullptr;
}

std::string ShardedMatchService::Shed(Shard& shard, const std::string& id) {
  if (shard.rejected_overloaded != nullptr) {
    shard.rejected_overloaded->Increment();
  }
  ObsIncrement(options_.obs, "net.jobs_rejected_overloaded");
  return RenderRefusal(id, true, shard.index, shard.max_inflight);
}

// Releases one admission slot — a finished job's, or a reservation that
// was refused — and wakes the pipe and WaitDrained.
void ShardedMatchService::FinishShardJob(Shard& shard) {
  if (shard.queue_depth_gauge != nullptr) {
    shard.queue_depth_gauge->Set(
        static_cast<double>(shard.service->pool().QueueDepth()));
  }
  // Decrement and wake under the drain mutex: once WaitDrained sees zero
  // in flight the destructor frees the mutex and the condition variable,
  // so nothing here may touch them after the unlock.
  std::lock_guard<std::mutex> lock(drain_mu_);
  const int64_t now =
      shard.inflight.fetch_sub(1, std::memory_order_acq_rel) - 1;
  if (shard.inflight_gauge != nullptr) {
    shard.inflight_gauge->Set(static_cast<double>(now));
  }
  drain_cv_.notify_all();
}

// Shared state of one fanned-out top-k query: per-shard answers land in
// their slot; the last completion merges and emits.
struct ShardedMatchService::TopKAggregate {
  std::mutex mu;
  size_t remaining = 0;
  std::vector<TopKAnswer> answers;  // one slot per involved shard
  std::vector<std::string> errors;  // a failed shard's error response
  std::string id;
  size_t k = 5;
  // Member path -> position in the resolved full member list: the merge
  // tie-breaker that reproduces the single service's index order.
  std::unordered_map<std::string, size_t> global_index;
  net::EmitFn emit;
  Timer timer;
};

void ShardedMatchService::HandleTopK(Request request,
                                     const net::EmitFn& emit, bool wait) {
  // Resolve the full member list router-side: both the partition and the
  // merge tie-break need the same order the single service would use.
  TopKRequest& topk = request.topk;
  if (!topk.corpus.empty()) {
    Result<std::vector<std::string>> listed =
        index::ListCorpusFiles(topk.corpus);
    if (!listed.ok()) {
      emit(RenderError(request.id, listed.status()));
      return;
    }
    topk.members = *std::move(listed);
    topk.corpus.clear();
  }

  if (draining()) {
    ObsIncrement(options_.obs, "net.jobs_rejected_draining");
    emit(RenderRefusal(request.id, false, -1, 0));
    return;
  }

  std::vector<std::vector<std::string>> shard_members(shards_.size());
  auto aggregate = std::make_shared<TopKAggregate>();
  aggregate->id = request.id;
  aggregate->k = topk.k;
  aggregate->emit = emit;
  for (size_t g = 0; g < topk.members.size(); ++g) {
    aggregate->global_index.emplace(topk.members[g], g);
    const int s = ring_.ShardFor(CanonicalPath(topk.members[g]));
    shard_members[static_cast<size_t>(s)].push_back(topk.members[g]);
  }
  std::vector<Shard*> involved;
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (shard_members[s].empty()) continue;
    involved.push_back(shards_[s].get());
    if (shards_[s]->routed != nullptr) shards_[s]->routed->Increment();
  }

  // All-or-nothing admission: a partially admitted fan-out would hold
  // slots while unable to answer.
  if (Shard* full = Reserve(involved, wait)) {
    emit(Shed(*full, request.id));
    return;
  }

  aggregate->remaining = involved.size();
  aggregate->answers.resize(involved.size());
  aggregate->errors.resize(involved.size());
  for (size_t i = 0; i < involved.size(); ++i) {
    Shard* shard = involved[i];
    // Each shard gets the typed request — every option included — over
    // its own member subset.
    Request sub = request;
    sub.topk.members =
        std::move(shard_members[static_cast<size_t>(shard->index)]);
    // The last shard to answer merges and emits before releasing its
    // slot, so WaitDrained also waits for the merged response.
    auto run = [this, shard, aggregate, i, sub]() {
      TopKAnswer answer;
      std::string error = shard->service->QueryTopKShard(sub, &answer);
      bool last = false;
      {
        std::lock_guard<std::mutex> lock(aggregate->mu);
        aggregate->answers[i] = std::move(answer);
        aggregate->errors[i] = std::move(error);
        last = --aggregate->remaining == 0;
      }
      if (last) aggregate->emit(MergeTopK(aggregate.get()));
      FinishShardJob(*shard);
    };
    // The slot is reserved; a full task queue degrades to running the
    // sub-query on this thread instead of shedding the whole fan-out.
    if (!shard->service->pool().TrySubmit(run)) run();
  }
}

std::string ShardedMatchService::MergeTopK(TopKAggregate* aggregate) {
  TopKAnswer merged;
  for (size_t i = 0; i < aggregate->answers.size(); ++i) {
    // A failed shard fails the query; its rendered error already carries
    // the request id and status code.
    if (!aggregate->errors[i].empty()) return aggregate->errors[i];
    TopKAnswer& answer = aggregate->answers[i];
    index::TopKStats& stats = merged.stats;
    stats.candidates_retrieved += answer.stats.candidates_retrieved;
    stats.pruned_by_bound += answer.stats.pruned_by_bound;
    stats.exact_runs += answer.stats.exact_runs;
    stats.aborted_runs += answer.stats.aborted_runs;
    stats.used_brute_force =
        stats.used_brute_force || answer.stats.used_brute_force;
    for (index::TopKHit& hit : answer.hits) {
      auto g = aggregate->global_index.find(hit.name);
      hit.member_index = g != aggregate->global_index.end()
                             ? g->second
                             : aggregate->global_index.size();
      merged.hits.push_back(std::move(hit));
    }
  }
  // (score desc, global member order): the single service's ranking.
  std::sort(merged.hits.begin(), merged.hits.end(),
            [](const index::TopKHit& a, const index::TopKHit& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.member_index < b.member_index;
            });
  if (merged.hits.size() > aggregate->k) merged.hits.resize(aggregate->k);
  return RenderTopKResult(aggregate->id, aggregate->k, merged,
                          aggregate->timer.ElapsedMillis(),
                          static_cast<int>(aggregate->answers.size()));
}

std::string ShardedMatchService::HandleLineSync(const std::string& line) {
  std::promise<std::string> done;
  std::future<std::string> response = done.get_future();
  HandleLine(line,
             [&done](const std::string& result) { done.set_value(result); });
  return response.get();
}

void ShardedMatchService::Drain() {
  draining_.store(true, std::memory_order_release);
}

void ShardedMatchService::WaitDrained() {
  std::unique_lock<std::mutex> lock(drain_mu_);
  drain_cv_.wait(lock, [this] {
    for (const auto& shard : shards_) {
      if (shard->inflight.load(std::memory_order_acquire) != 0) return false;
    }
    return true;
  });
}

std::string ShardedMatchService::HandleAdmin(const std::string& cmd,
                                             const std::string& id) {
  ObsIncrement(options_.obs, "serve.admin_commands");
  if (cmd == "stats") return RenderStats(id);
  if (cmd == "health") return RenderHealth(id);
  if (cmd == "slow") return RenderSlow(id);
  if (cmd == "drain") return RenderDrainAck(id);
  return RenderError(
      id, Status::InvalidArgument("unknown cmd '" + cmd +
                                  "' (stats|health|slow|drain)"));
}

std::string ShardedMatchService::RenderDrainAck(const std::string& id) {
  LogInfo("drain requested via admin command");
  Drain();
  // The transport stops accepting while the router stops admitting; the
  // callback fires once even if drain is commanded repeatedly.
  bool expected = false;
  if (drain_callback_fired_.compare_exchange_strong(expected, true) &&
      drain_callback_) {
    drain_callback_();
  }
  JsonWriter w;
  w.BeginObject();
  w.Key("id");
  w.String(id);
  w.Key("status");
  w.String("ok");
  w.Key("cmd");
  w.String("drain");
  w.Key("draining");
  w.Bool(true);
  w.EndObject();
  return w.str();
}

std::string ShardedMatchService::RenderStats(const std::string& id) {
  JsonWriter w;
  w.BeginObject();
  w.Key("id");
  w.String(id);
  w.Key("status");
  w.String("ok");
  w.Key("cmd");
  w.String("stats");
  w.Key("uptime_seconds");
  w.Number(uptime_.ElapsedSeconds());
  if (options_.obs != nullptr) {
    // The snapshot, and the counter rates since the previous stats call.
    MetricsSnapshot snapshot = CaptureMetricsSnapshot(options_.obs->metrics);
    std::map<std::string, double> rates;
    double interval = 0.0;
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      if (last_stats_.has_value()) {
        rates = DiffRates(*last_stats_, snapshot);
        interval = snapshot.at_seconds - last_stats_->at_seconds;
      }
      last_stats_ = snapshot;
    }
    w.Key("snapshot");
    snapshot.WriteJson(&w);
    w.Key("interval_seconds");
    w.Number(interval);
    w.Key("rates");
    w.BeginObject();
    for (const auto& [name, rate] : rates) {
      w.Key(name);
      w.Number(rate);
    }
    w.EndObject();
  }
  w.Key("router");
  w.BeginObject();
  w.Key("num_shards");
  w.Int(ring_.num_shards());
  w.Key("vnodes_per_shard");
  w.Int(ring_.vnodes_per_shard());
  w.Key("draining");
  w.Bool(draining());
  w.EndObject();
  w.Key("shards");
  w.BeginArray();
  for (const auto& shard : shards_) {
    BatchMatchService& service = *shard->service;
    w.BeginObject();
    w.Key("shard");
    w.Int(shard->index);
    w.Key("routed");
    w.Int(static_cast<long long>(
        shard->routed != nullptr ? shard->routed->value() : 0));
    w.Key("rejected_overloaded");
    w.Int(static_cast<long long>(shard->rejected_overloaded != nullptr
                                     ? shard->rejected_overloaded->value()
                                     : 0));
    w.Key("inflight");
    w.Int(shard->inflight.load(std::memory_order_relaxed));
    w.Key("max_inflight");
    w.Int(static_cast<long long>(shard->max_inflight));
    w.Key("queue_depth");
    w.Int(static_cast<long long>(service.pool().QueueDepth()));
    w.Key("queue_capacity");
    w.Int(static_cast<long long>(service.pool().QueueCapacity()));
    w.Key("threads");
    w.Int(service.pool().num_threads());
    w.Key("cache");
    w.BeginObject();
    w.Key("entries");
    w.Int(static_cast<long long>(service.cache().size()));
    w.Key("bytes");
    w.Int(static_cast<long long>(service.cache().cost_bytes()));
    w.Key("hits");
    w.Int(static_cast<long long>(service.cache().hits()));
    w.Key("misses");
    w.Int(static_cast<long long>(service.cache().misses()));
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

std::string ShardedMatchService::RenderHealth(const std::string& id) {
  int64_t total_inflight = 0;
  for (const auto& shard : shards_) {
    total_inflight += shard->inflight.load(std::memory_order_relaxed);
  }
  JsonWriter w;
  w.BeginObject();
  w.Key("id");
  w.String(id);
  w.Key("status");
  w.String("ok");
  w.Key("cmd");
  w.String("health");
  w.Key("healthy");
  w.Bool(!draining());
  w.Key("draining");
  w.Bool(draining());
  w.Key("uptime_seconds");
  w.Number(uptime_.ElapsedSeconds());
  w.Key("num_shards");
  w.Int(ring_.num_shards());
  w.Key("jobs_in_flight");
  w.Int(total_inflight);
  w.Key("shards");
  w.BeginArray();
  for (const auto& shard : shards_) {
    w.BeginObject();
    w.Key("shard");
    w.Int(shard->index);
    w.Key("inflight");
    w.Int(shard->inflight.load(std::memory_order_relaxed));
    w.Key("queue_depth");
    w.Int(static_cast<long long>(shard->service->pool().QueueDepth()));
    w.Key("queue_capacity");
    w.Int(static_cast<long long>(shard->service->pool().QueueCapacity()));
    w.Key("threads");
    w.Int(shard->service->pool().num_threads());
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

std::string ShardedMatchService::RenderSlow(const std::string& id) {
  JsonWriter w;
  w.BeginObject();
  w.Key("id");
  w.String(id);
  w.Key("status");
  w.String("ok");
  w.Key("cmd");
  w.String("slow");
  w.Key("shards");
  w.BeginArray();
  for (const auto& shard : shards_) {
    w.BeginObject();
    w.Key("shard");
    w.Int(shard->index);
    w.Key("flight_recorder");
    if (shard->service->flight_recorder() != nullptr) {
      shard->service->flight_recorder()->WriteJson(&w);
    } else {
      w.Null();
    }
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

}  // namespace serve
}  // namespace ems
