// Sharded matching service: the router that turns N independent
// BatchMatchService workers into one deployment, and the one front end
// of ems_serve in every mode (docs/SERVING.md). The router
// consistent-hashes the canonical path of each job's first log onto a
// shard (net::HashRing, so resizing N remaps only ~1/N of keys and
// per-shard caches stay warm), applies admission control at the
// boundary — a bounded per-shard inflight budget on top of each shard
// pool's bounded queue — and hands admitted jobs to the shard's own
// ThreadPool / LogCache / ArtifactStore slice. Two transports feed it
// through one line loop (net::ServeLines) and differ only in admission:
// a listener (net::TcpServer) calls HandleLine, which sheds a job whose
// shard is at its cap with an explicit `overloaded` response; the stdin
// pipe runs RunStream, which waits for a slot instead.
//
// Each shard is a full BatchMatchService: its own pool, its own parsed-
// log LRU, its own artifact-store directory (`<cache_dir>/shard-<i>`),
// its own flight recorder. All shards report into one shared ObsContext
// so serve.* totals aggregate, and the router adds per-shard
// serve.shard.<i>.* instruments for balance monitoring.
//
// Every line is parsed once (serve::ParseRequest), and an id-less line
// draws its `req-N` from one router-wide sequence before it is routed;
// shards receive the typed request, never a re-serialized line. Top-k
// corpus queries (the `query`-keyed lines of docs/CORPUS.md) fan out
// instead of routing to one shard: the router partitions the member list
// by each member's consistent-hash owner, reserves admission on every
// involved shard (all-or-nothing), hands each shard a copy of the query
// over its member subset, and merges the typed per-shard hits by (score
// desc, global member order) — the exact doubles, so the merged ranking
// is the ranking one service would have produced over the whole corpus.
//
// Admin commands (stats/health/slow/drain) are rendered here only and
// answered inline with aggregated documents plus a "shards" breakdown;
// `drain` (and SIGTERM on a listener) flips the router into draining
// mode: every subsequent job line is rejected with status "draining"
// (still answered), admitted jobs run to completion, and WaitDrained()
// returns once the last one finished.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "net/hash_ring.h"
#include "net/tcp_server.h"
#include "obs/metrics_snapshot.h"
#include "serve/service.h"
#include "util/timer.h"

namespace ems {
namespace serve {

/// Sharded deployment configuration.
struct ShardedServiceOptions {
  /// Worker shards. Each owns a disjoint slice of the log corpus.
  int num_shards = 4;

  /// Ring points per shard (net::HashRingOptions).
  int vnodes_per_shard = 64;

  /// Total worker threads across all shards; 0 = hardware concurrency.
  /// Each shard gets max(1, total / num_shards).
  int total_threads = 0;

  /// Bounded task-queue capacity of each shard's pool.
  size_t shard_queue_capacity = 64;

  /// Admission cap: jobs admitted (queued or running) per shard. Beyond
  /// it the router sheds with an `overloaded` response. 0 derives
  /// threads-per-shard + shard_queue_capacity.
  size_t max_inflight_per_shard = 0;

  /// Per-shard parsed-log LRU capacity / byte budget (serve::LogCache).
  size_t cache_capacity = 64;
  size_t cache_byte_budget = 0;

  /// Artifact-store root; shard i persists under `<dir>/shard-<i>` so
  /// consistent placement keeps disk caches shard-local. Empty disables.
  std::string cache_dir;
  uint64_t cache_dir_bytes = 0;

  /// Shared metrics/trace sink (borrowed). Null + telemetry=true makes
  /// the router own one, shared by every shard.
  ObsContext* obs = nullptr;
  bool telemetry = true;

  /// Per-shard flight-recorder retention.
  size_t flight_slow_capacity = 16;
  size_t flight_failed_capacity = 16;
};

/// \brief Consistent-hash router over N in-process worker shards.
///
/// Implements net::LineHandler, so a net::TcpServer can plug it in
/// directly; RunStream serves a pipe, and HandleLineSync tests and other
/// in-process callers.
class ShardedMatchService : public net::LineHandler {
 public:
  explicit ShardedMatchService(const ShardedServiceOptions& options);
  ~ShardedMatchService() override;

  ShardedMatchService(const ShardedMatchService&) = delete;
  ShardedMatchService& operator=(const ShardedMatchService&) = delete;

  /// Routes one request line from a listener. `emit` fires exactly once:
  /// inline for admin commands, rejections, and malformed lines; from the
  /// owning shard's pool for admitted jobs. A job whose shard is at its
  /// admission cap is shed.
  void HandleLine(const std::string& line, net::EmitFn emit) override;

  /// Serves NDJSON lines from `in_fd` until EOF, writing one response
  /// line per request line to `out_fd` in completion order, and returns
  /// once every line was answered. Admin lines answer inline. Unlike
  /// HandleLine, a job whose shard is at its cap waits for a slot, and
  /// a malformed line is answered in its place in shard 0's queue; a
  /// pipe is never shed. A line past net::kMaxLineBytes is answered
  /// with `too_large` and ends the input. The descriptors stay open.
  net::LinesServed RunStream(int in_fd, int out_fd);

  /// Blocking convenience: HandleLine and return the response.
  std::string HandleLineSync(const std::string& line);

  /// The shard owning `path` (canonicalized internally, same derivation
  /// as routing: consistent hash of the canonical path of log1).
  int ShardForPath(const std::string& path) const;

  int num_shards() const { return ring_.num_shards(); }

  /// The effective shared telemetry context (owned or borrowed).
  ObsContext* obs() { return options_.obs; }

  /// Shard i's underlying service (tests, bench balance checks).
  BatchMatchService& shard_service(int i);

  /// Jobs admitted to shard i and not yet completed.
  int64_t shard_inflight(int i) const;

  /// Stops admitting match jobs: subsequent job lines answer with
  /// status "draining". Idempotent. Also invoked by the `drain` admin
  /// command, which additionally fires the drain-request callback.
  void Drain();

  /// Blocks until every admitted job has completed (and was emitted).
  void WaitDrained();

  bool draining() const {
    return draining_.load(std::memory_order_acquire);
  }

  /// Hook fired (once) when a `drain` admin command arrives — ems_serve
  /// wires this to TcpServer::RequestDrain so the transport stops
  /// accepting while the router stops admitting.
  void SetDrainRequestCallback(std::function<void()> callback) {
    drain_callback_ = std::move(callback);
  }

 private:
  struct Shard;
  struct TopKAggregate;

  // The one routing path: `wait` is the pipe's admission (wait for a
  // slot), false a listener's (shed at the cap).
  void Route(const std::string& line, net::EmitFn emit, bool wait);
  void HandleTopK(Request request, const net::EmitFn& emit, bool wait);
  // Reserves one admission slot on every shard in `shards`, all or
  // nothing. With `wait` it blocks until all have room; otherwise it
  // returns the first shard at its cap, having reserved nothing.
  Shard* Reserve(const std::vector<Shard*>& shards, bool wait);
  // Counts a job `shard` has no admission budget left for and renders
  // its overloaded response.
  std::string Shed(Shard& shard, const std::string& id);
  void FinishShardJob(Shard& shard);
  static std::string MergeTopK(TopKAggregate* aggregate);
  std::string HandleAdmin(const std::string& cmd, const std::string& id);
  std::string RenderStats(const std::string& id);
  std::string RenderHealth(const std::string& id);
  std::string RenderSlow(const std::string& id);
  std::string RenderDrainAck(const std::string& id);

  std::unique_ptr<ObsContext> owned_obs_;  // before options_
  ShardedServiceOptions options_;
  net::HashRing ring_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::function<void()> drain_callback_;
  std::atomic<bool> draining_{false};
  std::atomic<bool> drain_callback_fired_{false};
  std::atomic<uint64_t> next_request_seq_{1};  // the req-N of id-less lines
  Timer uptime_;

  // Admission and drain rendezvous: completions notify; the pipe waits
  // for a free slot, WaitDrained for the admitted-job count to reach
  // zero.
  mutable std::mutex drain_mu_;
  std::condition_variable drain_cv_;

  // The previous stats snapshot, for the interval rates of the next.
  std::mutex stats_mu_;
  std::optional<MetricsSnapshot> last_stats_;
};

}  // namespace serve
}  // namespace ems
