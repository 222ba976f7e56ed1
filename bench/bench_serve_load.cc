// Load benchmark of the sharded TCP matching service: an in-process
// ShardedMatchService behind a real TcpServer, driven by the open-loop
// loadgen core over localhost. Reported quantities:
//
//   - a QPS ladder: target vs achieved rate plus p50/p99 latency per
//     rung, doubling the target until the service saturates (achieved
//     < 85% of target, or > 1% of responses shed as `overloaded`);
//     sustained_qps is the last clean rung, saturation_qps the first
//     rung that broke;
//   - per-shard balance: routed-job counts per shard after the ladder,
//     summarized as max/mean (1.0 = perfectly even);
//   - two self-checks that double as correctness gates: an overload
//     burst against a deliberately tiny admission budget must shed with
//     `overloaded` responses while still answering every line, and a
//     `drain` admin command must ack, reject subsequent jobs with
//     status "draining", and complete with every accepted job answered.
//
// When EMS_BENCH_JSON_DIR names a directory, writes BENCH_serve.json
// there (atomically, tmp + rename). Exits nonzero when a self-check
// fails; the ladder itself is reporting, not a gate.
//
// Flags: --shards=N (default 4), --threads=N (default 4, total),
//        --logs=N (corpus size, default 64), --base-qps=Q (default 100),
//        --rungs=N (default 4), --duration=S (per rung, default 1.0),
//        --connections=N (default 4).
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/loadgen.h"
#include "net/tcp_server.h"
#include "net/wire.h"
#include "obs/context.h"
#include "obs/metrics.h"
#include "serve/sharded_service.h"
#include "util/json_writer.h"
#include "util/string_util.h"

#ifndef _WIN32
#include <unistd.h>
#endif

namespace ems {
namespace {

std::string TempDir() {
  const char* env = std::getenv("TMPDIR");
  return env != nullptr ? env : "/tmp";
}

struct Rung {
  double target_qps = 0.0;
  double achieved_qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  uint64_t ok = 0;
  uint64_t overloaded = 0;
  uint64_t responses = 0;
  bool saturated = false;
};

// Writes the small distinct trace logs the ladder cycles through; jobs
// route by log1, so the corpus is also the routing-key population.
bool WriteCorpus(const std::string& dir, int count,
                 std::vector<std::string>* paths) {
  for (int i = 0; i < count; ++i) {
    const std::string path =
        dir + "/bench_serve_load_" + std::to_string(i) + ".txt";
    std::ofstream out(path);
    if (!out) return false;
    out << "a;b;k" << i << ";d\na;k" << i << ";d\nb;a;c;d\n";
    if (!out.good()) return false;
    paths->push_back(path);
  }
  return true;
}

std::string MatchLine(const std::string& id, const std::string& log1,
                      const std::string& log2) {
  JsonWriter w;
  w.BeginObject();
  w.Key("id");
  w.String(id);
  w.Key("log1");
  w.String(log1);
  w.Key("log2");
  w.String(log2);
  w.Key("labels");
  w.String("none");
  w.EndObject();
  return w.str();
}

// One ladder rung at `qps` against the already-running endpoint.
Result<Rung> RunRung(const std::string& endpoint,
                     const std::vector<std::string>& corpus, double qps,
                     double duration, int connections) {
  net::LoadGenOptions options;
  options.tcp = endpoint;
  options.connections = connections;
  options.target_qps = qps;
  options.duration_seconds = duration;
  options.make_line = [&corpus](uint64_t seq, const std::string& id) {
    const std::string& log1 = corpus[seq % corpus.size()];
    const std::string& log2 = corpus[(seq + 1) % corpus.size()];
    return MatchLine(id, log1, log2);
  };
  EMS_ASSIGN_OR_RETURN(net::LoadGenReport report, net::RunLoadGen(options));
  Rung rung;
  rung.target_qps = qps;
  rung.achieved_qps = report.achieved_qps;
  rung.p50_ms = report.LatencyQuantileMs(0.50);
  rung.p99_ms = report.LatencyQuantileMs(0.99);
  rung.ok = report.StatusCount("ok");
  rung.overloaded = report.StatusCount("overloaded");
  rung.responses = report.responses;
  const double shed_fraction =
      report.responses > 0
          ? static_cast<double>(rung.overloaded) /
                static_cast<double>(report.responses)
          : 0.0;
  rung.saturated =
      report.achieved_qps < 0.85 * qps || shed_fraction > 0.01;
  if (report.protocol_errors > 0) {
    return Status::Internal("protocol errors during ladder rung");
  }
  return rung;
}

// Overload self-check: a deliberately starved deployment must shed with
// explicit `overloaded` responses and still answer every line sent.
// The shards' workers are parked for the duration of the burst — with a
// one-job admission budget per shard that makes shedding a certainty
// rather than a race against how fast tiny matches complete.
bool CheckOverloadShedding(const std::vector<std::string>& corpus) {
  serve::ShardedServiceOptions options;
  options.num_shards = 2;
  options.total_threads = 2;
  options.shard_queue_capacity = 2;
  options.max_inflight_per_shard = 1;
  serve::ShardedMatchService router(options);
  net::TcpServerOptions server_options;
  server_options.obs = router.obs();
  net::TcpServer server(server_options, &router);
  if (!server.Start().ok()) return false;
  router.SetDrainRequestCallback([&server] { server.RequestDrain(); });

  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  for (int i = 0; i < router.num_shards(); ++i) {
    if (!router.shard_service(i).pool().Submit([&mu, &cv, &release] {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&release] { return release; });
        })) {
      return false;
    }
  }
  // Release the workers well after the burst has been sent and every
  // line admitted or shed; the (at most one per shard) admitted jobs
  // then complete so the loadgen still sees a response for every line.
  std::thread releaser([&mu, &cv, &release] {
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    {
      std::lock_guard<std::mutex> lock(mu);
      release = true;
    }
    cv.notify_all();
  });

  net::LoadGenOptions load;
  load.tcp = "127.0.0.1:" + std::to_string(server.port());
  load.connections = 4;
  load.target_qps = 2000.0;
  load.duration_seconds = 10.0;  // max_requests governs
  load.max_requests = 200;
  load.make_line = [&corpus](uint64_t seq, const std::string& id) {
    const std::string& log1 = corpus[seq % corpus.size()];
    const std::string& log2 = corpus[(seq + 1) % corpus.size()];
    return MatchLine(id, log1, log2);
  };
  Result<net::LoadGenReport> run = net::RunLoadGen(load);
  releaser.join();
  server.RequestDrain();
  server.Wait();
  router.Drain();
  router.WaitDrained();
  if (!run.ok()) {
    std::fprintf(stderr, "overload check: %s\n",
                 run.status().ToString().c_str());
    return false;
  }
  const bool answered_everything = run->responses == run->sent;
  const bool shed = run->StatusCount("overloaded") > 0;
  const bool clean = run->protocol_errors == 0;
  std::printf("overload: sent %llu answered %llu overloaded %llu%s\n",
              static_cast<unsigned long long>(run->sent),
              static_cast<unsigned long long>(run->responses),
              static_cast<unsigned long long>(
                  run->StatusCount("overloaded")),
              answered_everything && shed && clean ? "" : "  [FAIL]");
  return answered_everything && shed && clean;
}

// Drain self-check over a raw connection: job, drain, job — the ack
// must come back, the post-drain job must be rejected with status
// "draining", and the pre-drain job must still be answered.
bool CheckDrain(const std::vector<std::string>& corpus) {
#ifdef _WIN32
  return true;
#else
  serve::ShardedServiceOptions options;
  options.num_shards = 2;
  options.total_threads = 2;
  serve::ShardedMatchService router(options);
  net::TcpServerOptions server_options;
  server_options.obs = router.obs();
  net::TcpServer server(server_options, &router);
  if (!server.Start().ok()) return false;
  router.SetDrainRequestCallback([&server] { server.RequestDrain(); });

  Result<int> fd = net::ConnectTcp("127.0.0.1", server.port());
  if (!fd.ok()) return false;
  const std::string lines = MatchLine("pre", corpus[0], corpus[1]) + "\n" +
                            "{\"id\":\"d\",\"cmd\":\"drain\"}\n" +
                            MatchLine("post", corpus[2], corpus[3]) + "\n";
  if (!net::WriteAll(*fd, lines).ok()) {
    ::close(*fd);
    return false;
  }
  net::FdLineReader reader(*fd);
  std::string line;
  int acked = 0;
  int drained_reject = 0;
  int answered_pre = 0;
  int responses = 0;
  while (responses < 3 && reader.ReadLine(&line)) {
    ++responses;
    if (line.find("\"cmd\":\"drain\"") != std::string::npos &&
        line.find("\"draining\":true") != std::string::npos) {
      ++acked;
    }
    if (line.find("\"id\":\"post\"") != std::string::npos &&
        line.find("\"status\":\"draining\"") != std::string::npos) {
      ++drained_reject;
    }
    if (line.find("\"id\":\"pre\"") != std::string::npos &&
        line.find("\"status\":\"ok\"") != std::string::npos) {
      ++answered_pre;
    }
  }
  ::close(*fd);
  server.Wait();
  router.WaitDrained();
  const bool ok =
      responses == 3 && acked == 1 && drained_reject == 1 &&
      answered_pre == 1;
  std::printf("drain: ack %d, post-drain rejected %d, pre-drain answered "
              "%d%s\n",
              acked, drained_reject, answered_pre, ok ? "" : "  [FAIL]");
  return ok;
#endif
}

void WriteJson(const std::vector<Rung>& rungs, double sustained_qps,
               double saturation_qps,
               const std::vector<uint64_t>& routed_per_shard,
               double max_over_mean, int shards, int threads,
               bool overload_ok, bool drain_ok) {
  const char* env = std::getenv("EMS_BENCH_JSON_DIR");
  if (env == nullptr || env[0] == '\0') return;
  JsonWriter w;
  w.BeginObject();
  w.Key("figure");
  w.String("serve_load");
  w.Key("description");
  w.String(
      "sharded TCP service under open-loop load: QPS ladder, latency, "
      "shard balance, overload shedding, drain");
  w.Key("shards");
  w.Int(shards);
  w.Key("threads");
  w.Int(threads);
  w.Key("rungs");
  w.BeginArray();
  for (const Rung& rung : rungs) {
    w.BeginObject();
    w.Key("target_qps");
    w.Number(rung.target_qps);
    w.Key("achieved_qps");
    w.Number(rung.achieved_qps);
    w.Key("p50_ms");
    w.Number(rung.p50_ms);
    w.Key("p99_ms");
    w.Number(rung.p99_ms);
    w.Key("ok");
    w.Int(static_cast<long long>(rung.ok));
    w.Key("overloaded");
    w.Int(static_cast<long long>(rung.overloaded));
    w.Key("saturated");
    w.Bool(rung.saturated);
    w.EndObject();
  }
  w.EndArray();
  w.Key("sustained_qps");
  w.Number(sustained_qps);
  w.Key("saturation_qps");
  w.Number(saturation_qps);
  w.Key("shard_balance");
  w.BeginObject();
  w.Key("routed_per_shard");
  w.BeginArray();
  for (uint64_t routed : routed_per_shard) {
    w.Int(static_cast<long long>(routed));
  }
  w.EndArray();
  w.Key("max_over_mean");
  w.Number(max_over_mean);
  w.EndObject();
  w.Key("overload_shedding_ok");
  w.Bool(overload_ok);
  w.Key("drain_ok");
  w.Bool(drain_ok);
  w.EndObject();
  const std::string path = std::string(env) + "/BENCH_serve.json";
  const std::string tmp = path + ".tmp";
  std::ofstream out(tmp);
  if (!out) return;
  out << w.str() << "\n";
  out.flush();
  const bool good = out.good();
  out.close();
  if (good) std::rename(tmp.c_str(), path.c_str());
  else std::remove(tmp.c_str());
}

int Main(int argc, char** argv) {
  int shards = 4;
  int threads = 4;
  int logs = 64;
  double base_qps = 100.0;
  int num_rungs = 4;
  double duration = 1.0;
  int connections = 4;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&arg](const char* prefix) -> const char* {
      const std::string p = prefix;
      return arg.rfind(p, 0) == 0 ? arg.c_str() + p.size() : nullptr;
    };
    Status parsed;
    if (const char* v = value("--shards=")) {
      parsed = ParseFlagNumber("shards", v, &shards);
    } else if (const char* v = value("--threads=")) {
      parsed = ParseFlagNumber("threads", v, &threads);
    } else if (const char* v = value("--logs=")) {
      parsed = ParseFlagNumber("logs", v, &logs);
    } else if (const char* v = value("--base-qps=")) {
      parsed = ParseFlagNumber("base-qps", v, &base_qps);
    } else if (const char* v = value("--rungs=")) {
      parsed = ParseFlagNumber("rungs", v, &num_rungs);
    } else if (const char* v = value("--duration=")) {
      parsed = ParseFlagNumber("duration", v, &duration);
    } else if (const char* v = value("--connections=")) {
      parsed = ParseFlagNumber("connections", v, &connections);
    } else {
      std::fprintf(stderr, "warning: ignoring unknown option '%s'\n",
                   arg.c_str());
    }
    if (!parsed.ok()) {
      std::fprintf(stderr, "error: %s\n", parsed.message().c_str());
      return 2;
    }
  }
  if (shards < 1 || threads < 1 || logs < 4 || base_qps <= 0.0 ||
      num_rungs < 1 || duration <= 0.0 || connections < 1) {
    std::fprintf(stderr, "invalid flag value\n");
    return 2;
  }

  std::printf("=====================================================\n");
  std::printf("serve_load — sharded TCP service (%d shards, %d threads)\n",
              shards, threads);
  std::printf("=====================================================\n");

  std::vector<std::string> corpus;
  if (!WriteCorpus(TempDir(), logs, &corpus)) {
    std::fprintf(stderr, "cannot write corpus\n");
    return 1;
  }

  // The ladder deployment; a fresh router per bench keeps runs
  // independent of each other.
  serve::ShardedServiceOptions options;
  options.num_shards = shards;
  options.total_threads = threads;
  options.cache_capacity = static_cast<size_t>(logs) + 8;
  serve::ShardedMatchService router(options);
  net::TcpServerOptions server_options;
  server_options.obs = router.obs();
  net::TcpServer server(server_options, &router);
  if (!server.Start().ok()) {
    std::fprintf(stderr, "cannot start server\n");
    return 1;
  }
  router.SetDrainRequestCallback([&server] { server.RequestDrain(); });
  const std::string endpoint =
      "127.0.0.1:" + std::to_string(server.port());

  std::vector<Rung> rungs;
  double sustained_qps = 0.0;
  double saturation_qps = 0.0;
  double qps = base_qps;
  for (int i = 0; i < num_rungs; ++i, qps *= 2.0) {
    Result<Rung> rung = RunRung(endpoint, corpus, qps, duration,
                                connections);
    if (!rung.ok()) {
      std::fprintf(stderr, "rung at %.0f qps: %s\n", qps,
                   rung.status().ToString().c_str());
      return 1;
    }
    std::printf("%8.0f qps target -> %8.1f achieved  p50 %7.2f ms  "
                "p99 %7.2f ms  overloaded %llu%s\n",
                rung->target_qps, rung->achieved_qps, rung->p50_ms,
                rung->p99_ms,
                static_cast<unsigned long long>(rung->overloaded),
                rung->saturated ? "  [saturated]" : "");
    rungs.push_back(*rung);
    if (rung->saturated) {
      saturation_qps = rung->target_qps;
      break;
    }
    sustained_qps = rung->achieved_qps;
  }

  // Shard balance over the whole ladder, read back from the router's
  // per-shard routed counters.
  std::vector<uint64_t> routed_per_shard;
  uint64_t total_routed = 0;
  uint64_t max_routed = 0;
  for (int i = 0; i < shards; ++i) {
    const uint64_t routed = router.obs()->metrics.CounterValue(
        ShardMetricName("serve.shard", i, "routed"));
    routed_per_shard.push_back(routed);
    total_routed += routed;
    max_routed = std::max(max_routed, routed);
  }
  const double mean_routed =
      static_cast<double>(total_routed) / static_cast<double>(shards);
  const double max_over_mean =
      mean_routed > 0.0 ? static_cast<double>(max_routed) / mean_routed
                        : 0.0;
  std::printf("shard balance: max/mean %.3f over %llu routed jobs\n",
              max_over_mean,
              static_cast<unsigned long long>(total_routed));

  server.RequestDrain();
  server.Wait();
  router.Drain();
  router.WaitDrained();

  const bool overload_ok = CheckOverloadShedding(corpus);
  const bool drain_ok = CheckDrain(corpus);

  WriteJson(rungs, sustained_qps, saturation_qps, routed_per_shard,
            max_over_mean, shards, threads, overload_ok, drain_ok);
  for (const std::string& path : corpus) std::remove(path.c_str());

  if (!overload_ok || !drain_ok) {
    std::fprintf(stderr, "SELF-CHECK FAILURE\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace ems

int main(int argc, char** argv) { return ems::Main(argc, argv); }
