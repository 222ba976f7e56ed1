// ems_serve: concurrent batch matching service. Reads newline-delimited
// JSON job requests (see src/serve/service.h for the schema) from stdin,
// a Unix socket, or a TCP listener, routes them across worker shards,
// each a thread pool behind an LRU log cache, and writes one JSON result
// line per job in completion order. Every mode runs the same sharded
// router (src/serve/sharded_service.h); admin commands ({"cmd":"stats"|
// "health"|"slow"|"drain"}) ride the same protocol and are answered
// inline; tools/ems_top renders them as a live dashboard.
//
//   ems_serve [options] < jobs.ndjson > results.ndjson
//
// Options:
//   --threads=N        worker threads across all shards (default 0 =
//                      hardware concurrency)
//   --queue-size=N     bounded job queue capacity per shard (default 256)
//   --cache-size=N     parsed-log LRU capacity per shard, in logs
//                      (default 64)
//   --cache-bytes=N    parsed-log LRU byte budget (default 0 = entry
//                      count only)
//   --cache-dir=PATH   persistent artifact store directory
//                      (docs/PERSISTENCE.md); restarting with the same
//                      directory starts warm — the first job per log
//                      loads its snapshot instead of re-parsing. Shard i
//                      persists under PATH/shard-<i>.
//   --cache-dir-bytes=N byte budget of the on-disk store (default 0 =
//                      unbounded; LRU file eviction)
//   --metrics-out=PATH write a PipelineReport JSON (pool, cache, store,
//                      and serve.* metrics) to PATH on exit
//   --stats-out=PATH   publish metrics in Prometheus text exposition
//                      format to PATH, atomically (tmp + rename), from a
//                      background thread; one final write on shutdown
//   --stats-interval=S exposition write period in seconds (default 5;
//                      requires --stats-out)
//   --flight-slow=N    flight recorder: retain the N slowest requests
//                      (default 16); --flight-failed=N likewise for the
//                      most recent failures
//   --log-level=L      structured stderr logging threshold:
//                      error|warn|info|debug (default warn; one JSON
//                      line per event)
//   --socket=PATH      listen on a Unix domain socket instead of stdin/
//                      stdout (POSIX only). A stale socket file left by
//                      a killed process is replaced; a path owned by a
//                      live server is refused.
//   --tcp=HOST:PORT    listen on TCP (docs/SERVING.md). PORT 0 binds an
//                      ephemeral port (see --tcp-announce).
//   --tcp-announce=PATH write the bound "host:port" to PATH atomically
//                      once listening (scripts discover ephemeral ports
//                      this way)
//   --shards=N         worker shards (default 4 under --tcp, 1 on stdin
//                      and --socket)
//   --vnodes=N         hash-ring virtual nodes per shard (default 64)
//   --max-inflight=N   per-shard admission cap (default 0 = shard
//                      threads + queue capacity)
//
// The two transports differ only in admission. The stdin pipe never
// sheds: a job whose shard is at its cap waits for a slot, and the
// service exits once every line up to EOF was answered. A listener (TCP
// or Unix socket) takes concurrent clients and sheds a job past the cap
// with an explicit `overloaded` response; SIGTERM/SIGINT drain it: stop
// accepting, finish every admitted job, flush the stats exporter, exit
// 0. A line longer than 16 MiB is answered with `too_large` and ends its
// input: a connection closes, stdin mode exits 1.
//
// Example session (one job object per input line):
//   $ ems_serve --threads=4 < jobs.ndjson
//   with jobs.ndjson containing e.g.
//   {"id":"j1","log1":"a.xes","log2":"b.xes"}
//   {"cmd":"stats","id":"s1"}
//   prints one result line per job and one snapshot line for the stats
//   command.
#include <cstdio>
#include <string>

#ifndef _WIN32
#include <csignal>
#endif

#include "net/tcp_server.h"
#include "net/wire.h"
#include "obs/context.h"
#include "obs/report.h"
#include "serve/sharded_service.h"
#include "serve/stats_exporter.h"
#include "util/log.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace {

using namespace ems;

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--threads=N] [--queue-size=N] [--cache-size=N]\n"
               "          [--cache-bytes=N] [--cache-dir=PATH]\n"
               "          [--cache-dir-bytes=N]\n"
               "          [--metrics-out=PATH] [--stats-out=PATH]\n"
               "          [--stats-interval=SECONDS] [--flight-slow=N]\n"
               "          [--flight-failed=N] [--log-level=LEVEL]\n"
               "          [--socket=PATH | --tcp=HOST:PORT "
               "[--tcp-announce=PATH]]\n"
               "          [--shards=N] [--vnodes=N] [--max-inflight=N]\n"
               "routes NDJSON job lines from stdin (waiting at the\n"
               "admission cap) or from a Unix socket/TCP listener\n"
               "(shedding at it) across worker shards and writes one JSON\n"
               "result line per job; schema in src/serve/service.h, wire\n"
               "protocol in docs/SERVING.md\n",
               argv0);
}

struct Flags {
  int threads = 0;
  size_t queue_size = 256;
  size_t cache_size = 64;
  size_t cache_bytes = 0;
  std::string cache_dir;
  unsigned long long cache_dir_bytes = 0;
  std::string metrics_out;
  std::string stats_out;
  double stats_interval = 5.0;
  size_t flight_slow = 16;
  size_t flight_failed = 16;
  std::string socket_path;
  std::string tcp;
  std::string tcp_announce;
  int shards = 0;  // 0: the mode's default
  int vnodes = 64;
  size_t max_inflight = 0;
};

bool ParseFlag(const std::string& arg, const char* name, std::string* out) {
  const std::string prefix = std::string("--") + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *out = arg.substr(prefix.size());
  return true;
}

Result<Flags> ParseArgs(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (ParseFlag(arg, "threads", &value)) {
      EMS_RETURN_NOT_OK(ParseFlagNumber("threads", value, &flags.threads));
      if (flags.threads < 0) {
        return Status::InvalidArgument("--threads must be >= 0");
      }
    } else if (ParseFlag(arg, "queue-size", &value)) {
      long n = 0;
      EMS_RETURN_NOT_OK(ParseFlagNumber("queue-size", value, &n));
      if (n <= 0) return Status::InvalidArgument("--queue-size must be > 0");
      flags.queue_size = static_cast<size_t>(n);
    } else if (ParseFlag(arg, "cache-size", &value)) {
      long n = 0;
      EMS_RETURN_NOT_OK(ParseFlagNumber("cache-size", value, &n));
      if (n <= 0) return Status::InvalidArgument("--cache-size must be > 0");
      flags.cache_size = static_cast<size_t>(n);
    } else if (ParseFlag(arg, "cache-bytes", &value)) {
      long long n = 0;
      EMS_RETURN_NOT_OK(ParseFlagNumber("cache-bytes", value, &n));
      if (n < 0) return Status::InvalidArgument("--cache-bytes must be >= 0");
      flags.cache_bytes = static_cast<size_t>(n);
    } else if (ParseFlag(arg, "cache-dir", &value)) {
      flags.cache_dir = value;
    } else if (ParseFlag(arg, "cache-dir-bytes", &value)) {
      long long n = 0;
      EMS_RETURN_NOT_OK(ParseFlagNumber("cache-dir-bytes", value, &n));
      if (n < 0) {
        return Status::InvalidArgument("--cache-dir-bytes must be >= 0");
      }
      flags.cache_dir_bytes = static_cast<unsigned long long>(n);
    } else if (ParseFlag(arg, "metrics-out", &value)) {
      flags.metrics_out = value;
    } else if (ParseFlag(arg, "stats-out", &value)) {
      flags.stats_out = value;
    } else if (ParseFlag(arg, "stats-interval", &value)) {
      EMS_RETURN_NOT_OK(
          ParseFlagNumber("stats-interval", value, &flags.stats_interval));
      if (flags.stats_interval <= 0.0) {
        return Status::InvalidArgument("--stats-interval must be > 0");
      }
    } else if (ParseFlag(arg, "flight-slow", &value)) {
      long n = 0;
      EMS_RETURN_NOT_OK(ParseFlagNumber("flight-slow", value, &n));
      if (n < 0) return Status::InvalidArgument("--flight-slow must be >= 0");
      flags.flight_slow = static_cast<size_t>(n);
    } else if (ParseFlag(arg, "flight-failed", &value)) {
      long n = 0;
      EMS_RETURN_NOT_OK(ParseFlagNumber("flight-failed", value, &n));
      if (n < 0) {
        return Status::InvalidArgument("--flight-failed must be >= 0");
      }
      flags.flight_failed = static_cast<size_t>(n);
    } else if (ParseFlag(arg, "log-level", &value)) {
      Result<LogLevel> level = ParseLogLevel(value);
      if (!level.ok()) return level.status();
      SetGlobalLogLevel(*level);
    } else if (ParseFlag(arg, "socket", &value)) {
      flags.socket_path = value;
    } else if (ParseFlag(arg, "tcp", &value)) {
      flags.tcp = value;
    } else if (ParseFlag(arg, "tcp-announce", &value)) {
      flags.tcp_announce = value;
    } else if (ParseFlag(arg, "shards", &value)) {
      EMS_RETURN_NOT_OK(ParseFlagNumber("shards", value, &flags.shards));
      if (flags.shards < 1) {
        return Status::InvalidArgument("--shards must be >= 1");
      }
    } else if (ParseFlag(arg, "vnodes", &value)) {
      EMS_RETURN_NOT_OK(ParseFlagNumber("vnodes", value, &flags.vnodes));
      if (flags.vnodes < 1) {
        return Status::InvalidArgument("--vnodes must be >= 1");
      }
    } else if (ParseFlag(arg, "max-inflight", &value)) {
      long long n = 0;
      EMS_RETURN_NOT_OK(ParseFlagNumber("max-inflight", value, &n));
      if (n < 0) {
        return Status::InvalidArgument("--max-inflight must be >= 0");
      }
      flags.max_inflight = static_cast<size_t>(n);
    } else {
      return Status::InvalidArgument("unknown argument '" + arg + "'");
    }
  }
  if (!flags.socket_path.empty() && !flags.tcp.empty()) {
    return Status::InvalidArgument("--socket and --tcp are exclusive");
  }
  return flags;
}

#ifndef _WIN32
// SIGTERM/SIGINT drain the listener. The handler may only make async-
// signal-safe calls; RequestDrain is a CAS plus one pipe write.
net::TcpServer* g_server = nullptr;  // set before handlers install

extern "C" void HandleDrainSignal(int /*signo*/) {
  if (g_server != nullptr) g_server->RequestDrain();
}

void InstallDrainHandlers() {
  struct sigaction action {};
  action.sa_handler = HandleDrainSignal;
  ::sigemptyset(&action.sa_mask);
  action.sa_flags = SA_RESTART;
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);
}

// Writes the bound endpoint to the announce file atomically (tmp +
// rename), so scripts using --tcp=...:0 can discover the real port.
Status AnnounceEndpoint(const std::string& path, const std::string& host,
                        int port) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) return Status::IOError("open " + tmp + " failed");
  const std::string line = host + ":" + std::to_string(port) + "\n";
  const bool wrote = std::fwrite(line.data(), 1, line.size(), f) ==
                     line.size();
  if (std::fclose(f) != 0 || !wrote ||
      std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IOError("write " + path + " failed");
  }
  return Status::OK();
}

// Listener mode (--tcp or --socket): transport + drain wiring
// (docs/SERVING.md). Returns the exit code.
int ServeListener(const Flags& flags, serve::ShardedMatchService& router) {
  net::TcpServerOptions server_options;
  std::string where = flags.socket_path;
  if (!flags.tcp.empty()) {
    Result<net::HostPort> endpoint = net::ParseHostPort(flags.tcp);
    if (!endpoint.ok()) {
      LogError("--tcp: " + endpoint.status().message());
      return 2;
    }
    server_options.host = endpoint->host;
    server_options.port = endpoint->port;
  } else {
    server_options.unix_path = flags.socket_path;
  }
  server_options.obs = router.obs();
  net::TcpServer server(server_options, &router);
  Status started = server.Start();
  if (!started.ok()) {
    LogError("listen: " + started.message());
    return 1;
  }
  if (!flags.tcp.empty()) {
    where = server_options.host + ":" + std::to_string(server.port());
  }
  // The `drain` admin command stops the transport too; signals stop the
  // transport first and the router drains once connections are done.
  router.SetDrainRequestCallback([&server] { server.RequestDrain(); });
  g_server = &server;
  InstallDrainHandlers();

  LogInfo("listening on " + where + " (" +
          std::to_string(router.num_shards()) + " shards)");
  if (!flags.tcp.empty() && !flags.tcp_announce.empty()) {
    Status announced = AnnounceEndpoint(flags.tcp_announce,
                                        server_options.host, server.port());
    if (!announced.ok()) {
      LogError(announced.message());
      g_server = nullptr;
      return 1;
    }
  }

  const uint64_t served = server.Wait();
  g_server = nullptr;
  router.Drain();
  router.WaitDrained();
  LogInfo("drained after " + std::to_string(served) + " connections");
  return 0;
}
#endif

int Run(int argc, char** argv) {
  Result<Flags> flags_result = ParseArgs(argc, argv);
  if (!flags_result.ok()) {
    LogError(flags_result.status().message());
    Usage(argv[0]);
    return 2;
  }
  const Flags& flags = *flags_result;
  const bool listener = !flags.tcp.empty() || !flags.socket_path.empty();
#ifdef _WIN32
  if (listener) {
    LogError("--tcp and --socket are not supported on this OS");
    return 2;
  }
#endif

  serve::ShardedServiceOptions options;
  options.num_shards =
      flags.shards != 0 ? flags.shards : (!flags.tcp.empty() ? 4 : 1);
  options.vnodes_per_shard = flags.vnodes;
  options.total_threads = flags.threads;
  options.shard_queue_capacity = flags.queue_size;
  options.max_inflight_per_shard = flags.max_inflight;
  options.cache_capacity = flags.cache_size;
  options.cache_byte_budget = flags.cache_bytes;
  options.cache_dir = flags.cache_dir;
  options.cache_dir_bytes = flags.cache_dir_bytes;
  options.flight_slow_capacity = flags.flight_slow;
  options.flight_failed_capacity = flags.flight_failed;
  // The router owns its telemetry context (options.obs stays null), so
  // stats/health/slow and the exposition export always have live data.
  serve::ShardedMatchService router(options);

  serve::StatsExporter stats_exporter(
      flags.stats_out.empty() ? nullptr : router.obs(), flags.stats_out,
      flags.stats_interval);
  Timer total_timer;
  int rc = 0;
#ifndef _WIN32
  if (listener) rc = ServeListener(flags, router);
#endif
  if (!listener) {
    const net::LinesServed served =
        router.RunStream(/*in_fd=*/0, /*out_fd=*/1);
    uint64_t hits = 0;
    uint64_t misses = 0;
    for (int i = 0; i < router.num_shards(); ++i) {
      hits += router.shard_service(i).cache().hits();
      misses += router.shard_service(i).cache().misses();
    }
    LogInfo("stream done: " + std::to_string(served.lines) + " lines, cache " +
            std::to_string(hits) + " hits / " + std::to_string(misses) +
            " misses");
    if (served.too_large) {
      LogError("input line longer than " +
               std::to_string(net::kMaxLineBytes) + " bytes; stopped reading");
      rc = 1;
    }
  }

  stats_exporter.Stop();  // final exposition write before the report
  if (!flags.metrics_out.empty()) {
    PipelineReport report =
        BuildPipelineReport(router.obs(), EmsStats{}, CompositeStats{},
                            total_timer.ElapsedMillis());
    Status st = report.WriteJsonFile(flags.metrics_out);
    if (!st.ok()) {
      LogError("error writing " + flags.metrics_out + ": " + st.ToString());
      return 1;
    }
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
