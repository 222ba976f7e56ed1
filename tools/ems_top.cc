// ems_top: polling terminal dashboard for a running ems_serve. Connects
// to the service's Unix socket or TCP endpoint, issues {"cmd":"stats"}
// probes (answered inline by the router, so the dashboard stays live
// even when the job queue is saturated, and beside any number of job
// clients), and renders throughput, latency quantiles, the summed cache
// hit rate, per-shard queue-depth/inflight gauges and the shard-balance
// spread as a compact top-style screen.
//
//   ems_top --socket=/tmp/ems.sock [--interval=SECONDS] [--count=N]
//   ems_top --tcp=127.0.0.1:7463 --once
//   ems_top --from-file=stats.json        # render one captured response
//
// Options:
//   --socket=PATH    Unix socket of a running `ems_serve --socket=PATH`
//   --tcp=HOST:PORT  TCP endpoint of a running `ems_serve --tcp=...`
//   --interval=S     seconds between probes (default 2)
//   --count=N        exit after N frames (default 0 = until interrupted)
//   --once           shorthand for --count=1 (no screen clearing)
//   --from-file=PATH render a stats response line captured to a file and
//                    exit — the offline/testing mode, no connection
//                    needed
//
// Each frame sends one stats probe; the service computes interval rates
// against the previous probe, so QPS settles after the first frame.
#include <cstdio>
#include <string>
#include <vector>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "net/wire.h"
#include "util/json_parser.h"
#include "util/log.h"
#include "util/status.h"
#include "util/string_util.h"

namespace {

using namespace ems;

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s (--socket=PATH | --tcp=HOST:PORT) "
               "[--interval=SECONDS] [--count=N] [--once]\n"
               "       %s --from-file=PATH\n"
               "polls a running ems_serve for {\"cmd\":\"stats\"} and renders "
               "a dashboard\n",
               argv0, argv0);
}

struct Flags {
  std::string socket_path;
  std::string tcp;
  std::string from_file;
  double interval = 2.0;
  long count = 0;  // 0 = run until interrupted
  bool clear_screen = true;
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
    if (ParseFlag(arg, "socket", &value)) {
      flags.socket_path = value;
    } else if (ParseFlag(arg, "tcp", &value)) {
      flags.tcp = value;
    } else if (ParseFlag(arg, "from-file", &value)) {
      flags.from_file = value;
    } else if (ParseFlag(arg, "interval", &value)) {
      EMS_RETURN_NOT_OK(ParseFlagNumber("interval", value, &flags.interval));
      if (flags.interval <= 0.0) {
        return Status::InvalidArgument("--interval must be > 0");
      }
    } else if (ParseFlag(arg, "count", &value)) {
      EMS_RETURN_NOT_OK(ParseFlagNumber("count", value, &flags.count));
      if (flags.count < 0) {
        return Status::InvalidArgument("--count must be >= 0");
      }
    } else if (arg == "--once") {
      flags.count = 1;
      flags.clear_screen = false;
    } else {
      return Status::InvalidArgument("unknown argument '" + arg + "'");
    }
  }
  const int endpoints = (flags.socket_path.empty() ? 0 : 1) +
                        (flags.tcp.empty() ? 0 : 1) +
                        (flags.from_file.empty() ? 0 : 1);
  if (endpoints != 1) {
    return Status::InvalidArgument(
        "exactly one of --socket, --tcp, or --from-file is required");
  }
  return flags;
}

double FindRate(const JsonValue& stats, const char* counter) {
  const JsonValue* rates = stats.Find("rates");
  return rates == nullptr ? 0.0 : rates->GetNumber(counter, 0.0);
}

// Latency digest of one quantile histogram in the snapshot, or zeros.
struct Latency {
  uint64_t count = 0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
};

Latency FindLatency(const JsonValue& stats, const char* name) {
  Latency latency;
  const JsonValue* snapshot = stats.Find("snapshot");
  if (snapshot == nullptr) return latency;
  const JsonValue* quantiles = snapshot->Find("quantile_histograms");
  if (quantiles == nullptr) return latency;
  const JsonValue* h = quantiles->Find(name);
  if (h == nullptr) return latency;
  latency.count = static_cast<uint64_t>(h->GetNumber("count", 0.0));
  latency.p50 = h->GetNumber("p50", 0.0);
  latency.p90 = h->GetNumber("p90", 0.0);
  latency.p99 = h->GetNumber("p99", 0.0);
  return latency;
}

// A counter from the metrics snapshot, or 0 when absent.
double FindCounter(const JsonValue& stats, const char* name) {
  const JsonValue* snapshot = stats.Find("snapshot");
  if (snapshot == nullptr) return 0.0;
  const JsonValue* counters = snapshot->Find("counters");
  return counters == nullptr ? 0.0 : counters->GetNumber(name, 0.0);
}

// The corpus-index breakdown (docs/CORPUS.md): how the top-k scheduler
// disposed of its candidates — pruned at the bound, aborted mid-run, or
// run to an exact score — plus the corpus-cache hit rate and the bound
// tightness p50/p90. Services that never answered a topk job carry no
// index.* counters, so this renders nothing for them.
void RenderIndexMetrics(const JsonValue& stats) {
  const double candidates = FindCounter(stats, "index.candidates_retrieved");
  const double topk_jobs = FindCounter(stats, "serve.topk_jobs");
  if (candidates <= 0.0 && topk_jobs <= 0.0) return;
  const double pruned = FindCounter(stats, "index.pruned_by_bound");
  const double aborted = FindCounter(stats, "index.aborted_runs");
  const double exact = FindCounter(stats, "index.exact_runs");
  std::printf("index       %lld queries, %lld candidates: "
              "%5.1f%% pruned  %5.1f%% aborted  %5.1f%% exact\n",
              static_cast<long long>(FindCounter(stats, "index.queries")),
              static_cast<long long>(candidates),
              candidates > 0.0 ? 100.0 * pruned / candidates : 0.0,
              candidates > 0.0 ? 100.0 * aborted / candidates : 0.0,
              candidates > 0.0 ? 100.0 * exact / candidates : 0.0);
  const double corpus_hits = FindCounter(stats, "serve.corpus_cache.hits");
  const double corpus_misses =
      FindCounter(stats, "serve.corpus_cache.misses");
  const double corpus_lookups = corpus_hits + corpus_misses;
  const Latency tightness = FindLatency(stats, "index.bound_tightness");
  std::printf("corpus      %lld topk jobs, index cache hit rate %5.1f%% "
              "(%lld/%lld), bound tightness p50 %.3f p90 %.3f\n",
              static_cast<long long>(topk_jobs),
              corpus_lookups > 0.0 ? 100.0 * corpus_hits / corpus_lookups
                                   : 0.0,
              static_cast<long long>(corpus_hits),
              static_cast<long long>(corpus_lookups), tightness.p50,
              tightness.p90);
}

// A ten-cell [=====     ] gauge of value/capacity.
std::string GaugeBar(double value, double capacity) {
  const int cells = 10;
  int filled = capacity > 0.0
                   ? static_cast<int>(cells * value / capacity + 0.5)
                   : 0;
  if (filled > cells) filled = cells;
  if (filled < 0) filled = 0;
  std::string bar = "[";
  bar.append(static_cast<size_t>(filled), '=');
  bar.append(static_cast<size_t>(cells - filled), ' ');
  bar += "]";
  return bar;
}

// A gauge from the metrics snapshot, or 0 when absent.
double FindGauge(const JsonValue& stats, const char* name) {
  const JsonValue* snapshot = stats.Find("snapshot");
  if (snapshot == nullptr) return 0.0;
  const JsonValue* gauges = snapshot->Find("gauges");
  return gauges == nullptr ? 0.0 : gauges->GetNumber(name, 0.0);
}

// The streaming-ingestion row (docs/STREAMING.md): live sessions, what
// the appends changed, and what the warm starts saved. Services that
// never answered an append carry no stream.* metrics; render nothing.
void RenderStreamMetrics(const JsonValue& stats) {
  const double appends = FindCounter(stats, "stream.appends");
  const double sessions = FindGauge(stats, "stream.sessions");
  if (appends <= 0.0 && sessions <= 0.0) return;
  const double warm = FindCounter(stats, "stream.warm_matches");
  const double warm_iters = FindCounter(stats, "stream.warm_iterations");
  const double saved = FindCounter(stats, "stream.iterations_saved");
  std::printf("stream      %lld sessions, %lld appends (%lld traces, "
              "%lld delta edges, %lld dist rows), %lld warm matches: "
              "%lld iters run, %lld saved (%5.1f%%)\n",
              static_cast<long long>(sessions),
              static_cast<long long>(appends),
              static_cast<long long>(
                  FindCounter(stats, "stream.appended_traces")),
              static_cast<long long>(FindCounter(stats, "stream.delta_edges")),
              static_cast<long long>(
                  FindCounter(stats, "stream.distance_rows_invalidated")),
              static_cast<long long>(warm),
              static_cast<long long>(warm_iters),
              static_cast<long long>(saved),
              warm_iters + saved > 0.0
                  ? 100.0 * saved / (warm_iters + saved)
                  : 0.0);
}

// The probabilistic-matching row (docs/PROBABILISTIC.md): how many jobs
// ran the EM posterior engine, its convergence behavior, and the
// posterior-entropy distribution (mean from the quantile histogram's
// sum/count; p90 marks the ambiguous tail). Services that never
// answered a prob job carry no prob.* counters; render nothing.
void RenderProbMetrics(const JsonValue& stats) {
  const double runs = FindCounter(stats, "prob.runs");
  if (runs <= 0.0) return;
  const double iters = FindCounter(stats, "prob.iterations");
  const double converged = FindCounter(stats, "prob.converged_runs");
  double mean_entropy = 0.0;
  const Latency entropy = FindLatency(stats, "prob.posterior_entropy");
  if (const JsonValue* snapshot = stats.Find("snapshot")) {
    if (const JsonValue* quantiles = snapshot->Find("quantile_histograms")) {
      if (const JsonValue* h = quantiles->Find("prob.posterior_entropy")) {
        const double count = h->GetNumber("count", 0.0);
        if (count > 0.0) mean_entropy = h->GetNumber("sum", 0.0) / count;
      }
    }
  }
  std::printf("prob        %lld EM runs, %.1f iters/run, %5.1f%% converged, "
              "posterior entropy mean %.3f p90 %.3f\n",
              static_cast<long long>(runs), runs > 0.0 ? iters / runs : 0.0,
              100.0 * converged / runs, mean_entropy, entropy.p90);
}

// The parsed-log caches of every shard, summed into one line.
void RenderCache(const JsonValue& stats) {
  const JsonValue* shards = stats.Find("shards");
  if (shards == nullptr || !shards->is_array()) return;
  double entries = 0.0, bytes = 0.0, hits = 0.0, misses = 0.0;
  for (const JsonValue& shard : shards->array_items()) {
    const JsonValue* cache = shard.Find("cache");
    if (cache == nullptr) continue;
    entries += cache->GetNumber("entries", 0.0);
    bytes += cache->GetNumber("bytes", 0.0);
    hits += cache->GetNumber("hits", 0.0);
    misses += cache->GetNumber("misses", 0.0);
  }
  const double lookups = hits + misses;
  std::printf("cache       %lld logs, %lld bytes, hit rate %5.1f%% "
              "(%lld/%lld)\n",
              static_cast<long long>(entries), static_cast<long long>(bytes),
              lookups > 0.0 ? 100.0 * hits / lookups : 0.0,
              static_cast<long long>(hits), static_cast<long long>(lookups));
}

// The router's breakdown: one row per shard with queue and inflight
// gauges, plus the routed-job balance spread.
void RenderShards(const JsonValue& stats) {
  const JsonValue* shards = stats.Find("shards");
  if (shards == nullptr || !shards->is_array() ||
      shards->array_items().empty()) {
    return;
  }
  if (const JsonValue* router = stats.Find("router")) {
    std::printf("router      %d shards, %d vnodes/shard%s\n",
                router->GetInt("num_shards", 0),
                router->GetInt("vnodes_per_shard", 0),
                router->GetBool("draining", false) ? ", DRAINING" : "");
  }
  double routed_total = 0.0;
  double routed_max = 0.0;
  for (const JsonValue& shard : shards->array_items()) {
    const double routed = shard.GetNumber("routed", 0.0);
    routed_total += routed;
    if (routed > routed_max) routed_max = routed;
    const double queue_depth = shard.GetNumber("queue_depth", 0.0);
    const double queue_capacity = shard.GetNumber("queue_capacity", 0.0);
    const double inflight = shard.GetNumber("inflight", 0.0);
    const double max_inflight = shard.GetNumber("max_inflight", 0.0);
    std::printf("shard %-3d   queue %s %4lld/%-4lld  inflight %s "
                "%4lld/%-4lld  routed %lld  shed %lld\n",
                shard.GetInt("shard", 0),
                GaugeBar(queue_depth, queue_capacity).c_str(),
                static_cast<long long>(queue_depth),
                static_cast<long long>(queue_capacity),
                GaugeBar(inflight, max_inflight).c_str(),
                static_cast<long long>(inflight),
                static_cast<long long>(max_inflight),
                static_cast<long long>(routed),
                static_cast<long long>(
                    shard.GetNumber("rejected_overloaded", 0.0)));
  }
  const double mean =
      routed_total / static_cast<double>(shards->array_items().size());
  std::printf("balance     max/mean %.3f over %lld routed jobs\n",
              mean > 0.0 ? routed_max / mean : 0.0,
              static_cast<long long>(routed_total));
}

// Renders one stats response as the dashboard frame. Returns false (and
// prints the raw line) when the response is not a stats document.
bool RenderFrame(const std::string& line, bool clear_screen) {
  Result<JsonValue> parsed = ParseJson(line);
  if (!parsed.ok() || !parsed->is_object() ||
      parsed->GetString("status", "") != "ok") {
    std::fprintf(stderr, "unexpected response: %s\n", line.c_str());
    return false;
  }
  const JsonValue& stats = *parsed;
  if (clear_screen) std::fputs("\x1b[H\x1b[2J", stdout);

  std::printf("ems_top — uptime %.1fs, interval %.1fs\n",
              stats.GetNumber("uptime_seconds", 0.0),
              stats.GetNumber("interval_seconds", 0.0));

  const double qps_ok = FindRate(stats, "serve.jobs_ok");
  const double qps_failed = FindRate(stats, "serve.jobs_failed");
  std::printf("throughput  %8.2f jobs/s ok  %8.2f jobs/s failed\n", qps_ok,
              qps_failed);

  const Latency ok = FindLatency(stats, "serve.latency_ms.ok");
  const Latency err = FindLatency(stats, "serve.latency_ms.error");
  std::printf("latency ok  p50 %8.2fms  p90 %8.2fms  p99 %8.2fms  (n=%llu)\n",
              ok.p50, ok.p90, ok.p99,
              static_cast<unsigned long long>(ok.count));
  if (err.count > 0) {
    std::printf(
        "latency err p50 %8.2fms  p90 %8.2fms  p99 %8.2fms  (n=%llu)\n",
        err.p50, err.p90, err.p99,
        static_cast<unsigned long long>(err.count));
  }

  RenderCache(stats);
  RenderIndexMetrics(stats);
  RenderStreamMetrics(stats);
  RenderProbMetrics(stats);
  RenderShards(stats);
  std::fflush(stdout);
  return true;
}

int RunFromFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    LogError("cannot open " + path);
    return 1;
  }
  std::string content;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) content.append(buf, n);
  std::fclose(f);
  // Render the first non-empty line (a captured stats response).
  size_t start = content.find_first_not_of("\r\n");
  if (start == std::string::npos) {
    LogError("empty stats file " + path);
    return 1;
  }
  size_t end = content.find('\n', start);
  const std::string line = content.substr(
      start, end == std::string::npos ? std::string::npos : end - start);
  return RenderFrame(line, /*clear_screen=*/false) ? 0 : 1;
}

#ifndef _WIN32
// One connection per run, over either transport: send a probe line,
// read the answer line. ConnectEndpoint picks TCP when flags.tcp is
// set and the Unix socket otherwise.
int RunPolling(const Flags& flags) {
  Result<int> fd = net::ConnectEndpoint(flags.tcp, flags.socket_path);
  if (!fd.ok()) {
    LogError(fd.status().message());
    return 1;
  }
  net::FdLineReader reader(*fd);
  long frame = 0;
  int rc = 0;
  for (;;) {
    const Status sent =
        net::WriteAll(*fd, "{\"cmd\":\"stats\",\"id\":\"ems_top\"}\n");
    if (!sent.ok()) {
      LogError(sent.message());
      rc = 1;
      break;
    }
    std::string line;
    if (!reader.ReadLine(&line)) {
      LogError("service closed the connection");
      rc = 1;
      break;
    }
    RenderFrame(line, flags.clear_screen);
    ++frame;
    if (flags.count > 0 && frame >= flags.count) break;
    ::usleep(static_cast<useconds_t>(flags.interval * 1e6));
  }
  ::close(*fd);
  return rc;
}
#endif

int Run(int argc, char** argv) {
  Result<Flags> flags = ParseArgs(argc, argv);
  if (!flags.ok()) {
    LogError(flags.status().message());
    Usage(argv[0]);
    return 2;
  }
  if (!flags->from_file.empty()) return RunFromFile(flags->from_file);
#ifndef _WIN32
  return RunPolling(*flags);
#else
  LogError("--socket polling is not supported on this OS");
  return 2;
#endif
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
