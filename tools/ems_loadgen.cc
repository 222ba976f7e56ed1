// ems_loadgen: open-loop load generator for the networked matching
// service (docs/SERVING.md). Drives a weighted mix of match jobs, stats
// probes, and a cache-miss storm (match jobs cycling through many
// distinct generated logs so every request misses the parsed-log LRU)
// at a target arrival rate, and reports achieved QPS, latency quantiles,
// and per-status counts. The schedule is open-loop: it does not slow
// down when the service does, so saturation shows up as lag plus
// `overloaded` responses instead of being absorbed silently.
//
//   ems_loadgen --tcp=HOST:PORT [options]
//   ems_loadgen --socket=PATH [options]
//
// Options:
//   --tcp=HOST:PORT    TCP endpoint of ems_serve --tcp
//   --socket=PATH      Unix-socket endpoint of ems_serve --socket
//   --connections=N    concurrent connections (default 4)
//   --qps=Q            target arrival rate across connections
//                      (default 200)
//   --duration=S       generation window in seconds (default 5)
//   --max-requests=N   hard request cap (default 0 = duration governs)
//   --mix=M:S:C        integer weights of match:stats:storm requests
//                      (default 90:5:5); each request slot picks by
//                      sequence modulo the weight total
//   --log1=P --log2=P  the log pair of plain match jobs (required when
//                      the match weight is > 0)
//   --storm-logs=N     distinct generated logs the storm cycles through
//                      (default 64; written under TMPDIR, removed on
//                      exit)
//   --labels=NAME      label measure of generated jobs (default none)
//   --json-out=PATH    write the report as one JSON object to PATH
//                      (atomically, tmp + rename)
//
// Exit status: 0 on a clean run, 1 when any response failed to parse or
// carried an unknown id (protocol errors), 2 on usage/connect errors.
// Rejections (`overloaded`, `draining`) are load-test data, not errors.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "net/loadgen.h"
#include "net/wire.h"
#include "util/json_writer.h"
#include "util/log.h"
#include "util/status.h"
#include "util/string_util.h"

namespace {

using namespace ems;

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s (--tcp=HOST:PORT | --socket=PATH) [--connections=N]\n"
      "          [--qps=Q] [--duration=S] [--max-requests=N]\n"
      "          [--mix=MATCH:STATS:STORM] [--log1=PATH --log2=PATH]\n"
      "          [--storm-logs=N] [--labels=NAME] [--json-out=PATH]\n",
      argv0);
}

struct Flags {
  std::string tcp;
  std::string socket_path;
  int connections = 4;
  double qps = 200.0;
  double duration = 5.0;
  unsigned long long max_requests = 0;
  int match_weight = 90;
  int stats_weight = 5;
  int storm_weight = 5;
  std::string log1;
  std::string log2;
  int storm_logs = 64;
  std::string labels = "none";
  std::string json_out;
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
    if (ParseFlag(arg, "tcp", &value)) {
      flags.tcp = value;
    } else if (ParseFlag(arg, "socket", &value)) {
      flags.socket_path = value;
    } else if (ParseFlag(arg, "connections", &value)) {
      EMS_RETURN_NOT_OK(
          ParseFlagNumber("connections", value, &flags.connections));
      if (flags.connections < 1) {
        return Status::InvalidArgument("--connections must be >= 1");
      }
    } else if (ParseFlag(arg, "qps", &value)) {
      EMS_RETURN_NOT_OK(ParseFlagNumber("qps", value, &flags.qps));
      if (flags.qps <= 0.0) {
        return Status::InvalidArgument("--qps must be > 0");
      }
    } else if (ParseFlag(arg, "duration", &value)) {
      EMS_RETURN_NOT_OK(ParseFlagNumber("duration", value, &flags.duration));
      if (flags.duration <= 0.0) {
        return Status::InvalidArgument("--duration must be > 0");
      }
    } else if (ParseFlag(arg, "max-requests", &value)) {
      EMS_RETURN_NOT_OK(
          ParseFlagNumber("max-requests", value, &flags.max_requests));
    } else if (ParseFlag(arg, "mix", &value)) {
      const std::vector<std::string> weights = Split(value, ':');
      if (weights.size() != 3 ||
          !ParseFlagNumber("mix", weights[0], &flags.match_weight).ok() ||
          !ParseFlagNumber("mix", weights[1], &flags.stats_weight).ok() ||
          !ParseFlagNumber("mix", weights[2], &flags.storm_weight).ok() ||
          flags.match_weight < 0 || flags.stats_weight < 0 ||
          flags.storm_weight < 0 ||
          flags.match_weight + flags.stats_weight + flags.storm_weight ==
              0) {
        return Status::InvalidArgument(
            "--mix must be MATCH:STATS:STORM nonnegative weights, not all "
            "zero");
      }
    } else if (ParseFlag(arg, "log1", &value)) {
      flags.log1 = value;
    } else if (ParseFlag(arg, "log2", &value)) {
      flags.log2 = value;
    } else if (ParseFlag(arg, "storm-logs", &value)) {
      EMS_RETURN_NOT_OK(
          ParseFlagNumber("storm-logs", value, &flags.storm_logs));
      if (flags.storm_logs < 1) {
        return Status::InvalidArgument("--storm-logs must be >= 1");
      }
    } else if (ParseFlag(arg, "labels", &value)) {
      flags.labels = value;
    } else if (ParseFlag(arg, "json-out", &value)) {
      flags.json_out = value;
    } else {
      return Status::InvalidArgument("unknown argument '" + arg + "'");
    }
  }
  if (flags.tcp.empty() == flags.socket_path.empty()) {
    return Status::InvalidArgument(
        "exactly one of --tcp or --socket is required");
  }
  if (flags.match_weight > 0 &&
      (flags.log1.empty() || flags.log2.empty())) {
    return Status::InvalidArgument(
        "--log1 and --log2 are required when the match weight is > 0");
  }
  return flags;
}

std::string TempDir() {
  const char* env = std::getenv("TMPDIR");
  return env != nullptr ? env : "/tmp";
}

// Generates the storm corpus: small distinct trace logs, one file per
// storm slot, each with a unique activity so no two parse identically.
Status WriteStormLogs(const std::string& dir, int count,
                      std::vector<std::string>* paths) {
  for (int i = 0; i < count; ++i) {
    const std::string path =
        dir + "/ems_loadgen_storm_" + std::to_string(i) + ".txt";
    std::ofstream out(path);
    if (!out) return Status::IOError("cannot write " + path);
    out << "a;b;s" << i << ";d\na;s" << i << ";d\nb;a;d\n";
    if (!out.good()) return Status::IOError("cannot write " + path);
    paths->push_back(path);
  }
  return Status::OK();
}

std::string MatchLine(const std::string& id, const std::string& log1,
                      const std::string& log2, const std::string& labels) {
  JsonWriter w;
  w.BeginObject();
  w.Key("id");
  w.String(id);
  w.Key("log1");
  w.String(log1);
  w.Key("log2");
  w.String(log2);
  w.Key("labels");
  w.String(labels);
  w.EndObject();
  return w.str();
}

Status WriteJsonReport(const std::string& path, const Flags& flags,
                       const net::LoadGenReport& report) {
  JsonWriter w;
  w.BeginObject();
  w.Key("target_qps");
  w.Number(flags.qps);
  w.Key("achieved_qps");
  w.Number(report.achieved_qps);
  w.Key("duration_seconds");
  w.Number(flags.duration);
  w.Key("elapsed_seconds");
  w.Number(report.elapsed_seconds);
  w.Key("connections");
  w.Int(flags.connections);
  w.Key("sent");
  w.Int(static_cast<long long>(report.sent));
  w.Key("responses");
  w.Int(static_cast<long long>(report.responses));
  w.Key("send_errors");
  w.Int(static_cast<long long>(report.send_errors));
  w.Key("protocol_errors");
  w.Int(static_cast<long long>(report.protocol_errors));
  w.Key("status_counts");
  w.BeginObject();
  for (const auto& [status, count] : report.status_counts) {
    w.Key(status);
    w.Int(static_cast<long long>(count));
  }
  w.EndObject();
  w.Key("latency_ms");
  w.BeginObject();
  w.Key("mean");
  w.Number(report.MeanLatencyMs());
  w.Key("p50");
  w.Number(report.LatencyQuantileMs(0.50));
  w.Key("p90");
  w.Number(report.LatencyQuantileMs(0.90));
  w.Key("p99");
  w.Number(report.LatencyQuantileMs(0.99));
  w.Key("max");
  w.Number(report.latencies_ms.empty() ? 0.0
                                       : report.latencies_ms.back());
  w.EndObject();
  w.Key("max_lag_seconds");
  w.Number(report.max_lag_seconds);
  w.EndObject();

  const std::string tmp = path + ".tmp";
  std::ofstream out(tmp);
  if (!out) return Status::IOError("cannot write " + tmp);
  out << w.str() << "\n";
  out.flush();
  const bool good = out.good();
  out.close();
  if (!good || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IOError("cannot write " + path);
  }
  return Status::OK();
}

int Run(int argc, char** argv) {
  Result<Flags> flags_result = ParseArgs(argc, argv);
  if (!flags_result.ok()) {
    LogError(flags_result.status().message());
    Usage(argv[0]);
    return 2;
  }
  const Flags& flags = *flags_result;

  std::vector<std::string> storm_paths;
  if (flags.storm_weight > 0) {
    Status st = WriteStormLogs(TempDir(), flags.storm_logs, &storm_paths);
    if (!st.ok()) {
      LogError(st.message());
      return 2;
    }
  }

  const int total_weight =
      flags.match_weight + flags.stats_weight + flags.storm_weight;
  net::LoadGenOptions options;
  options.tcp = flags.tcp;
  options.socket_path = flags.socket_path;
  options.connections = flags.connections;
  options.target_qps = flags.qps;
  options.duration_seconds = flags.duration;
  options.max_requests = flags.max_requests;
  options.make_line = [&flags, &storm_paths, total_weight](
                          uint64_t seq, const std::string& id) {
    const int slot = static_cast<int>(seq % total_weight);
    if (slot < flags.match_weight) {
      return MatchLine(id, flags.log1, flags.log2, flags.labels);
    }
    if (slot < flags.match_weight + flags.stats_weight) {
      return std::string("{\"id\":\"") + id + "\",\"cmd\":\"stats\"}";
    }
    // Cache-miss storm: cycle the generated corpus; successive storm
    // requests hit different logs, so the LRU never warms up.
    const std::string& log1 =
        storm_paths[seq % storm_paths.size()];
    const std::string& log2 =
        storm_paths[(seq + 1) % storm_paths.size()];
    return MatchLine(id, log1, log2, flags.labels);
  };

  Result<net::LoadGenReport> run = net::RunLoadGen(options);
  for (const std::string& path : storm_paths) std::remove(path.c_str());
  if (!run.ok()) {
    LogError(run.status().ToString());
    return 2;
  }
  const net::LoadGenReport& report = *run;

  std::printf("sent %llu, responses %llu (%.1f qps achieved of %.1f)\n",
              static_cast<unsigned long long>(report.sent),
              static_cast<unsigned long long>(report.responses),
              report.achieved_qps, flags.qps);
  for (const auto& [status, count] : report.status_counts) {
    std::printf("  status %-12s %llu\n", status.c_str(),
                static_cast<unsigned long long>(count));
  }
  std::printf("latency ms: p50 %.2f  p90 %.2f  p99 %.2f  max %.2f\n",
              report.LatencyQuantileMs(0.50),
              report.LatencyQuantileMs(0.90),
              report.LatencyQuantileMs(0.99),
              report.latencies_ms.empty() ? 0.0
                                          : report.latencies_ms.back());
  std::printf("max schedule lag: %.3f s; send errors %llu; protocol "
              "errors %llu\n",
              report.max_lag_seconds,
              static_cast<unsigned long long>(report.send_errors),
              static_cast<unsigned long long>(report.protocol_errors));

  if (!flags.json_out.empty()) {
    Status st = WriteJsonReport(flags.json_out, flags, report);
    if (!st.ok()) {
      LogError(st.message());
      return 2;
    }
  }
  return report.protocol_errors == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
