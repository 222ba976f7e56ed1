// Telemetry-overhead benchmark: the same NDJSON job stream piped through
// a one-shard ShardedMatchService::RunStream, the stdin path of
// ems_serve, with the telemetry plane off (the pre-plane behavior: no
// owned ObsContext, no per-job span trees, no flight recorder, no
// quantile observations) and on (the default). The quantity
// reported is the relative wall-clock overhead of telemetry=on, which
// the observability plan budgets at < 5%. Off/on runs are interleaved
// rep by rep (after one unmeasured warmup pair) so machine drift cancels
// out of the ratio instead of landing in one arm.
//
// Two statistics are reported: the best-of-reps overhead per arm, and
// the median over reps of the paired ratio (on_i - off_i) / off_i. The
// paired median is the one gated: both runs of a rep see the same
// machine state, so host noise between reps drops out of it, while a
// best-of per arm can pair one arm's quiet moment with the other's
// burst.
//
// Doubles as an equivalence harness: both configurations must produce
// the identical multiset of result lines (millis fields stripped — they
// are the one legitimately nondeterministic byte range). The binary
// exits nonzero on any mismatch or when the paired median exceeds the
// budget by a wide margin (> 15%, noise headroom for loaded CI
// machines).
//
// When EMS_BENCH_JSON_DIR names a directory, writes
// BENCH_serve_obs.json there (atomically, tmp + rename) with per-mode
// timing and both overhead statistics.
//
// Flags: --activities=N (default 20), --traces=N (default 300),
//        --jobs=N (default 64), --reps=N (default 3),
//        --threads=N (default 4), --seed=N (default 23).
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "log/event_log.h"
#include "log/log_io.h"
#include "serve/sharded_service.h"
#include "synth/log_generator.h"
#include "synth/process_tree.h"
#include "util/json_writer.h"
#include "util/random.h"
#include "util/timer.h"

namespace ems {
namespace {

std::string TempDir() {
  const char* env = std::getenv("TMPDIR");
  return env != nullptr ? env : "/tmp";
}

// Strips the "millis" member (the only nondeterministic bytes of a
// result line) so streams compare across runs.
std::string StripMillis(const std::string& line) {
  const size_t key = line.find("\"millis\":");
  if (key == std::string::npos) return line;
  size_t end = key + 9;
  while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  if (end < line.size() && line[end] == ',') ++end;  // eat the separator
  return line.substr(0, key) + line.substr(end);
}

// Pipes the job file through the router once; returns wall millis and
// the sorted, millis-stripped result lines.
double RunOnce(const serve::ShardedServiceOptions& options,
               const std::string& jobs_path, const std::string& out_path,
               std::vector<std::string>* lines_out) {
  serve::ShardedMatchService router(options);
  const int in_fd = ::open(jobs_path.c_str(), O_RDONLY);
  const int out_fd =
      ::open(out_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (in_fd < 0 || out_fd < 0) {
    std::fprintf(stderr, "cannot open %s or %s\n", jobs_path.c_str(),
                 out_path.c_str());
    std::exit(1);
  }
  Timer timer;
  router.RunStream(in_fd, out_fd);
  const double millis = timer.ElapsedMillis();
  ::close(in_fd);
  ::close(out_fd);
  if (lines_out != nullptr) {
    lines_out->clear();
    std::ifstream results(out_path);
    std::string line;
    while (std::getline(results, line)) {
      if (!line.empty()) lines_out->push_back(StripMillis(line));
    }
    std::sort(lines_out->begin(), lines_out->end());
  }
  return millis;
}

// Median over reps of the paired overhead (on_i - off_i) / off_i.
double PairedMedianOverhead(const std::vector<double>& off_ms,
                            const std::vector<double>& on_ms) {
  std::vector<double> ratios;
  for (size_t i = 0; i < off_ms.size(); ++i) {
    ratios.push_back(off_ms[i] > 0.0 ? (on_ms[i] - off_ms[i]) / off_ms[i]
                                     : 0.0);
  }
  std::sort(ratios.begin(), ratios.end());
  const size_t n = ratios.size();
  return n % 2 == 1 ? ratios[n / 2] : 0.5 * (ratios[n / 2 - 1] + ratios[n / 2]);
}

void WriteJson(double off_best, double on_best, double best_of_overhead,
               double paired_overhead, int jobs, int reps, int threads) {
  const char* env = std::getenv("EMS_BENCH_JSON_DIR");
  if (env == nullptr || env[0] == '\0') return;
  JsonWriter w;
  w.BeginObject();
  w.Key("figure");
  w.String("serve_obs");
  w.Key("description");
  w.String("service telemetry plane wall-clock overhead (on vs off)");
  w.Key("jobs");
  w.Int(jobs);
  w.Key("reps");
  w.Int(reps);
  w.Key("threads");
  w.Int(threads);
  w.Key("telemetry_off_best_millis");
  w.Number(off_best);
  w.Key("telemetry_on_best_millis");
  w.Number(on_best);
  w.Key("best_of_overhead_ratio");
  w.Number(best_of_overhead);
  w.Key("paired_median_overhead_ratio");
  w.Number(paired_overhead);
  // The gated statistic.
  w.Key("overhead_ratio");
  w.Number(paired_overhead);
  w.Key("overhead_budget");
  w.Number(0.05);
  w.EndObject();
  const std::string path = std::string(env) + "/BENCH_serve_obs.json";
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
  int activities = 20;
  int traces = 300;
  int jobs = 64;
  int reps = 3;
  int threads = 4;
  uint64_t seed = 23;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&arg](const char* prefix) -> const char* {
      const std::string p = prefix;
      return arg.rfind(p, 0) == 0 ? arg.c_str() + p.size() : nullptr;
    };
    if (const char* v = value("--activities=")) activities = std::atoi(v);
    else if (const char* v = value("--traces=")) traces = std::atoi(v);
    else if (const char* v = value("--jobs=")) jobs = std::atoi(v);
    else if (const char* v = value("--reps=")) reps = std::atoi(v);
    else if (const char* v = value("--threads=")) threads = std::atoi(v);
    else if (const char* v = value("--seed="))
      seed = std::strtoull(v, nullptr, 10);
    else std::fprintf(stderr, "warning: ignoring unknown option '%s'\n",
                      arg.c_str());
  }
  if (activities < 2 || traces < 1 || jobs < 1 || reps < 1 || threads < 1) {
    std::fprintf(stderr, "invalid flag value\n");
    return 2;
  }

  std::printf("=====================================================\n");
  std::printf("serve_obs — telemetry plane overhead (%d jobs, %d threads)\n",
              jobs, threads);
  std::printf("=====================================================\n");

  // Deterministic corpus: one process tree, two playouts; every job
  // matches the same pair so the cache serves all but the first loads
  // and the measured work is match + telemetry, not parsing.
  Rng rng(seed);
  ProcessTreeOptions tree_options;
  tree_options.num_activities = activities;
  std::unique_ptr<ProcessNode> tree = GenerateProcessTree(tree_options, &rng);
  PlayoutOptions playout;
  playout.num_traces = traces;
  const EventLog source1 = PlayoutLog(*tree, playout, &rng);
  const EventLog source2 = PlayoutLog(*tree, playout, &rng);

  const std::string dir = TempDir();
  const std::string log1_path = dir + "/bench_serve_obs_log1.txt";
  const std::string log2_path = dir + "/bench_serve_obs_log2.txt";
  for (const auto& [log, path] :
       {std::pair<const EventLog*, const std::string*>{&source1, &log1_path},
        {&source2, &log2_path}}) {
    Status st = WriteTraceFile(*log, *path);
    if (!st.ok()) {
      std::fprintf(stderr, "error writing %s: %s\n", path->c_str(),
                   st.ToString().c_str());
      return 1;
    }
  }

  const std::string jobs_path = dir + "/bench_serve_obs_jobs.ndjson";
  const std::string out_path = dir + "/bench_serve_obs_results.ndjson";
  {
    std::ofstream jobs_file(jobs_path);
    for (int i = 0; i < jobs; ++i) {
      jobs_file << "{\"id\":\"j" << i << "\",\"log1\":\"" << log1_path
                << "\",\"log2\":\"" << log2_path
                << "\",\"format\":\"trace\"}\n";
    }
    if (!jobs_file) {
      std::fprintf(stderr, "error writing %s\n", jobs_path.c_str());
      return 1;
    }
  }

  serve::ShardedServiceOptions base;
  base.num_shards = 1;
  base.total_threads = threads;
  base.cache_capacity = 4;

  serve::ShardedServiceOptions options_off = base;
  options_off.telemetry = false;
  serve::ShardedServiceOptions options_on = base;
  options_on.telemetry = true;

  // Interleave the two configurations rep by rep instead of sweeping one
  // arm and then the other: page-cache state, CPU frequency, and
  // competing load drift over seconds, and a sequential sweep folds that
  // drift straight into the ratio. Paired runs see the same machine.
  // One unmeasured warmup pair first (cold file reads, pool spin-up).
  std::vector<std::string> lines_off, lines_on;
  RunOnce(options_off, jobs_path, out_path, &lines_off);
  RunOnce(options_on, jobs_path, out_path, &lines_on);
  std::vector<double> off_ms, on_ms;
  for (int rep = 0; rep < reps; ++rep) {
    off_ms.push_back(RunOnce(options_off, jobs_path, out_path, nullptr));
    on_ms.push_back(RunOnce(options_on, jobs_path, out_path, nullptr));
  }
  const double off_best = *std::min_element(off_ms.begin(), off_ms.end());
  const double on_best = *std::min_element(on_ms.begin(), on_ms.end());

  if (lines_off != lines_on) {
    std::fprintf(stderr,
                 "EQUIVALENCE FAILURE: telemetry on/off result streams "
                 "differ (%zu vs %zu lines)\n",
                 lines_off.size(), lines_on.size());
    return 1;
  }

  const double best_of_overhead =
      off_best > 0.0 ? (on_best - off_best) / off_best : 0.0;
  const double overhead = PairedMedianOverhead(off_ms, on_ms);
  std::printf("telemetry off   best %8.3f ms\n", off_best);
  std::printf("telemetry on    best %8.3f ms\n", on_best);
  std::printf("overhead, best of %d per arm: %+.2f%%\n", reps,
              best_of_overhead * 100.0);
  std::printf("overhead, median of %d paired reps: %+.2f%% (budget < 5%%)\n",
              reps, overhead * 100.0);
  std::printf("equivalence: result streams identical (%zu lines)\n",
              lines_on.size());
  WriteJson(off_best, on_best, best_of_overhead, overhead, jobs, reps,
            threads);

  for (const std::string* path : {&log1_path, &log2_path, &jobs_path,
                                  &out_path}) {
    std::remove(path->c_str());
  }
  // 15% of the paired median is the hard failure line: three times the
  // budget, leaving noise headroom on loaded CI machines while still
  // catching regressions.
  if (overhead > 0.15) {
    std::fprintf(stderr, "OVERHEAD FAILURE: %.2f%% > 15%%\n",
                 overhead * 100.0);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace ems

int main(int argc, char** argv) { return ems::Main(argc, argv); }
