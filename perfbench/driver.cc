// perfbench_driver: runs one benchmark workload and writes its raw
// measurements as JSON. run.py builds and invokes it:
//
//   perfbench_driver --workload=NAME --seed=N --seconds=S --trace=0|1
//                    --work=DIR --out=RAW.json [--trace-out=TRACE.json]
//                    [--serve-bin=PATH]
//
// Every input is generated from --seed into --work; the program under
// test only ever sees those files.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "perfbench.h"

namespace {

using namespace perfbench;

// A pair_xes op's time at the commit that set the benchmark (0.28-0.43 s
// between the host's fast and slow states): the op count is --seconds
// over this, fixed, so every run reports the same percentiles.
constexpr double kPairXesOpSeconds = 0.40;

// serve_mixed's open-loop rate, about 40% of the capacity measured for
// its mix (12 s runs kept a flat p50 at 350 req/s and built a backlog at
// 400), and the latency limit its goodput counts against.
constexpr double kServeRate = 150;
constexpr double kServeLatencyLimitMs = 100;

int OpsFor(double seconds, double op_seconds) {
  return std::max(2, static_cast<int>(std::lround(seconds / op_seconds)));
}

bool ParseFlag(const std::string& arg, const char* name, std::string* out) {
  const std::string prefix = std::string("--") + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *out = arg.substr(prefix.size());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string v;
    if (ParseFlag(arg, "workload", &v)) flags.workload = v;
    else if (ParseFlag(arg, "seed", &v)) flags.seed = std::stoull(v);
    else if (ParseFlag(arg, "seconds", &v)) flags.seconds = std::stod(v);
    else if (ParseFlag(arg, "trace", &v)) flags.trace = v == "1";
    else if (ParseFlag(arg, "work", &v)) flags.work_dir = v;
    else if (ParseFlag(arg, "out", &v)) flags.out_path = v;
    else if (ParseFlag(arg, "trace-out", &v)) flags.trace_path = v;
    else if (ParseFlag(arg, "serve-bin", &v)) flags.serve_bin = v;
    else Die("unknown argument " + arg);
  }
  if (flags.work_dir.empty() || flags.out_path.empty() || flags.seconds <= 0) {
    Die("--work, --out and --seconds > 0 are required");
  }
  if (flags.trace && flags.trace_path.empty()) Die("--trace=1 needs --trace-out");
  std::filesystem::create_directories(flags.work_dir);

  if (flags.workload == "pair_xes") {
    PairWorkload def;
    def.spec.activities = 100;
    def.spec.traces = 1000;
    def.spec.spec_seed = 11;
    def.ops = OpsFor(flags.seconds, kPairXesOpSeconds);
    return RunPairWorkload(flags, def);
  }
  if (flags.workload == "serve_mixed") {
    ServeWorkload def;
    def.pair.batch_traces = 5;
    // One spec for all twelve pairs: with a spec seed per pair, match
    // costs ranged 0.7-2.7 ms and the p50 fell between their modes.
    def.pair.spec_seed = 104;
    def.corpus_seed = 2014;
    def.rate = kServeRate;
    def.latency_limit_ms = kServeLatencyLimitMs;
    def.requests = static_cast<int>(std::lround(flags.seconds * def.rate));
    if (flags.serve_bin.empty()) Die("serve_mixed needs --serve-bin");
    return RunServeWorkload(flags, def);
  }
  Die("unknown workload '" + flags.workload + "'");
}
