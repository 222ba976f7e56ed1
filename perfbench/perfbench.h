// Shared pieces of the benchmark driver (perfbench_driver). The driver
// generates every input from a seed, writes it to files, runs one
// workload against those files and writes the raw measurements as one
// JSON document; run.py turns them into the reported metrics.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/matcher.h"
#include "eval/ground_truth.h"
#include "log/event_log.h"

namespace ems {
struct ObsContext;
class JsonWriter;
}  // namespace ems

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Set-up repetitions per run; setup_s is their median.
constexpr int kSetups = 9;

/// Command line of one driver run (see driver.cc for the flag names).
struct Flags {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 30;
  bool trace = false;
  std::string work_dir;
  std::string out_path;
  std::string trace_path;  // Chrome trace written by traced runs
  std::string serve_bin;   // ems_serve, for serve_mixed
};

/// The inputs of one generated log pair.
struct PairSpec {
  int activities = 20;
  int traces = 150;
  uint64_t spec_seed = 1;  // fixes the pair; the run's seed orders traces
  int append_batches = 0;  // MakeAppendBatches: log 1's play-out continued
  int batch_traces = 0;
};

struct GeneratedPair {
  ems::EventLog log1;
  ems::EventLog log2;
  ems::GroundTruth truth;
  std::vector<ems::EventLog> appends;
};

/// The DS-FB pair MakeLogPair builds from `spec.spec_seed`, with
/// `order_seed` shuffling the order of the traces in both logs. The spec
/// seed fixes the pair's size and answer: across seeds 1 to 30,
/// MakeLogPair's 100-activity pairs range from 0.5 to 6.1 MB of XES per
/// log.
GeneratedPair MakePair(const PairSpec& spec, uint64_t order_seed);

/// Writes `log` as XES.
void WriteLogFile(const ems::EventLog& log, const std::string& path);

/// Loads a log the way ems_match does (serve::LoadEventLog); aborts the
/// run on failure.
ems::EventLog LoadLog(const std::string& path);

/// Stable digest of a correspondence list: names plus the exact bits of
/// every similarity and confidence. Equal digests mean equal results.
std::string Digest(const std::vector<ems::Correspondence>& found);

/// One op of the pair pipeline, timed. `layered` runs the pipeline as
/// separate public calls per layer (log, graph, text, core, assignment)
/// with a span around each, recorded into `obs`; otherwise it is what
/// `ems_match --threads=0 A B` does.
struct PairOp {
  double millis = 0;
  std::vector<ems::Correspondence> found;
  ems::EmsStats ems;
  size_t coeff_table_bytes = 0;  // layered ops only
  size_t input_bytes = 0;        // layered ops only
};
PairOp RunPairOp(const std::string& a, const std::string& b,
                 const ems::MatchOptions& options, bool layered,
                 ems::ObsContext* obs);

/// The layered ops recorded in `obs`, as a JSON array: per op its span
/// time, self time and per-layer times (from the root spans named "op",
/// which must be `ops` in order), plus its EMS counters.
void WriteTracedOps(const ems::ObsContext& obs,
                    const std::vector<PairOp>& ops, ems::JsonWriter* w);

/// Resets the peak-RSS mark of `pid` (0 = this process) and reads it.
void ResetPeakRss(int pid);
double PeakRssMb(int pid);

/// Reports a fatal error on stderr and exits nonzero.
[[noreturn]] void Die(const std::string& message);

/// Writes `text` to `path` or dies.
void WriteTextFile(const std::string& path, const std::string& text);

/// A closed-loop pair workload: one XES pair, matched serially `ops`
/// times with qgram labels.
struct PairWorkload {
  PairSpec spec;
  int ops = 0;
};

/// The open-loop serving workload (serve.cc).
struct ServeWorkload {
  int read_pairs = 8;
  int stream_pairs = 4;
  PairSpec pair;              // the spec of every read and stream pair
  int corpus_members = 8;
  uint64_t corpus_seed = 1;
  int requests = 0;           // fixed schedule length
  double rate = 0;            // requests per second
  double latency_limit_ms = 0;
};

int RunPairWorkload(const Flags& flags, const PairWorkload& def);
int RunServeWorkload(const Flags& flags, const ServeWorkload& def);

}  // namespace perfbench
