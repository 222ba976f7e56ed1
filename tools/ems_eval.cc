// ems_eval: score a matching against ground truth. Both files are TSV
// link lists (header "left<TAB>right", one correspondence link per row —
// exactly what ems_generate exports and `ems_match --tsv` emits, after
// expanding "a + b" groups into their member links).
//
//   ems_eval [--threads=N] [--metrics-out=PATH] TRUTH.tsv FOUND.tsv
//
// --threads controls the worker pool (default hardware concurrency,
// 0 = serial); with more than one worker the two link files load
// concurrently. --metrics-out writes a PipelineReport JSON with spans
// for the load_truth / load_found / evaluate phases and link counters
// (parallel loads are counted, not spanned — spans are single-thread).
#include <cstdio>
#include <fstream>
#include <set>
#include <string>

#include "eval/metrics.h"
#include "exec/parallel.h"
#include "exec/thread_pool.h"
#include "obs/context.h"
#include "obs/report.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace {

using namespace ems;

// Splits an "a + b + c" group cell into member names.
std::vector<std::string> ExpandGroup(const std::string& cell) {
  std::vector<std::string> members;
  for (const std::string& part : Split(cell, '+')) {
    std::string_view trimmed = Trim(part);
    if (!trimmed.empty()) members.emplace_back(trimmed);
  }
  return members;
}

Result<std::set<std::pair<std::string, std::string>>> ReadLinks(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open '" + path + "'");
  std::set<std::pair<std::string, std::string>> links;
  std::string line;
  bool first = true;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (Trim(line).empty()) continue;
    std::vector<std::string> cells = Split(line, '\t');
    if (cells.size() < 2) {
      return Status::ParseError(path + ":" + std::to_string(line_no) +
                                ": expected two tab-separated columns");
    }
    if (first) {
      first = false;
      std::string l = ToLower(Trim(cells[0]));
      if (l == "left") continue;  // header row
    }
    // Group cells expand to the cartesian product of their members.
    for (const std::string& l : ExpandGroup(cells[0])) {
      for (const std::string& r : ExpandGroup(cells[1])) {
        links.emplace(l, r);
      }
    }
  }
  return links;
}

}  // namespace

int main(int argc, char** argv) {
  std::string metrics_out;
  int threads = -1;  // -1 = unset -> hardware concurrency
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    const std::string prefix = "--metrics-out=";
    const std::string threads_prefix = "--threads=";
    if (arg.rfind(prefix, 0) == 0) {
      metrics_out = arg.substr(prefix.size());
    } else if (arg.rfind(threads_prefix, 0) == 0) {
      const Status parsed = ParseFlagNumber(
          "threads", arg.substr(threads_prefix.size()), &threads);
      if (!parsed.ok()) {
        std::fprintf(stderr, "error: %s\n", parsed.message().c_str());
        return 2;
      }
      if (threads < 0) {
        std::fprintf(stderr, "error: --threads must be >= 0\n");
        return 2;
      }
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "error: unknown option '%s'\n", arg.c_str());
      return 2;
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.size() != 2) {
    std::fprintf(stderr,
                 "usage: %s [--threads=N] [--metrics-out=PATH] TRUTH.tsv "
                 "FOUND.tsv\n",
                 argv[0]);
    return 2;
  }

  ObsContext obs_storage;
  ObsContext* obs = metrics_out.empty() ? nullptr : &obs_storage;
  Timer total_timer;

  // CLI contract: default = hardware concurrency, 0 = serial.
  const int workers =
      threads < 0 ? exec::ThreadPool::EffectiveThreads(0) : threads;
  Result<std::set<std::pair<std::string, std::string>>> truth =
      Status::Internal("not loaded");
  Result<std::set<std::pair<std::string, std::string>>> found =
      Status::Internal("not loaded");
  if (workers > 1) {
    exec::ThreadPool pool(2);
    exec::TaskGroup group(&pool);
    group.Run([&]() -> Status {
      truth = ReadLinks(positional[0]);
      return Status::OK();
    });
    group.Run([&]() -> Status {
      found = ReadLinks(positional[1]);
      return Status::OK();
    });
    (void)group.Wait();
  } else {
    ScopedSpan truth_span(obs, "load_truth");
    truth = ReadLinks(positional[0]);
    truth_span.End();
    ScopedSpan found_span(obs, "load_found");
    found = ReadLinks(positional[1]);
    found_span.End();
  }
  if (!truth.ok()) {
    std::fprintf(stderr, "error: %s\n", truth.status().ToString().c_str());
    return 1;
  }
  if (!found.ok()) {
    std::fprintf(stderr, "error: %s\n", found.status().ToString().c_str());
    return 1;
  }
  ScopedSpan eval_span(obs, "evaluate");
  MatchQuality q = EvaluateLinks(*truth, *found);
  eval_span.End();
  std::printf("truth links:   %zu\n", q.truth_links);
  std::printf("found links:   %zu\n", q.found_links);
  std::printf("correct links: %zu\n", q.correct_links);
  std::printf("precision:     %.4f\n", q.precision);
  std::printf("recall:        %.4f\n", q.recall);
  std::printf("f-measure:     %.4f\n", q.f_measure);

  if (obs != nullptr) {
    ObsIncrement(obs, "eval.truth_links", q.truth_links);
    ObsIncrement(obs, "eval.found_links", q.found_links);
    ObsIncrement(obs, "eval.correct_links", q.correct_links);
    ObsSetGauge(obs, "eval.precision", q.precision);
    ObsSetGauge(obs, "eval.recall", q.recall);
    ObsSetGauge(obs, "eval.f_measure", q.f_measure);
    PipelineReport report = BuildPipelineReport(
        obs, EmsStats{}, CompositeStats{}, total_timer.ElapsedMillis());
    Status st = report.WriteJsonFile(metrics_out);
    if (!st.ok()) {
      std::fprintf(stderr, "error writing %s: %s\n", metrics_out.c_str(),
                   st.ToString().c_str());
      return 1;
    }
  }
  return 0;
}
