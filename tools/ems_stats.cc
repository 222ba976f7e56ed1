// ems_stats: event-log inspection — summary counters, the most frequent
// trace variants, per-event frequencies, and (optionally) the dependency
// graph as Graphviz DOT.
//
//   ems_stats [--format=auto|trace|csv|xes|mxml] [--variants=N] [--dot]
//             [--cache-dir=PATH] LOG
//
// With --cache-dir the parsed log is snapshotted into the persistent
// artifact store (docs/PERSISTENCE.md) and re-runs load the snapshot
// instead of re-parsing.
#include <cstdio>
#include <optional>
#include <string>

#include "graph/dot_export.h"
#include "log/log_filter.h"
#include "log/log_stats.h"
#include "serve/log_cache.h"
#include "store/artifact_store.h"
#include "util/string_util.h"

using namespace ems;

int main(int argc, char** argv) {
  std::string format = "auto";
  size_t show_variants = 5;
  bool dot = false;
  std::string cache_dir;
  std::string path;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--format=", 0) == 0) format = arg.substr(9);
    else if (arg.rfind("--variants=", 0) == 0) {
      const Status parsed =
          ParseFlagNumber("variants", arg.substr(11), &show_variants);
      if (!parsed.ok()) {
        std::fprintf(stderr, "error: %s\n", parsed.message().c_str());
        return 2;
      }
    } else if (arg.rfind("--cache-dir=", 0) == 0) {
      cache_dir = arg.substr(12);
    } else if (arg == "--dot") dot = true;
    else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      return 2;
    } else path = arg;
  }
  if (path.empty()) {
    std::fprintf(stderr, "usage: %s [options] LOG\n", argv[0]);
    return 2;
  }

  std::optional<store::ArtifactStore> artifact_store;
  if (!cache_dir.empty()) {
    store::ArtifactStoreOptions store_options;
    store_options.dir = cache_dir;
    Result<store::ArtifactStore> opened =
        store::ArtifactStore::Open(std::move(store_options));
    if (opened.ok()) {
      artifact_store = std::move(opened).value();
    } else {
      std::fprintf(stderr, "warning: %s; running without cache\n",
                   opened.status().message().c_str());
    }
  }

  Result<EventLog> log = serve::LoadEventLogThroughStore(
      artifact_store.has_value() ? &*artifact_store : nullptr, path, format);
  if (!log.ok()) {
    std::fprintf(stderr, "error: %s\n", log.status().ToString().c_str());
    return 1;
  }

  LogSummary s = Summarize(*log);
  std::printf("%s\n", path.c_str());
  std::printf("  traces:            %zu\n", s.num_traces);
  std::printf("  distinct events:   %zu\n", s.num_events);
  std::printf("  occurrences:       %zu\n", s.total_occurrences);
  std::printf("  trace variants:    %zu\n", s.num_variants);
  std::printf("  trace length:      min %zu / mean %.1f / max %zu\n",
              s.min_trace_length, s.mean_trace_length, s.max_trace_length);

  LogStats stats(*log);
  std::printf("\nevent frequencies (fraction of traces):\n");
  for (EventId e = 0; e < static_cast<EventId>(log->NumEvents()); ++e) {
    std::printf("  %-40s %.3f\n", log->EventName(e).c_str(),
                stats.EventFrequency(e));
  }

  std::vector<TraceVariant> variants = TraceVariants(*log);
  std::printf("\ntop trace variants:\n");
  for (size_t i = 0; i < std::min(show_variants, variants.size()); ++i) {
    std::printf("  %4zux  %s\n", variants[i].count,
                Join(variants[i].activities, " -> ").c_str());
  }

  if (dot) {
    DependencyGraph g = DependencyGraph::Build(*log);
    std::printf("\n%s", ToDot(g).c_str());
  }
  return 0;
}
