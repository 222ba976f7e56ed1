#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>

#include "assignment/selection.h"
#include "core/ems_similarity.h"
#include "graph/dependency_graph.h"
#include "log/xes.h"
#include "obs/context.h"
#include "perfbench.h"
#include "serve/log_cache.h"
#include "synth/dataset.h"
#include "text/label_similarity.h"
#include "util/json_writer.h"

namespace perfbench {

using namespace ems;

namespace {

// The traces of `log` in a shuffled order; event ids follow the order in
// which the shuffled log first mentions each name.
EventLog Shuffled(const EventLog& log, Rng* rng) {
  std::vector<size_t> order(log.NumTraces());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng->Shuffle(&order);
  EventLog out;
  for (size_t i : order) {
    std::vector<std::string> names;
    for (EventId e : log.trace(i)) names.push_back(log.EventName(e));
    out.AddTrace(names);
  }
  return out;
}

}  // namespace

void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench_driver: %s\n", message.c_str());
  std::exit(1);
}

void WriteTextFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) Die("cannot write " + path);
}

GeneratedPair MakePair(const PairSpec& spec, uint64_t order_seed) {
  PairOptions options;
  options.num_activities = spec.activities;
  options.num_traces = spec.traces;
  options.seed = spec.spec_seed;
  LogPair pair = MakeLogPair(Testbed::kDsFB, options);
  GeneratedPair out;
  Rng order_rng(order_seed);
  out.log1 = Shuffled(pair.log1, &order_rng);
  out.log2 = Shuffled(pair.log2, &order_rng);
  out.truth = std::move(pair.truth);
  if (spec.append_batches > 0) {
    out.appends =
        MakeAppendBatches(options, spec.batch_traces, spec.append_batches);
  }
  return out;
}

void WriteLogFile(const EventLog& log, const std::string& path) {
  Status s = WriteXesFile(log, path);
  if (!s.ok()) Die("writing " + path + ": " + s.ToString());
}

EventLog LoadLog(const std::string& path) {
  Result<EventLog> log = serve::LoadEventLog(path, "auto");
  if (!log.ok()) Die("reading " + path + ": " + log.status().ToString());
  return std::move(log).value();
}

std::string Digest(const std::vector<Correspondence>& found) {
  std::string out;
  char bits[40];
  for (const Correspondence& c : found) {
    for (const std::string& n : c.events1) out += n + '\x1f';
    out += '|';
    for (const std::string& n : c.events2) out += n + '\x1f';
    uint64_t sim = 0;
    uint64_t conf = 0;
    std::memcpy(&sim, &c.similarity, sizeof sim);
    std::memcpy(&conf, &c.confidence, sizeof conf);
    std::snprintf(bits, sizeof bits, "%016" PRIx64 "%016" PRIx64, sim, conf);
    out += bits;
    out += '\n';
  }
  return out;
}

namespace {

EventLog ReadLogFile(const std::string& path) {
  Result<EventLog> log = ReadXesFile(path);
  if (!log.ok()) Die("reading " + path + ": " + log.status().ToString());
  return std::move(log).value();
}

// The 1:1 exact pipeline of Matcher::Match, one public call per layer.
PairOp RunLayered(const std::string& a, const std::string& b,
                  const MatchOptions& options, ObsContext* obs) {
  if (options.engine != SimilarityEngine::kExact || options.match_composites ||
      options.prob.enabled ||
      options.selection != SelectionStrategy::kMaxTotalSimilarity) {
    Die("the layered pipeline covers exact 1:1 Hungarian matching only");
  }
  PairOp op;
  op.input_bytes = std::filesystem::file_size(a) + std::filesystem::file_size(b);
  ScopedSpan root(obs, "op");
  EventLog log1;
  EventLog log2;
  {
    ScopedSpan span(obs, "log.parse");
    log1 = ReadLogFile(a);
  }
  {
    ScopedSpan span(obs, "log.parse");
    log2 = ReadLogFile(b);
  }
  DependencyGraphOptions graph_options;
  graph_options.min_edge_frequency = options.min_edge_frequency;
  DependencyGraph g1;
  DependencyGraph g2;
  {
    ScopedSpan span(obs, "graph.build");
    g1 = DependencyGraph::Build(log1, graph_options);
  }
  {
    ScopedSpan span(obs, "graph.build");
    g2 = DependencyGraph::Build(log2, graph_options);
  }
  std::vector<std::vector<double>> labels;
  const std::vector<std::vector<double>>* labels_ptr = nullptr;
  if (options.label_measure != LabelMeasure::kNone) {
    std::unique_ptr<LabelSimilarity> measure =
        MakeLabelMeasure(options.label_measure);
    ScopedSpan span(obs, "text.label");
    labels = LabelSimilarityMatrix(g1, g2, *measure, options.ems.pool);
    labels_ptr = &labels;
  }
  SimilarityMatrix similarity;
  {
    ScopedSpan span(obs, "core.ems");
    EmsSimilarity ems(g1, g2, options.ems, labels_ptr);
    similarity = ems.Compute();
    op.ems = ems.stats();
    op.coeff_table_bytes = ems.coefficient_table_bytes();
  }
  const std::vector<std::vector<double>> real = similarity.RealSubmatrix(
      g1.has_artificial(), g2.has_artificial());
  SelectionOptions selection;
  selection.min_similarity = options.min_match_similarity;
  std::vector<Match> matches;
  {
    ScopedSpan span(obs, "assignment.select");
    matches = SelectMaxTotalSimilarity(real, selection);
  }
  const NodeId off1 = g1.has_artificial() ? 1 : 0;
  const NodeId off2 = g2.has_artificial() ? 1 : 0;
  for (const Match& m : matches) {
    Correspondence c;
    c.similarity = m.similarity;
    for (EventId e : g1.Members(m.row + off1)) {
      c.events1.push_back(log1.EventName(e));
    }
    for (EventId e : g2.Members(m.col + off2)) {
      c.events2.push_back(log2.EventName(e));
    }
    if (c.events1.empty() || c.events2.empty()) continue;
    op.found.push_back(std::move(c));
  }
  return op;
}

}  // namespace

PairOp RunPairOp(const std::string& a, const std::string& b,
                 const MatchOptions& options, bool layered, ObsContext* obs) {
  const Clock::time_point t0 = Clock::now();
  PairOp op;
  if (layered) {
    op = RunLayered(a, b, options, obs);
  } else {
    const EventLog log1 = LoadLog(a);
    const EventLog log2 = LoadLog(b);
    Result<MatchResult> result = Matcher(options).Match(log1, log2);
    if (!result.ok()) Die("match failed: " + result.status().ToString());
    op.found = std::move(result->correspondences);
    op.ems = result->ems_stats;
  }
  op.millis = MillisBetween(t0, Clock::now());
  return op;
}

void WriteTracedOps(const ObsContext& obs, const std::vector<PairOp>& ops,
                    JsonWriter* w) {
  const std::vector<SpanRecord> spans = obs.trace.Snapshot();
  // Time each span's children cover, and the root ("op") of every span.
  std::vector<int64_t> child_us(spans.size(), 0);
  std::vector<size_t> root(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    const size_t parent = static_cast<size_t>(s.parent);
    if (s.parent >= 0) child_us[parent] += s.duration_us;
    root[i] = s.parent < 0 ? i : root[parent];
  }
  std::vector<size_t> op_spans;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent < 0 && spans[i].name == "op") op_spans.push_back(i);
  }
  if (op_spans.size() != ops.size()) Die("traced ops and op spans disagree");
  w->BeginArray();
  for (size_t k = 0; k < ops.size(); ++k) {
    const size_t i = op_spans[k];
    const SpanRecord& op = spans[i];
    std::map<std::string, std::pair<int64_t, int64_t>> layers;  // total, self
    for (size_t j = i + 1; j < spans.size() && root[j] == i; ++j) {
      auto& [total, self] = layers[spans[j].name];
      total += spans[j].duration_us;
      self += spans[j].duration_us - child_us[j];
    }
    w->BeginObject();
    w->Key("op_id");
    w->Int(op.id);
    w->Key("op_ms");
    w->Number(op.duration_us / 1000.0);
    w->Key("self_ms");
    w->Number((op.duration_us - child_us[i]) / 1000.0);
    w->Key("layers");
    w->BeginObject();
    for (const auto& [name, times] : layers) {
      w->Key(name);
      w->BeginObject();
      w->Key("ms");
      w->Number(times.first / 1000.0);
      w->Key("self_ms");
      w->Number(times.second / 1000.0);
      w->EndObject();
    }
    w->EndObject();
    const EmsStats& ems = ops[k].ems;
    w->Key("iterations");
    w->Int(ems.iterations);
    w->Key("evals");
    w->Int(static_cast<long long>(ems.formula_evaluations));
    w->Key("pruned");
    w->Int(static_cast<long long>(ems.pairs_pruned_converged));
    w->Key("skipped");
    w->Int(static_cast<long long>(ems.pairs_skipped_unchanged));
    w->Key("coeff_table_bytes");
    w->Int(static_cast<long long>(ops[k].coeff_table_bytes));
    w->Key("input_bytes");
    w->Int(static_cast<long long>(ops[k].input_bytes));
    w->EndObject();
  }
  w->EndArray();
}

void ResetPeakRss(int pid) {
  const std::string path = pid == 0 ? std::string("/proc/self/clear_refs")
                                    : "/proc/" + std::to_string(pid) +
                                          "/clear_refs";
  std::ofstream out(path);
  out << "5";  // resets VmHWM to the current resident set
  if (!out) Die("cannot reset the peak-RSS mark through " + path);
}

double PeakRssMb(int pid) {
  const std::string path = pid == 0 ? std::string("/proc/self/status")
                                    : "/proc/" + std::to_string(pid) +
                                          "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  Die("no VmHWM in " + path);
}

}  // namespace perfbench
