#include "obs/report.h"

#include <cstdio>
#include <fstream>

#include "obs/context.h"
#include "util/json_writer.h"

namespace ems {

namespace {

void WriteEmsStats(const EmsStats& s, JsonWriter* w) {
  w->BeginObject();
  w->Key("iterations");
  w->Int(s.iterations);
  w->Key("formula_evaluations");
  w->Int(static_cast<long long>(s.formula_evaluations));
  w->Key("pairs_pruned_converged");
  w->Int(static_cast<long long>(s.pairs_pruned_converged));
  w->Key("pairs_skipped_unchanged");
  w->Int(static_cast<long long>(s.pairs_skipped_unchanged));
  w->EndObject();
}

void WriteCompositeStats(const CompositeStats& s, JsonWriter* w) {
  w->BeginObject();
  w->Key("formula_evaluations");
  w->Int(static_cast<long long>(s.formula_evaluations));
  w->Key("candidates_evaluated");
  w->Int(s.candidates_evaluated);
  w->Key("candidates_pruned_by_bound");
  w->Int(s.candidates_pruned_by_bound);
  w->Key("merges_accepted");
  w->Int(s.merges_accepted);
  w->Key("rows_frozen");
  w->Int(static_cast<long long>(s.rows_frozen));
  w->Key("ems");
  WriteEmsStats(s.ems, w);
  w->EndObject();
}

Status WriteStringToFile(const std::string& path, const std::string& body) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open '" + path + "' for writing");
  out << body << "\n";
  if (!out) return Status::IOError("write to '" + path + "' failed");
  return Status::OK();
}

}  // namespace

std::string PipelineReport::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("total_millis");
  w.Number(total_millis);
  w.Key("spans");
  if (obs != nullptr) {
    obs->trace.WriteJson(&w);
  } else {
    w.BeginArray();
    w.EndArray();
  }
  w.Key("dropped_spans");
  w.Int(obs != nullptr ? static_cast<long long>(obs->trace.dropped_spans())
                       : 0);
  w.Key("metrics");
  if (obs != nullptr) {
    obs->metrics.WriteJson(&w);
  } else {
    w.BeginObject();
    w.EndObject();
  }
  w.Key("ems");
  WriteEmsStats(ems_stats, &w);
  w.Key("composite");
  WriteCompositeStats(composite_stats, &w);
  w.EndObject();
  return w.str();
}

std::string PipelineReport::ToChromeTraceJson() const {
  if (obs == nullptr) return "{}";
  return obs->trace.ToChromeTraceJson();
}

std::string PipelineReport::RenderText() const {
  char line[160];
  std::string out;
  std::snprintf(line, sizeof(line), "total: %.3f ms\n", total_millis);
  out += line;
  std::snprintf(line, sizeof(line),
                "ems: %d iterations, %llu formula evaluations, %llu pairs "
                "pruned, %llu pairs delta-skipped\n",
                ems_stats.iterations,
                static_cast<unsigned long long>(ems_stats.formula_evaluations),
                static_cast<unsigned long long>(
                    ems_stats.pairs_pruned_converged),
                static_cast<unsigned long long>(
                    ems_stats.pairs_skipped_unchanged));
  out += line;
  if (composite_stats.candidates_evaluated > 0) {
    std::snprintf(line, sizeof(line),
                  "composite: %d candidates, %d pruned by bound, %d merges\n",
                  composite_stats.candidates_evaluated,
                  composite_stats.candidates_pruned_by_bound,
                  composite_stats.merges_accepted);
    out += line;
  }
  if (obs != nullptr) {
    bool any_histogram = false;
    obs->metrics.ForEachQuantileHistogram(
        [&](const std::string& name, const QuantileHistogram& h) {
          if (h.count() == 0) return;
          if (!any_histogram) out += "histograms:\n";
          any_histogram = true;
          std::snprintf(line, sizeof(line),
                        "  %s: count=%llu p50=%.3f p90=%.3f p99=%.3f\n",
                        name.c_str(),
                        static_cast<unsigned long long>(h.count()),
                        h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99));
          out += line;
        });
    out += "spans:\n";
    out += obs->trace.RenderTree();
  }
  return out;
}

Status PipelineReport::WriteJsonFile(const std::string& path) const {
  return WriteStringToFile(path, ToJson());
}

Status PipelineReport::WriteChromeTraceFile(const std::string& path) const {
  return WriteStringToFile(path, ToChromeTraceJson());
}

PipelineReport BuildPipelineReport(const ObsContext* obs,
                                   const EmsStats& ems_stats,
                                   const CompositeStats& composite_stats,
                                   double total_millis) {
  PipelineReport report;
  report.obs = obs;
  report.ems_stats = ems_stats;
  report.composite_stats = composite_stats;
  report.total_millis = total_millis;
  return report;
}

}  // namespace ems
