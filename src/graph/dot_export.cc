#include "graph/dot_export.h"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <utility>
#include <vector>

#include "util/string_util.h"

namespace ems {

namespace {

// DOT string literal: quotes and escapes embedded quotes/backslashes.
std::string DotQuote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

void EmitNodesAndEdges(const DependencyGraph& g, const DotOptions& options,
                       const std::string& prefix, std::ostream& out) {
  for (NodeId v = 0; v < static_cast<NodeId>(g.NumNodes()); ++v) {
    if (g.IsArtificial(v) && !options.show_artificial) continue;
    out << "  " << prefix << v << " [label="
        << DotQuote(g.NodeName(v) + "\\nf=" +
                    FormatDouble(g.NodeFrequency(v), 2));
    if (g.IsArtificial(v)) out << ", shape=diamond, style=dashed";
    out << "];\n";
  }
  for (NodeId v = 0; v < static_cast<NodeId>(g.NumNodes()); ++v) {
    if (g.IsArtificial(v) && !options.show_artificial) continue;
    const auto& succ = g.Successors(v);
    const auto& freq = g.SuccessorFrequencies(v);
    for (size_t i = 0; i < succ.size(); ++i) {
      if (g.IsArtificial(succ[i]) && !options.show_artificial) continue;
      out << "  " << prefix << v << " -> " << prefix << succ[i];
      bool artificial_edge = g.IsArtificial(v) || g.IsArtificial(succ[i]);
      out << " [";
      if (options.edge_frequencies) {
        out << "label=" << DotQuote(FormatDouble(freq[i], 2));
      }
      if (artificial_edge) {
        out << (options.edge_frequencies ? ", " : "") << "style=dashed";
      }
      out << "];\n";
    }
  }
}

}  // namespace

Status WriteDot(const DependencyGraph& g, std::ostream& out,
                const DotOptions& options) {
  out << "digraph " << options.name << " {\n";
  out << "  rankdir=LR;\n  node [shape=box, fontsize=10];\n";
  EmitNodesAndEdges(g, options, "n", out);
  out << "}\n";
  if (!out) return Status::IOError("write failed");
  return Status::OK();
}

Status WriteMatchDot(const MatchResult& result, std::ostream& out,
                     const DotOptions& options) {
  out << "digraph " << options.name << " {\n";
  out << "  rankdir=LR;\n  node [shape=box, fontsize=10];\n";
  out << "  subgraph cluster_left {\n    label=\"log 1\";\n";
  EmitNodesAndEdges(result.graph1, options, "a", out);
  out << "  }\n";
  out << "  subgraph cluster_right {\n    label=\"log 2\";\n";
  EmitNodesAndEdges(result.graph2, options, "b", out);
  out << "  }\n";

  // Cross-edges: resolve correspondences back to node ids by members. A
  // correspondence lists its node's member names in Members() order, and
  // the display name joins them in id order. Names may themselves
  // contain '+', so the names are joined, never the display name split.
  auto find_node = [](const DependencyGraph& g,
                      const std::vector<std::string>& names) -> NodeId {
    for (NodeId v = 0; v < static_cast<NodeId>(g.NumNodes()); ++v) {
      if (g.IsArtificial(v)) continue;
      const std::vector<EventId>& members = g.Members(v);
      if (members.size() != names.size()) continue;
      std::vector<std::pair<EventId, std::string>> by_id;
      for (size_t i = 0; i < names.size(); ++i) {
        by_id.emplace_back(members[i], names[i]);
      }
      std::sort(by_id.begin(), by_id.end());
      std::vector<std::string> parts;
      for (auto& [id, name] : by_id) parts.push_back(std::move(name));
      if (Join(parts, "+") == g.NodeName(v)) return v;
    }
    return -1;
  };
  for (const Correspondence& c : result.correspondences) {
    NodeId left = find_node(result.graph1, c.events1);
    NodeId right = find_node(result.graph2, c.events2);
    if (left < 0 || right < 0) continue;
    out << "  a" << left << " -> b" << right
        << " [dir=none, style=dashed, color=red, label="
        << DotQuote(FormatDouble(c.similarity, 2)) << "];\n";
  }
  out << "}\n";
  if (!out) return Status::IOError("write failed");
  return Status::OK();
}

std::string ToDot(const DependencyGraph& g, const DotOptions& options) {
  std::ostringstream out;
  (void)WriteDot(g, out, options);
  return out.str();
}

}  // namespace ems
