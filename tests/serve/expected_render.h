// What the service renders for a non-prob match result, written out
// independently of the service's renderer, so serve tests can hold a
// served answer to Matcher::Match byte for byte.
#pragma once

#include <string>

#include "core/matcher.h"
#include "util/json_writer.h"

namespace ems {
namespace serve {

// The rendering of a match from "correspondences" to the end, as the
// service writes it for a non-prob job.
inline std::string ExpectedTail(const MatchResult& result) {
  JsonWriter w;
  w.BeginObject();
  w.Key("correspondences");
  w.BeginArray();
  for (const Correspondence& c : result.correspondences) {
    w.BeginObject();
    w.Key("left");
    w.BeginArray();
    for (const std::string& n : c.events1) w.String(n);
    w.EndArray();
    w.Key("right");
    w.BeginArray();
    for (const std::string& n : c.events2) w.String(n);
    w.EndArray();
    w.Key("similarity");
    w.Number(c.similarity);
    w.EndObject();
  }
  w.EndArray();
  w.Key("ems");
  w.BeginObject();
  w.Key("iterations");
  w.Int(result.ems_stats.iterations);
  w.Key("formula_evaluations");
  w.Int(static_cast<long long>(result.ems_stats.formula_evaluations +
                               result.composite_stats.formula_evaluations));
  w.EndObject();
  w.EndObject();
  return w.str().substr(1);
}

// The whole response line for `result` under `id`, minus "millis".
inline std::string ExpectedLine(const std::string& id,
                                const MatchResult& result) {
  JsonWriter w;
  w.BeginObject();
  w.Key("id");
  w.String(id);
  w.Key("status");
  w.String("ok");
  w.EndObject();
  std::string head = w.str();
  head.pop_back();  // '}'
  return head + "," + ExpectedTail(result);
}

}  // namespace serve
}  // namespace ems
