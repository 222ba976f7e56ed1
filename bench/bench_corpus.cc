// Corpus top-k benchmark and equivalence harness (docs/CORPUS.md):
// brute-force all-pairs ranking vs the q-gram-indexed bound-ranked
// scheduler on seeded synthetic warehouse corpora.
//
// For every corpus size, the harness builds the index once, runs the
// same member queries through both paths, and requires the indexed
// ranking to be byte-identical to brute force — names, scores (bitwise),
// and order — so recall@k is 1.0 by construction; the binary exits
// nonzero on any divergence. It reports the index build time, the mean
// per-query wall time of both paths, the speedup, and the fraction of
// candidates disposed of by the stage-0 bound resp. the in-run abort.
//
// When EMS_BENCH_JSON_DIR names a directory, writes BENCH_corpus.json
// there (atomically, tmp + rename) with one record per corpus size.
//
// Flags: --sizes=N[,N...] (default 1000), --family-size=N (default 16),
//        --k=N (default 10), --queries=N (default 3),
//        --alpha=A (default 0.3), --threads=N, --seed=N (default 2014).
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/matcher.h"
#include "exec/thread_pool.h"
#include "index/corpus_index.h"
#include "index/topk_scheduler.h"
#include "synth/dataset.h"
#include "util/json_writer.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace ems {
namespace {

struct SizeResult {
  size_t members = 0;
  size_t k = 0;
  int queries = 0;
  double build_millis = 0.0;
  double brute_mean_millis = 0.0;
  double indexed_mean_millis = 0.0;
  double speedup = 0.0;
  double recall_at_k = 1.0;
  double pruned_fraction = 0.0;   // never started EMS
  double aborted_fraction = 0.0;  // started, killed by the in-run bound
  double exact_fraction = 0.0;    // completed (scored)
  bool identical = true;
};

bool SameHits(const std::vector<index::TopKHit>& a,
              const std::vector<index::TopKHit>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].name != b[i].name) return false;
    // Bitwise, not ==: the acceptance bar is byte-identical rankings.
    if (std::memcmp(&a[i].score, &b[i].score, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

void WriteJson(const std::vector<SizeResult>& results, double alpha,
               int family_size) {
  const char* env = std::getenv("EMS_BENCH_JSON_DIR");
  if (env == nullptr || env[0] == '\0') return;
  JsonWriter w;
  w.BeginObject();
  w.Key("figure");
  w.String("corpus");
  w.Key("description");
  w.String("indexed top-k vs brute-force all-pairs ranking");
  w.Key("threads");
  w.Int(bench::BenchWorkers());
  w.Key("alpha");
  w.Number(alpha);
  w.Key("family_size");
  w.Int(family_size);
  w.Key("groups");
  w.BeginArray();
  for (const SizeResult& r : results) {
    w.BeginObject();
    w.Key("members");
    w.Int(static_cast<long long>(r.members));
    w.Key("k");
    w.Int(static_cast<long long>(r.k));
    w.Key("queries");
    w.Int(r.queries);
    w.Key("build_millis");
    w.Number(r.build_millis);
    w.Key("brute_mean_millis");
    w.Number(r.brute_mean_millis);
    w.Key("indexed_mean_millis");
    w.Number(r.indexed_mean_millis);
    w.Key("speedup");
    w.Number(r.speedup);
    w.Key("recall_at_k");
    w.Number(r.recall_at_k);
    w.Key("pruned_fraction");
    w.Number(r.pruned_fraction);
    w.Key("aborted_fraction");
    w.Number(r.aborted_fraction);
    w.Key("exact_fraction");
    w.Number(r.exact_fraction);
    w.Key("identical");
    w.Bool(r.identical);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  const std::string path = std::string(env) + "/BENCH_corpus.json";
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

}  // namespace
}  // namespace ems

int main(int argc, char** argv) {
  using namespace ems;
  std::vector<size_t> sizes;
  int family_size = 16;
  size_t k = 10;
  int queries = 3;
  double alpha = 0.3;
  uint64_t seed = 2014;
  std::vector<char*> passthrough = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&](const char* name) -> const char* {
      std::string prefix = std::string("--") + name + "=";
      return arg.rfind(prefix, 0) == 0 ? arg.c_str() + prefix.size()
                                       : nullptr;
    };
    Status parsed;
    if (const char* v = value_of("sizes")) {
      for (const std::string& field : Split(v, ',')) {
        size_t size = 0;
        parsed = ParseFlagNumber("sizes", field, &size);
        if (!parsed.ok()) break;
        sizes.push_back(size);
      }
    } else if (const char* v = value_of("family-size")) {
      parsed = ParseFlagNumber("family-size", v, &family_size);
    } else if (const char* v = value_of("k")) {
      parsed = ParseFlagNumber("k", v, &k);
    } else if (const char* v = value_of("queries")) {
      parsed = ParseFlagNumber("queries", v, &queries);
    } else if (const char* v = value_of("alpha")) {
      parsed = ParseFlagNumber("alpha", v, &alpha);
    } else if (const char* v = value_of("seed")) {
      parsed = ParseFlagNumber("seed", v, &seed);
    } else {
      passthrough.push_back(argv[i]);
    }
    if (!parsed.ok()) {
      std::fprintf(stderr, "error: %s\n", parsed.message().c_str());
      return 2;
    }
  }
  bench::Init(static_cast<int>(passthrough.size()), passthrough.data());
  if (sizes.empty()) sizes.push_back(1000);

  bench::PrintHeader("corpus",
                     "indexed top-k vs brute-force all-pairs ranking");

  MatchOptions match;
  match.label_measure = LabelMeasure::kQGramCosine;
  match.ems.alpha = alpha;
  // Parallelism goes across candidates, not inside one EMS run.
  match.ems.num_threads = 1;

  std::vector<SizeResult> results;
  bool all_identical = true;
  for (size_t members : sizes) {
    SynthCorpusOptions corpus_opts;
    corpus_opts.num_members = static_cast<int>(members);
    corpus_opts.members_per_family = family_size;
    corpus_opts.seed = seed;
    std::vector<CorpusMember> corpus = MakeCorpus(corpus_opts);

    index::CorpusIndex index;
    Timer build_timer;
    for (CorpusMember& m : corpus) {
      Status s = index.Add(m.name, std::move(m.log));
      if (!s.ok()) {
        std::fprintf(stderr, "index build failed: %s\n",
                     s.ToString().c_str());
        return 1;
      }
    }
    SizeResult r;
    r.members = index.size();
    r.k = k;
    r.queries = queries;
    r.build_millis = build_timer.ElapsedMillis();

    index::TopKOptions brute_opts;
    brute_opts.k = k;
    brute_opts.match = match;
    brute_opts.pool = bench::BenchPool();
    brute_opts.force_brute_force = true;
    index::TopKOptions indexed_opts = brute_opts;
    indexed_opts.force_brute_force = false;

    double brute_total = 0.0;
    double indexed_total = 0.0;
    uint64_t pruned = 0, aborted = 0, exact = 0, retrieved = 0;
    double recall_total = 0.0;
    for (int q = 0; q < queries; ++q) {
      // Query members spread across the corpus, so different families
      // (and different process sizes) drive the incumbent.
      const size_t qi = (static_cast<size_t>(q) * index.size()) / queries;
      // Prepared under the index's options, which are the match's.
      const PreparedLog& query = index.entry(qi).prepared;

      index::TopKScheduler brute(index, brute_opts);
      Timer bt;
      Result<std::vector<index::TopKHit>> bhits = brute.Query(query);
      brute_total += bt.ElapsedMillis();

      index::TopKScheduler indexed(index, indexed_opts);
      Timer it;
      Result<std::vector<index::TopKHit>> ihits = indexed.Query(query);
      indexed_total += it.ElapsedMillis();

      if (!bhits.ok() || !ihits.ok()) {
        std::fprintf(stderr, "query failed: %s\n",
                     (!bhits.ok() ? bhits.status() : ihits.status())
                         .ToString()
                         .c_str());
        return 1;
      }
      const index::TopKStats& stats = indexed.stats();
      retrieved += stats.candidates_retrieved;
      pruned += stats.pruned_by_bound;
      aborted += stats.aborted_runs;
      exact += stats.exact_runs;
      size_t hit = 0;
      for (const index::TopKHit& b : *bhits) {
        for (const index::TopKHit& i2 : *ihits) {
          if (i2.name == b.name) {
            ++hit;
            break;
          }
        }
      }
      recall_total += bhits->empty()
                          ? 1.0
                          : static_cast<double>(hit) /
                                static_cast<double>(bhits->size());
      if (!SameHits(*bhits, *ihits)) {
        r.identical = false;
        std::fprintf(stderr,
                     "FAIL: indexed ranking diverges from brute force "
                     "(members=%zu query=%zu)\n",
                     members, qi);
      }
    }
    r.brute_mean_millis = brute_total / queries;
    r.indexed_mean_millis = indexed_total / queries;
    r.speedup = r.indexed_mean_millis > 0.0
                    ? r.brute_mean_millis / r.indexed_mean_millis
                    : 0.0;
    r.recall_at_k = recall_total / queries;
    if (retrieved > 0) {
      r.pruned_fraction =
          static_cast<double>(pruned) / static_cast<double>(retrieved);
      r.aborted_fraction =
          static_cast<double>(aborted) / static_cast<double>(retrieved);
      r.exact_fraction =
          static_cast<double>(exact) / static_cast<double>(retrieved);
    }
    all_identical = all_identical && r.identical && r.recall_at_k == 1.0;

    std::printf(
        "N=%-6zu build %8.1f ms | brute %9.1f ms/query | indexed %8.1f "
        "ms/query | speedup %5.2fx | recall@%zu %.3f | %4.1f%% pruned, "
        "%4.1f%% aborted, %4.1f%% exact %s\n",
        r.members, r.build_millis, r.brute_mean_millis,
        r.indexed_mean_millis, r.speedup, k, r.recall_at_k,
        100.0 * r.pruned_fraction, 100.0 * r.aborted_fraction,
        100.0 * r.exact_fraction, r.identical ? "" : "MISMATCH");
    results.push_back(r);
    WriteJson(results, alpha, family_size);
  }

  if (!all_identical) {
    std::fprintf(stderr,
                 "equivalence FAILED: indexed != brute force somewhere\n");
    return 1;
  }
  std::printf("equivalence OK: indexed rankings byte-identical to brute "
              "force on every query\n");
  return 0;
}
