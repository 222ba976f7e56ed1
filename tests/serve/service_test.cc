// serve layer: LRU cache semantics, the log load-through cache, job-line
// parsing, and one worker shard end to end. The router's stream loop and
// admin commands are tested in sharded_service_test.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "obs/context.h"
#include "serve/expected_render.h"
#include "serve/log_cache.h"
#include "serve/lru_cache.h"
#include "serve/service.h"
#include "util/json_parser.h"

namespace ems {
namespace serve {
namespace {

std::string TempDir() {
  const char* env = std::getenv("TMPDIR");
  return env != nullptr ? env : "/tmp";
}

std::string WriteTraceLog(const std::string& name, const std::string& body) {
  const std::string path = TempDir() + "/" + name;
  std::ofstream out(path);
  EXPECT_TRUE(out) << path;
  out << body;
  return path;
}

// Drops the wall-clock "millis" field so result lines from different
// runs can be compared byte for byte.
std::string StripMillis(std::string line) {
  const size_t pos = line.find("\"millis\":");
  if (pos == std::string::npos) return line;
  const size_t end = line.find(',', pos);
  line.erase(pos, end == std::string::npos ? std::string::npos : end - pos + 1);
  return line;
}

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  LruCache<int, std::string> cache(2);
  cache.Put(1, "one");
  cache.Put(2, "two");
  EXPECT_EQ(cache.Get(1), "one");  // refreshes 1: now 2 is coldest
  cache.Put(3, "three");           // evicts 2
  EXPECT_EQ(cache.Get(2), std::nullopt);
  EXPECT_EQ(cache.Get(1), "one");
  EXPECT_EQ(cache.Get(3), "three");
  EXPECT_EQ(cache.size(), 2u);
}

TEST(LruCacheTest, PutOverwritesAndRefreshes) {
  LruCache<int, int> cache(2);
  cache.Put(1, 10);
  cache.Put(2, 20);
  cache.Put(1, 11);  // overwrite refreshes 1: 2 becomes coldest
  cache.Put(3, 30);
  EXPECT_EQ(cache.Get(1), 11);
  EXPECT_EQ(cache.Get(2), std::nullopt);
}

TEST(LruCacheTest, CountsHitsAndMisses) {
  LruCache<int, int> cache(4);
  cache.Put(1, 1);
  (void)cache.Get(1);
  (void)cache.Get(1);
  (void)cache.Get(9);
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(LogCacheTest, SecondLoadOfSamePathHits) {
  const std::string path =
      WriteTraceLog("log_cache_test_a.txt", "a;b;c\na;c;b\n");
  LogCache cache(4);
  auto first = cache.GetOrLoad(path, "auto");
  ASSERT_TRUE(first.ok());
  EXPECT_EQ((*first)->log.NumTraces(), 2u);
  auto second = cache.GetOrLoad(path, "auto");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->get(), second->get());  // same shared parse
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  std::remove(path.c_str());
}

TEST(LogCacheTest, MissingFileReportsErrorWithoutCaching) {
  LogCache cache(4);
  auto result = cache.GetOrLoad(TempDir() + "/log_cache_missing.txt", "auto");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(cache.size(), 0u);
  // A directory named as a log fails the read, not the process.
  const std::string dir = TempDir() + "/log_cache_dir.txt";
  std::filesystem::create_directories(dir);
  auto directory = cache.GetOrLoad(dir, "auto");
  EXPECT_TRUE(directory.status().IsIOError()) << directory.status().ToString();
  EXPECT_EQ(cache.size(), 0u);
  std::filesystem::remove_all(dir);
}

// A prepared log holds a graph built under the request's graph options:
// two requests on one pair that differ in min_edge_frequency get their
// own entries, and each answer is Matcher::Match's at that option.
TEST(LogCacheTest, GraphOptionsGetSeparateEntries) {
  const std::string log1 = WriteTraceLog(
      "log_cache_mef_1.txt", "a;b;c;d\na;b;c;d\na;b;c;d\na;c;b;d\n");
  const std::string log2 = WriteTraceLog(
      "log_cache_mef_2.txt", "a;b;c;d\na;c;b;d\na;b;c;d\nb;a;c;d\n");
  ServiceOptions options;
  options.threads = 1;
  BatchMatchService service(options);
  for (const std::string mef : {"0", "0.3"}) {
    const std::string line = service.HandleJobLine(
        R"({"id":"m","log1":")" + log1 + R"(","log2":")" + log2 +
        R"(","format":"trace","min_edge_frequency":)" + mef + "}");
    ASSERT_NE(line.find("\"status\":\"ok\""), std::string::npos) << line;

    MatchOptions match;
    match.label_measure = LabelMeasure::kQGramCosine;
    match.ems.alpha = 0.5;
    match.min_edge_frequency = std::stod(mef);
    Result<EventLog> a = LoadEventLog(log1, "trace");
    Result<EventLog> b = LoadEventLog(log2, "trace");
    ASSERT_TRUE(a.ok() && b.ok());
    Result<MatchResult> direct = Matcher(match).Match(*a, *b);
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(line.substr(line.find("\"correspondences\"")),
              ExpectedTail(*direct))
        << "min_edge_frequency " << mef;
  }
  EXPECT_EQ(service.cache().size(), 4u);
  EXPECT_EQ(service.cache().misses(), 4u);

  // The 0.3 entries dropped the edges seen in one trace of four.
  LogCache cache(4);
  PrepareOptions all;
  PrepareOptions frequent;
  frequent.graph.min_edge_frequency = 0.3;
  auto full = cache.GetOrLoad(log1, "trace", all);
  auto filtered = cache.GetOrLoad(log1, "trace", frequent);
  ASSERT_TRUE(full.ok() && filtered.ok());
  EXPECT_NE(full->get(), filtered->get());
  EXPECT_LT((*filtered)->graph.NumEdges(), (*full)->graph.NumEdges());
  std::remove(log1.c_str());
  std::remove(log2.c_str());
}

// The served composite search answers exactly what Matcher::Match does
// with the same options. Log 1 has an event named "a+b" next to a and b,
// so once {a, b} merges two nodes carry that display name.
TEST(BatchMatchServiceTest, CompositeJobMatchesMatcherByteForByte) {
  const std::string log1 = WriteTraceLog(
      "serve_composite_1.txt", "a;b;c;d\na;b;c;d\na+b;c;d\na;b;d;c\n");
  const std::string log2 = WriteTraceLog(
      "serve_composite_2.txt", "ab;c;d\nab;c;d\nab;d\nx;d;c\n");
  ServiceOptions options;
  options.threads = 2;
  BatchMatchService service(options);
  const std::string line = service.HandleJobLine(
      R"({"id":"c","log1":")" + log1 + R"(","log2":")" + log2 +
      R"(","format":"trace","composites":true,"delta":0.001})");
  ASSERT_NE(line.find("\"status\":\"ok\""), std::string::npos) << line;

  MatchOptions match;
  match.label_measure = LabelMeasure::kQGramCosine;
  match.ems.alpha = 0.5;
  match.match_composites = true;
  match.composite.delta = 0.001;
  Result<EventLog> a = LoadEventLog(log1, "trace");
  Result<EventLog> b = LoadEventLog(log2, "trace");
  ASSERT_TRUE(a.ok() && b.ok());
  Result<MatchResult> direct = Matcher(match).Match(*a, *b);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  ASSERT_GE(direct->composite_stats.merges_accepted, 1);
  EXPECT_EQ(StripMillis(line), ExpectedLine("c", *direct));
  std::remove(log1.c_str());
  std::remove(log2.c_str());
}

// Regression: keys carry the file's content hash, so a log rewritten
// between jobs must be re-parsed — the old behavior (path-only keys)
// served the stale parse forever.
TEST(LogCacheTest, RewrittenFileIsReparsedNotServedStale) {
  const std::string path =
      WriteTraceLog("log_cache_stale.txt", "a;b;c\na;c;b\n");
  LogCache cache(4);
  auto before = cache.GetOrLoad(path, "auto");
  ASSERT_TRUE(before.ok());
  EXPECT_EQ((*before)->log.NumTraces(), 2u);

  WriteTraceLog("log_cache_stale.txt", "x;y\nx;z\ny;z\n");
  auto after = cache.GetOrLoad(path, "auto");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ((*after)->log.NumTraces(), 3u);
  EXPECT_NE((*after)->log.FindEvent("x"), kInvalidEvent);
  EXPECT_EQ(cache.misses(), 2u);  // both versions were real loads
  EXPECT_EQ(cache.hits(), 0u);

  // The same bytes again: back to a plain hit.
  auto again = cache.GetOrLoad(path, "auto");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(after->get(), again->get());
  EXPECT_EQ(cache.hits(), 1u);
  std::remove(path.c_str());
}

// Concurrent first touches of one file share one load: the first caller
// loads, the other seven wait for its result and count as hits, and all
// eight hold the same parse.
TEST(LogCacheTest, ConcurrentFirstTouchesShareOneLoad) {
  std::string body;
  for (int t = 0; t < 4000; ++t) {
    body += "a;b;c;d;e" + std::to_string(t % 50) + ";f;g\n";
  }
  const std::string path = WriteTraceLog("log_cache_single_flight.txt", body);
  LogCache cache(4);
  constexpr int kThreads = 8;
  std::latch start(kThreads);
  std::vector<std::shared_ptr<const PreparedLog>> logs(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      start.arrive_and_wait();
      auto loaded = cache.GetOrLoad(path, "trace");
      if (loaded.ok()) logs[static_cast<size_t>(i)] = *loaded;
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 7u);
  for (const auto& log : logs) {
    ASSERT_NE(log, nullptr);
    EXPECT_EQ(log.get(), logs[0].get());
  }
  EXPECT_EQ(logs[0]->log.NumTraces(), 4000u);
  std::remove(path.c_str());
}

// A failed load reaches every concurrent caller as an error and leaves
// nothing cached: the next lookup of the key loads again.
TEST(LogCacheTest, ConcurrentFailedLoadIsNotCached) {
  const std::string path = TempDir() + "/log_cache_single_flight_missing.txt";
  LogCache cache(4);
  constexpr int kThreads = 4;
  std::latch start(kThreads);
  std::vector<char> failed(kThreads, 0);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      start.arrive_and_wait();
      failed[static_cast<size_t>(i)] = !cache.GetOrLoad(path, "trace").ok();
    });
  }
  for (std::thread& t : threads) t.join();
  for (char f : failed) EXPECT_TRUE(f);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits() + cache.misses(), static_cast<uint64_t>(kThreads));

  const uint64_t misses = cache.misses();
  EXPECT_FALSE(cache.GetOrLoad(path, "trace").ok());
  EXPECT_EQ(cache.misses(), misses + 1);
}

TEST(LruCacheTest, ByteBudgetEvictsColdestEntries) {
  LruCache<int, std::string> cache(/*capacity=*/10, /*max_cost=*/100);
  cache.Put(1, "a", 40);
  cache.Put(2, "b", 40);
  EXPECT_EQ(cache.cost_bytes(), 80u);
  cache.Put(3, "c", 40);  // 120 > 100: evicts 1
  EXPECT_EQ(cache.cost_bytes(), 80u);
  EXPECT_EQ(cache.Get(1), std::nullopt);
  EXPECT_EQ(cache.Get(2), "b");
  EXPECT_EQ(cache.evictions(), 1u);
}

TEST(LruCacheTest, OversizedEntryAloneIsKept) {
  LruCache<int, int> cache(4, /*max_cost=*/10);
  cache.Put(1, 1, 3);
  cache.Put(2, 2, 50);  // over budget by itself: evicts 1, keeps 2
  EXPECT_EQ(cache.Get(1), std::nullopt);
  EXPECT_EQ(cache.Get(2), 2);
  EXPECT_EQ(cache.cost_bytes(), 50u);
}

TEST(LruCacheTest, OverwriteReplacesCost) {
  LruCache<int, int> cache(4, /*max_cost=*/100);
  cache.Put(1, 1, 60);
  cache.Put(1, 2, 10);
  EXPECT_EQ(cache.cost_bytes(), 10u);
  EXPECT_EQ(cache.Get(1), 2);
}

TEST(LruCacheTest, ZeroBudgetKeepsEntryCountSemantics) {
  LruCache<int, int> cache(2);  // default: no byte budget
  cache.Put(1, 1, 1u << 30);
  cache.Put(2, 2, 1u << 30);
  EXPECT_EQ(cache.Get(1), 1);
  EXPECT_EQ(cache.Get(2), 2);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(LogCacheTest, ByteBudgetBoundsResidentLogsAndExportsGauge) {
  const std::string big = WriteTraceLog(
      "log_cache_budget_big.txt",
      std::string(50, 'a') + ";" + std::string(50, 'b') + "\n");
  const std::string small1 = WriteTraceLog("log_cache_budget_s1.txt", "a;b\n");
  const std::string small2 = WriteTraceLog("log_cache_budget_s2.txt", "c;d\n");

  // Each entry costs its log, graph and label parts: about 265 bytes per
  // small log and 560 for the big one, so the big load evicts one small.
  ObsContext obs;
  LogCache cache(8, &obs, nullptr, /*max_cost_bytes=*/900);
  ASSERT_TRUE(cache.GetOrLoad(small1, "auto").ok());
  const double gauge_one =
      obs.metrics.GetGauge("serve.cache_bytes")->value();
  EXPECT_GT(gauge_one, 0.0);
  EXPECT_EQ(static_cast<uint64_t>(gauge_one), cache.cost_bytes());

  ASSERT_TRUE(cache.GetOrLoad(small2, "auto").ok());
  ASSERT_TRUE(cache.GetOrLoad(big, "auto").ok());  // evicts down to budget
  EXPECT_LE(cache.cost_bytes(), 900u);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(static_cast<uint64_t>(
                obs.metrics.GetGauge("serve.cache_bytes")->value()),
            cache.cost_bytes());

  std::remove(big.c_str());
  std::remove(small1.c_str());
  std::remove(small2.c_str());
}

TEST(ParseJobRequestTest, ParsesFullRequest) {
  Result<JobRequest> request = ParseJobRequest(
      R"({"id":"j9","log1":"a.xes","log2":"b.csv","labels":"none",)"
      R"("alpha":0.3,"c":0.7,"engine":"estimated","iterations":3,)"
      R"("selection":"greedy","min_similarity":0.1})");
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->id, "j9");
  EXPECT_EQ(request->log1, "a.xes");
  EXPECT_EQ(request->log2, "b.csv");
  EXPECT_EQ(request->options.label_measure, LabelMeasure::kNone);
  EXPECT_DOUBLE_EQ(request->options.ems.alpha, 1.0);  // forced by labels=none
  EXPECT_DOUBLE_EQ(request->options.ems.c, 0.7);
  EXPECT_EQ(request->options.engine, SimilarityEngine::kEstimated);
  EXPECT_EQ(request->options.estimation_iterations, 3);
  EXPECT_EQ(request->options.selection, SelectionStrategy::kGreedy);
  EXPECT_DOUBLE_EQ(request->options.min_match_similarity, 0.1);
}

TEST(ParseJobRequestTest, RejectsBadRequests) {
  EXPECT_FALSE(ParseJobRequest("not json").ok());
  EXPECT_FALSE(ParseJobRequest("[1,2]").ok());
  EXPECT_FALSE(ParseJobRequest(R"({"log1":"a.xes"})").ok());  // log2 missing
  EXPECT_FALSE(
      ParseJobRequest(R"({"log1":"a","log2":"b","alpha":1.5})").ok());
  EXPECT_FALSE(
      ParseJobRequest(R"({"log1":"a","log2":"b","engine":"warp"})").ok());
  EXPECT_FALSE(
      ParseJobRequest(R"({"log1":"a","log2":"b","selection":"best"})").ok());
  EXPECT_FALSE(ParseJobRequest(
                   R"({"log1":"a","log2":"b","engine":"estimated",)"
                   R"("iterations":-4})")
                   .ok());
  // A present key of the wrong JSON type, or an int key beyond int
  // range, is an error naming the key, never a silent default.
  const std::vector<std::pair<std::string, std::string>> wrong_types = {
      {"alpha", R"("0.9")"}, {"prob", R"("true")"}, {"labels", "5"},
      {"c", "null"}, {"iterations", "4294967301"}};
  for (const auto& [key, value] : wrong_types) {
    Result<JobRequest> request = ParseJobRequest(
        R"({"log1":"a","log2":"b",")" + key + "\":" + value + "}");
    ASSERT_FALSE(request.ok()) << key;
    EXPECT_TRUE(request.status().IsInvalidArgument()) << key;
    EXPECT_NE(request.status().message().find("'" + key + "'"),
              std::string::npos)
        << request.status().message();
  }
  // In an append, `delta` is the batch file: a string, not a threshold.
  Request append = ParseRequest(
      R"({"cmd":"append","log1":"a","log2":"b","delta":"batch.txt"})");
  ASSERT_TRUE(append.status.ok()) << append.status.ToString();
  EXPECT_EQ(append.append.delta, "batch.txt");
  EXPECT_FALSE(
      ParseRequest(R"({"cmd":"append","log1":"a","log2":"b","delta":0.1})")
          .status.ok());
}

TEST(BatchMatchServiceTest, HandlesJobsAndRendersErrors) {
  const std::string log1 =
      WriteTraceLog("service_test_1.txt", "a;b;c;d\na;b;d\na;c;d\n");
  const std::string log2 =
      WriteTraceLog("service_test_2.txt", "a;b;c;d\na;c;b;d\nb;c;d\n");

  ServiceOptions options;
  options.threads = 2;
  BatchMatchService service(options);

  std::string ok_line = service.HandleJobLine(
      R"({"id":"good","log1":")" + log1 + R"(","log2":")" + log2 +
      R"(","labels":"none"})");
  EXPECT_NE(ok_line.find("\"id\":\"good\""), std::string::npos);
  EXPECT_NE(ok_line.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(ok_line.find("\"correspondences\""), std::string::npos);

  std::string missing_line = service.HandleJobLine(
      R"({"id":"gone","log1":"/definitely/not/here.txt","log2":")" + log2 +
      R"("})");
  EXPECT_NE(missing_line.find("\"status\":\"error\""), std::string::npos);
  EXPECT_NE(missing_line.find("\"id\":\"gone\""), std::string::npos);

  std::string bad_line = service.HandleJobLine("{broken");
  EXPECT_NE(bad_line.find("\"status\":\"error\""), std::string::npos);

  std::remove(log1.c_str());
  std::remove(log2.c_str());
}

// Concurrent matches of one pair share one prepared log per side and
// only read it: every answer is the same bytes.
TEST(BatchMatchServiceTest, ConcurrentMatchesShareOnePreparedLog) {
  const std::string log1 =
      WriteTraceLog("service_shared_1.txt", "a;b;c;d\na;b;d\na;c;d\n");
  const std::string log2 =
      WriteTraceLog("service_shared_2.txt", "a;b;c;d\na;c;b;d\nb;c;d\n");
  ServiceOptions options;
  options.threads = 1;
  BatchMatchService service(options);
  const std::string job = R"({"id":"s","log1":")" + log1 + R"(","log2":")" +
                          log2 + R"(","prob":true})";
  constexpr int kThreads = 8;
  std::latch start(kThreads);
  std::vector<std::string> answers(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      start.arrive_and_wait();
      answers[static_cast<size_t>(i)] = StripMillis(service.HandleJobLine(job));
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_NE(answers[0].find("\"status\":\"ok\""), std::string::npos)
      << answers[0];
  for (const std::string& answer : answers) EXPECT_EQ(answer, answers[0]);
  EXPECT_EQ(service.cache().misses(), 2u);
  EXPECT_EQ(service.cache().hits(), 2u * kThreads - 2u);
  std::remove(log1.c_str());
  std::remove(log2.c_str());
}

// Warm start: a restarted service pointed at the same --cache-dir must
// serve its first job from log snapshots (store hits, no source
// re-parse) and produce a byte-identical result line.
TEST(BatchMatchServiceTest, RestartWithCacheDirStartsWarm) {
  const std::string log1 =
      WriteTraceLog("service_warm_1.txt", "a;b;c;d\na;b;d\na;c;d\n");
  const std::string log2 =
      WriteTraceLog("service_warm_2.txt", "a;b;c;d\na;c;b;d\nb;c;d\n");
  const std::string cache_dir = TempDir() + "/service_warm_store";
  std::filesystem::remove_all(cache_dir);
  const std::string job = R"({"id":"w1","log1":")" + log1 + R"(","log2":")" +
                          log2 + R"(","labels":"none"})";

  std::string cold_line;
  {
    ObsContext obs;
    ServiceOptions options;
    options.threads = 1;
    options.cache_dir = cache_dir;
    options.obs = &obs;
    BatchMatchService service(options);
    cold_line = service.HandleJobLine(job);
    EXPECT_NE(cold_line.find("\"status\":\"ok\""), std::string::npos);
    EXPECT_EQ(obs.metrics.CounterValue("store.hits"), 0u);
    EXPECT_EQ(obs.metrics.CounterValue("store.misses"), 2u);
    EXPECT_EQ(obs.metrics.CounterValue("store.writes"), 2u);
  }  // service restarts: all memory state gone, the store directory stays

  {
    ObsContext obs;
    ServiceOptions options;
    options.threads = 1;
    options.cache_dir = cache_dir;
    options.obs = &obs;
    BatchMatchService service(options);
    const std::string warm_line = service.HandleJobLine(job);
    // Both logs came from snapshots, and the result is bit-identical.
    EXPECT_EQ(obs.metrics.CounterValue("store.hits"), 2u);
    EXPECT_EQ(obs.metrics.CounterValue("store.misses"), 0u);
    EXPECT_EQ(StripMillis(warm_line), StripMillis(cold_line));
  }

  std::filesystem::remove_all(cache_dir);
  std::remove(log1.c_str());
  std::remove(log2.c_str());
}

// A poisoned cache directory must never fail a request: corrupt
// snapshot files re-derive from source transparently.
TEST(BatchMatchServiceTest, CorruptCacheDirNeverFailsAJob) {
  const std::string log1 =
      WriteTraceLog("service_poison_1.txt", "a;b;c\na;c;b\n");
  const std::string log2 = WriteTraceLog("service_poison_2.txt", "a;b\nb;a\n");
  const std::string cache_dir = TempDir() + "/service_poison_store";
  std::filesystem::remove_all(cache_dir);
  const std::string job = R"({"id":"p1","log1":")" + log1 + R"(","log2":")" +
                          log2 + R"(","labels":"none"})";

  std::string cold_line;
  {
    ServiceOptions options;
    options.threads = 1;
    options.cache_dir = cache_dir;
    BatchMatchService service(options);
    cold_line = service.HandleJobLine(job);
    EXPECT_NE(cold_line.find("\"status\":\"ok\""), std::string::npos);
  }

  // Vandalize every snapshot in the store.
  for (const auto& entry : std::filesystem::directory_iterator(cache_dir)) {
    std::ofstream out(entry.path(), std::ios::binary | std::ios::trunc);
    out << "not a snapshot";
  }

  ObsContext obs;
  ServiceOptions options;
  options.threads = 1;
  options.cache_dir = cache_dir;
  options.obs = &obs;
  BatchMatchService service(options);
  const std::string recovered_line = service.HandleJobLine(job);
  EXPECT_EQ(StripMillis(recovered_line), StripMillis(cold_line));
  EXPECT_EQ(obs.metrics.CounterValue("store.fallback_rederives"), 2u);
  EXPECT_EQ(obs.metrics.CounterValue("store.hits"), 0u);

  std::filesystem::remove_all(cache_dir);
  std::remove(log1.c_str());
  std::remove(log2.c_str());
}

TEST(ParseRequestTest, ParsesAndValidatesTopK) {
  Request request = ParseRequest(
      R"({"id":"t1","query":"q.txt","topk":3,"members":["a.txt","b.txt"],)"
      R"("alpha":0.4,"labels":"qgram"})");
  ASSERT_TRUE(request.status.ok());
  ASSERT_EQ(request.kind, Request::Kind::kTopK);
  EXPECT_EQ(request.id, "t1");
  EXPECT_EQ(request.topk.query, "q.txt");
  EXPECT_EQ(request.topk.k, 3u);
  EXPECT_EQ(request.topk.members,
            (std::vector<std::string>{"a.txt", "b.txt"}));
  EXPECT_DOUBLE_EQ(request.topk.options.ems.alpha, 0.4);
  EXPECT_FALSE(request.topk.brute_force);

  EXPECT_FALSE(ParseRequest(R"({"query":"q.txt"})").status.ok());  // no corpus
  EXPECT_FALSE(  // both member sources
      ParseRequest(R"({"query":"q","members":["a"],"corpus":"/c"})")
          .status.ok());
  EXPECT_FALSE(ParseRequest(R"({"query":"q","members":[]})").status.ok());
  EXPECT_FALSE(ParseRequest(R"({"query":"q","members":[1]})").status.ok());
  EXPECT_FALSE(  // no query: not a top-k line, and no logs for a match
      ParseRequest(R"({"topk":2,"members":["a"]})").status.ok());
}

// topk over an explicit member list: the indexed and the brute-forced
// response must carry identical hits (member order, rank, exact score
// bits) — the service-level face of the scheduler's exactness contract.
TEST(BatchMatchServiceTest, TopKJobRanksMembersAndMatchesBruteForce) {
  std::vector<std::string> members;
  for (int i = 0; i < 4; ++i) {
    members.push_back(WriteTraceLog(
        "service_topk_" + std::to_string(i) + ".txt",
        i < 2 ? "a;b;c;d\na;b;d\na;c;d\n" : "x;y;z\nx;z;y\nz;x;y\n"));
  }
  ServiceOptions options;
  options.threads = 2;
  BatchMatchService service(options);

  std::string member_list;
  for (const std::string& m : members) {
    member_list += (member_list.empty() ? "\"" : ",\"") + m + "\"";
  }
  const std::string base = R"({"id":"t1","query":")" + members[0] +
                           R"(","topk":2,"members":[)" + member_list + "]";
  const std::string indexed_line = service.HandleJobLine(base + "}");
  const std::string brute_line =
      service.HandleJobLine(base + R"(,"brute_force":true})");

  Result<JsonValue> indexed = ParseJson(indexed_line);
  Result<JsonValue> brute = ParseJson(brute_line);
  ASSERT_TRUE(indexed.ok()) << indexed_line;
  ASSERT_TRUE(brute.ok()) << brute_line;
  EXPECT_EQ(indexed->GetString("status", ""), "ok");
  EXPECT_EQ(brute->GetString("status", ""), "ok");

  const JsonValue* ih = indexed->Find("hits");
  const JsonValue* bh = brute->Find("hits");
  ASSERT_NE(ih, nullptr);
  ASSERT_NE(bh, nullptr);
  ASSERT_EQ(ih->array_items().size(), 2u);
  ASSERT_EQ(bh->array_items().size(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    const JsonValue& a = ih->array_items()[i];
    const JsonValue& b = bh->array_items()[i];
    EXPECT_EQ(a.GetString("member", "?"), b.GetString("member", "!"));
    // Exact IEEE-754 bits, hex-encoded: lossless across the wire.
    EXPECT_EQ(a.GetString("score_bits", "?"), b.GetString("score_bits", "!"));
    EXPECT_EQ(a.GetInt("rank", -1), static_cast<int>(i) + 1);
  }
  // The query is members[0] itself; its twin content is members[1].
  EXPECT_EQ(ih->array_items()[0].GetString("member", ""), members[0]);
  EXPECT_EQ(ih->array_items()[1].GetString("member", ""), members[1]);

  const JsonValue* stats = indexed->Find("index");
  const JsonValue* brute_stats = brute->Find("index");
  ASSERT_NE(stats, nullptr);
  ASSERT_NE(brute_stats, nullptr);
  EXPECT_EQ(stats->GetInt("candidates_retrieved", -1), 4);
  EXPECT_FALSE(stats->GetBool("brute_force", true));
  EXPECT_TRUE(brute_stats->GetBool("brute_force", false));

  // Same members again: the corpus cache must answer the second build.
  ASSERT_NE(service.obs(), nullptr);
  EXPECT_GE(service.obs()->metrics.CounterValue("serve.corpus_cache.hits"),
            1u);

  for (const std::string& m : members) std::remove(m.c_str());
}

TEST(BatchMatchServiceTest, TopKJobReportsErrors) {
  ServiceOptions options;
  options.threads = 1;
  BatchMatchService service(options);
  const std::string missing = service.HandleJobLine(
      R"({"id":"t2","query":"/not/here.txt","members":["/also/not.txt"]})");
  EXPECT_NE(missing.find("\"status\":\"error\""), std::string::npos);
  EXPECT_NE(missing.find("\"id\":\"t2\""), std::string::npos);
  const std::string invalid = service.HandleJobLine(
      R"({"id":"t3","query":"q.txt","members":[]})");
  EXPECT_NE(invalid.find("\"status\":\"error\""), std::string::npos);
}

TEST(BatchMatchServiceTest, AppendJobReportsStreamFieldsAndWarms) {
  const std::string log1 =
      WriteTraceLog("service_append_1.txt", "a;b;c\na;b;c\na;c\n");
  const std::string log2 =
      WriteTraceLog("service_append_2.txt", "a;b;c\na;c;b\n");

  ObsContext obs;
  ServiceOptions options;
  options.threads = 1;
  options.obs = &obs;
  BatchMatchService service(options);

  const std::string pair =
      R"("log1":")" + log1 + R"(","log2":")" + log2 + R"(")";
  const std::string first = service.HandleJobLine(
      R"({"cmd":"append","id":"a1",)" + pair +
      R"(,"traces":[["a","b","c"]]})");
  EXPECT_NE(first.find("\"status\":\"ok\""), std::string::npos) << first;
  EXPECT_NE(first.find("\"stream\":{"), std::string::npos) << first;
  EXPECT_NE(first.find("\"appended_traces\":1"), std::string::npos);
  EXPECT_NE(first.find("\"total_traces\":4"), std::string::npos);
  EXPECT_NE(first.find("\"session_created\":true"), std::string::npos);
  EXPECT_NE(first.find("\"resumed_from_store\":false"), std::string::npos);
  // The first append starts the chain: nothing to warm from yet.
  EXPECT_NE(first.find("\"warm\":false"), std::string::npos);

  const std::string second = service.HandleJobLine(
      R"({"cmd":"append","id":"a2",)" + pair +
      R"(,"traces":[["a","c"]]})");
  EXPECT_NE(second.find("\"status\":\"ok\""), std::string::npos) << second;
  EXPECT_NE(second.find("\"session_created\":false"), std::string::npos);
  EXPECT_NE(second.find("\"warm\":true"), std::string::npos) << second;
  EXPECT_NE(second.find("\"iterations_saved\":"), std::string::npos);
  EXPECT_NE(second.find("\"total_traces\":5"), std::string::npos);

  EXPECT_EQ(obs.metrics.CounterValue("serve.append_jobs"), 2u);
  EXPECT_EQ(obs.metrics.CounterValue("stream.appends"), 2u);
  EXPECT_EQ(obs.metrics.CounterValue("stream.appended_traces"), 2u);
  EXPECT_EQ(obs.metrics.CounterValue("stream.warm_matches"), 1u);

  // An empty append is a no-op touch: the graphs are bit-identical to
  // the seed's, so the re-match degenerates to a one-iteration resume.
  const std::string empty = service.HandleJobLine(
      R"({"cmd":"append","id":"a3",)" + pair + "}");
  EXPECT_NE(empty.find("\"status\":\"ok\""), std::string::npos) << empty;
  EXPECT_NE(empty.find("\"appended_traces\":0"), std::string::npos);
  EXPECT_NE(empty.find("\"warm\":true"), std::string::npos);
  EXPECT_NE(empty.find("\"iterations\":1"), std::string::npos) << empty;

  std::remove(log1.c_str());
  std::remove(log2.c_str());
}

// Regression for the stale-parse hazard: a match job after an append
// must be answered from the session's grown state, never from the
// parsed-log cache entry of the original file (which no longer reflects
// the pair being served) — whatever selection options the match asks
// for, and selecting with those options, not the session's.
TEST(BatchMatchServiceTest, MatchAfterAppendServesSessionStateNotStaleParse) {
  struct Input {
    std::string options;  // extra match-line fields
    bool prob;            // the response must carry posteriors
  };
  const std::vector<Input> inputs = {{"", false},
                                     {R"(,"prob":true)", true},
                                     {R"(,"selection":"greedy")", false},
                                     {R"(,"min_similarity":0.06)", false}};
  for (const Input& input : inputs) {
    SCOPED_TRACE("match options: " + input.options);
    const std::string log1 =
        WriteTraceLog("service_append_stale_1.txt", "a;b\na;b\n");
    const std::string log2 =
        WriteTraceLog("service_append_stale_2.txt", "a;b;c\na;c;b\n");

    ObsContext obs;
    ServiceOptions options;
    options.threads = 1;
    options.obs = &obs;
    BatchMatchService service(options);

    const std::string pair =
        R"("log1":")" + log1 + R"(","log2":")" + log2 + R"(")";
    // Prime the parsed-log cache with the original two-trace file.
    const std::string before = service.HandleJobLine(
        R"({"id":"m1",)" + pair + input.options + "}");
    EXPECT_NE(before.find("\"status\":\"ok\""), std::string::npos);
    EXPECT_EQ(before.find("\"c\""), std::string::npos)
        << "log1 has no 'c' yet: " << before;

    // The append introduces 'c' into log 1 — in the session only, the
    // file on disk is untouched (and still cached).
    const std::string append = service.HandleJobLine(
        R"({"cmd":"append","id":"a1",)" + pair +
        R"(,"traces":[["a","c","b"],["a","c","b"]]})");
    EXPECT_NE(append.find("\"status\":\"ok\""), std::string::npos)
        << append;
    EXPECT_NE(append.find("\"new_events\":1"), std::string::npos) << append;

    const std::string after = service.HandleJobLine(
        R"({"id":"m2",)" + pair + input.options + "}");
    EXPECT_NE(after.find("\"status\":\"ok\""), std::string::npos);
    EXPECT_NE(after.find("\"c\""), std::string::npos)
        << "match after append served the stale parse: " << after;
    EXPECT_EQ(obs.metrics.CounterValue("stream.session_matches"), 1u);
    EXPECT_EQ(after.find("\"confidence\"") != std::string::npos, input.prob)
        << after;
    EXPECT_EQ(after.find("\"prob\":{") != std::string::npos, input.prob)
        << after;

    std::remove(log1.c_str());
    std::remove(log2.c_str());
  }
}

// A session's base file rewritten on disk wins over the session: the
// next match drops the session and serves the new file.
TEST(BatchMatchServiceTest, RewrittenBaseFileDropsTheSession) {
  const std::string log1 =
      WriteTraceLog("service_rewrite_1.txt", "a;b\na;b\n");
  const std::string log2 =
      WriteTraceLog("service_rewrite_2.txt", "a;b;c;d\na;c;b;d\n");

  ObsContext obs;
  ServiceOptions options;
  options.threads = 1;
  options.obs = &obs;
  BatchMatchService service(options);

  const std::string pair =
      R"("log1":")" + log1 + R"(","log2":")" + log2 + R"(")";
  const std::string append = service.HandleJobLine(
      R"({"cmd":"append","id":"a1",)" + pair +
      R"(,"traces":[["a","c","b"],["a","c","b"]]})");
  EXPECT_NE(append.find("\"new_events\":1"), std::string::npos) << append;
  const std::string served =
      service.HandleJobLine(R"({"id":"m1",)" + pair + "}");
  EXPECT_NE(served.find(R"("left":["c"])"), std::string::npos) << served;

  WriteTraceLog("service_rewrite_1.txt", "a;d;b\na;d;b\n");
  const std::string fresh =
      service.HandleJobLine(R"({"id":"m2",)" + pair + "}");
  EXPECT_NE(fresh.find("\"status\":\"ok\""), std::string::npos) << fresh;
  EXPECT_EQ(fresh.find(R"("left":["c"])"), std::string::npos) << fresh;
  EXPECT_NE(fresh.find(R"("left":["d"])"), std::string::npos) << fresh;
  EXPECT_EQ(obs.metrics.CounterValue("stream.sessions_invalidated"), 1u);
  EXPECT_EQ(obs.metrics.CounterValue("stream.session_matches"), 1u);

  std::remove(log1.c_str());
  std::remove(log2.c_str());
}

// The "hits" array of a top-k response, as rendered.
std::string HitsOf(const std::string& response) {
  const size_t begin = response.find("\"hits\":");
  const size_t end = response.find(",\"index\":");
  EXPECT_NE(begin, std::string::npos) << response;
  EXPECT_NE(end, std::string::npos) << response;
  return response.substr(begin, end - begin);
}

// Top-k ranks the member files as they are on disk: an append to a
// member grows that pair's streaming session, never the corpus entry,
// whether or not the corpus index was cached when the append ran.
TEST(BatchMatchServiceTest, TopKRanksMemberFilesNotAppendedSessions) {
  const std::string query =
      WriteTraceLog("service_topk_append_q.txt", "a;b;c;d\na;b;d\na;c;d\n");
  const std::vector<std::string> members = {
      WriteTraceLog("service_topk_append_0.txt", "a;b;c;d\na;b;d\n"),
      WriteTraceLog("service_topk_append_1.txt", "x;y;z\nx;z;y\n"),
      WriteTraceLog("service_topk_append_2.txt", "p;q;r\nq;p;r\n")};
  std::string member_list;
  for (const std::string& m : members) {
    member_list += (member_list.empty() ? "\"" : ",\"") + m + "\"";
  }
  const std::string topk = R"({"id":"t","query":")" + query +
                           R"(","topk":2,"members":[)" + member_list + "]}";
  // Twenty copies of the query's trace make member 1 look like it.
  std::string traces;
  for (int i = 0; i < 20; ++i) {
    traces += std::string(traces.empty() ? "" : ",") + R"(["a","b","c","d"])";
  }
  const std::string append = R"({"cmd":"append","id":"a","log1":")" +
                             members[1] + R"(","log2":")" + query +
                             R"(","traces":[)" + traces + "]}";

  ServiceOptions options;
  options.threads = 1;
  std::string before;
  {
    BatchMatchService service(options);
    before = HitsOf(service.HandleJobLine(topk));
  }
  {
    SCOPED_TRACE("append, then top-k");
    BatchMatchService service(options);
    const std::string appended = service.HandleJobLine(append);
    EXPECT_NE(appended.find("\"status\":\"ok\""), std::string::npos)
        << appended;
    EXPECT_EQ(HitsOf(service.HandleJobLine(topk)), before);
  }
  {
    SCOPED_TRACE("top-k, append, top-k");
    BatchMatchService service(options);
    EXPECT_EQ(HitsOf(service.HandleJobLine(topk)), before);
    const std::string appended = service.HandleJobLine(append);
    EXPECT_NE(appended.find("\"status\":\"ok\""), std::string::npos)
        << appended;
    EXPECT_EQ(HitsOf(service.HandleJobLine(topk)), before);
  }

  std::remove(query.c_str());
  for (const std::string& m : members) std::remove(m.c_str());
}

// Restart resume: a new service pointed at the same --cache-dir picks a
// streaming session back up from the persisted seed matrix — log
// snapshots answer the parses and the first re-match is warm.
TEST(BatchMatchServiceTest, RestartWithCacheDirResumesStreamSessionWarm) {
  const std::string log1 =
      WriteTraceLog("service_stream_warm_1.txt", "a;b;c\na;b;c\na;c\n");
  const std::string log2 =
      WriteTraceLog("service_stream_warm_2.txt", "a;b;c\na;c;b\n");
  const std::string cache_dir = TempDir() + "/service_stream_warm_store";
  std::filesystem::remove_all(cache_dir);

  const std::string pair =
      R"("log1":")" + log1 + R"(","log2":")" + log2 + R"(")";
  // The batch stays inside the base vocabulary so the persisted seed's
  // dimensions still fit the graphs a restarted service rebuilds from
  // the unchanged base files.
  const std::string append_line = R"({"cmd":"append","id":"a1",)" + pair +
                                  R"(,"traces":[["a","b","c"]]})";

  {
    ObsContext obs;
    ServiceOptions options;
    options.threads = 1;
    options.cache_dir = cache_dir;
    options.obs = &obs;
    BatchMatchService service(options);
    const std::string first = service.HandleJobLine(append_line);
    EXPECT_NE(first.find("\"status\":\"ok\""), std::string::npos) << first;
    EXPECT_NE(first.find("\"resumed_from_store\":false"), std::string::npos);
    EXPECT_EQ(obs.metrics.CounterValue("stream.seed_resumes"), 0u);
  }  // restart: sessions gone, the store directory survives

  {
    ObsContext obs;
    ServiceOptions options;
    options.threads = 1;
    options.cache_dir = cache_dir;
    options.obs = &obs;
    BatchMatchService service(options);
    const std::string resumed = service.HandleJobLine(append_line);
    EXPECT_NE(resumed.find("\"status\":\"ok\""), std::string::npos)
        << resumed;
    EXPECT_NE(resumed.find("\"resumed_from_store\":true"), std::string::npos)
        << resumed;
    EXPECT_NE(resumed.find("\"warm\":true"), std::string::npos) << resumed;
    // Exactly one seed snapshot resumed the chain, and both base logs
    // came back from snapshots — zero source re-parses.
    EXPECT_EQ(obs.metrics.CounterValue("stream.seed_resumes"), 1u);
    EXPECT_GE(obs.metrics.CounterValue("store.hits"), 2u);
    EXPECT_EQ(obs.metrics.CounterValue("store.misses"), 0u);
  }

  std::filesystem::remove_all(cache_dir);
  std::remove(log1.c_str());
  std::remove(log2.c_str());
}

}  // namespace
}  // namespace serve
}  // namespace ems
