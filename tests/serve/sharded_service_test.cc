// Router semantics: single-shard equivalence with the plain service,
// deterministic canonical-path routing, admission-control rejections,
// drain behavior, per-shard metrics, the admin commands, request ids,
// and the pipe transport (RunStream).
#include "serve/sharded_service.h"

#include <fcntl.h>
#include <unistd.h>

#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "net/wire.h"
#include "obs/context.h"
#include "serve/expected_render.h"
#include "serve/service.h"
#include "util/json_parser.h"

namespace ems {
namespace serve {
namespace {

std::string TempDir() {
  const char* env = std::getenv("TMPDIR");
  return env != nullptr ? env : "/tmp";
}

void WriteFile(const std::string& path, const std::string& body) {
  std::ofstream out(path);
  ASSERT_TRUE(out) << path;
  out << body;
}

// Strips the "millis" member — the only nondeterministic bytes of a
// result line.
std::string StripMillis(const std::string& line) {
  const size_t key = line.find("\"millis\":");
  if (key == std::string::npos) return line;
  size_t end = key + 9;
  while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  if (end < line.size() && line[end] == ',') ++end;
  return line.substr(0, key) + line.substr(end);
}

// Pipes `input` through RunStream and returns the response lines in
// completion order.
std::vector<std::string> PipeLines(ShardedMatchService& router,
                                   const std::string& input,
                                   net::LinesServed* served = nullptr) {
  const std::string in_path = TempDir() + "/sharded_service_pipe_in.ndjson";
  const std::string out_path = TempDir() + "/sharded_service_pipe_out.ndjson";
  WriteFile(in_path, input);
  const int in_fd = ::open(in_path.c_str(), O_RDONLY);
  const int out_fd =
      ::open(out_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  EXPECT_GE(in_fd, 0);
  EXPECT_GE(out_fd, 0);
  const net::LinesServed result = router.RunStream(in_fd, out_fd);
  ::close(in_fd);
  ::close(out_fd);
  if (served != nullptr) *served = result;
  std::vector<std::string> lines;
  std::ifstream out(out_path);
  std::string line;
  while (std::getline(out, line)) lines.push_back(line);
  std::remove(in_path.c_str());
  std::remove(out_path.c_str());
  return lines;
}

// A one-shard router with `threads` workers.
ShardedServiceOptions OneShard(int threads) {
  ShardedServiceOptions options;
  options.num_shards = 1;
  options.total_threads = threads;
  return options;
}

class ShardedServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    log1_ = TempDir() + "/sharded_service_log1.txt";
    log2_ = TempDir() + "/sharded_service_log2.txt";
    WriteFile(log1_, "a;b;c;d\na;b;d\na;c;d\n");
    WriteFile(log2_, "a;b;c;d\na;c;b;d\nb;c;d\n");
  }

  void TearDown() override {
    std::remove(log1_.c_str());
    std::remove(log2_.c_str());
  }

  std::string JobLine(const std::string& id) const {
    return "{\"id\":\"" + id + "\",\"log1\":\"" + log1_ + "\",\"log2\":\"" +
           log2_ + "\",\"labels\":\"none\"}";
  }

  // The pair's keys without braces or id, for composing lines.
  std::string Pair() const {
    return "\"log1\":\"" + log1_ + "\",\"log2\":\"" + log2_ +
           "\",\"labels\":\"none\"";
  }

  std::string log1_;
  std::string log2_;
};

// A single-shard router is the plain service behind a hash ring that
// always answers 0: results must be byte-identical modulo millis.
TEST_F(ShardedServiceTest, SingleShardMatchesPlainServiceByteForByte) {
  ShardedServiceOptions sharded_options;
  sharded_options.num_shards = 1;
  sharded_options.total_threads = 2;
  ShardedMatchService router(sharded_options);

  ServiceOptions plain_options;
  plain_options.threads = 2;
  BatchMatchService plain(plain_options);

  for (const std::string id : {"j1", "j2"}) {
    const std::string via_router = router.HandleLineSync(JobLine(id));
    const std::string via_plain = plain.HandleJobLine(JobLine(id));
    EXPECT_EQ(StripMillis(via_router), StripMillis(via_plain));
    EXPECT_NE(via_router.find("\"status\":\"ok\""), std::string::npos)
        << via_router;
  }
}

// A composite job through the router answers exactly what
// Matcher::Match does with the same options. Log 1 has an event named
// "a+b" next to a and b.
TEST_F(ShardedServiceTest, CompositeJobMatchesMatcherByteForByte) {
  const std::string log1 = TempDir() + "/sharded_service_composite1.txt";
  const std::string log2 = TempDir() + "/sharded_service_composite2.txt";
  WriteFile(log1, "a;b;c;d\na;b;c;d\na+b;c;d\na;b;d;c\n");
  WriteFile(log2, "ab;c;d\nab;c;d\nab;d\nx;d;c\n");
  ShardedServiceOptions options;
  options.num_shards = 2;
  options.total_threads = 2;
  ShardedMatchService router(options);
  const std::string line = router.HandleLineSync(
      "{\"id\":\"c\",\"log1\":\"" + log1 + "\",\"log2\":\"" + log2 +
      "\",\"format\":\"trace\",\"composites\":true,\"delta\":0.001}");

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

// A directory named as a log is answered with an IOError by the shard
// worker, which then serves the next line. The read failure used to
// escape the worker as an exception and abort the server.
TEST_F(ShardedServiceTest, DirectoryLogIsAnsweredAndNextLineServed) {
  ShardedServiceOptions options;
  options.num_shards = 2;
  options.total_threads = 2;
  ShardedMatchService router(options);
  const std::string dir = TempDir() + "/sharded_service_dir.txt";
  std::filesystem::create_directories(dir);
  const std::string failed = router.HandleLineSync(
      "{\"id\":\"dir\",\"log1\":\"" + dir + "\",\"log2\":\"" + log2_ +
      "\"}");
  EXPECT_NE(failed.find("\"id\":\"dir\""), std::string::npos) << failed;
  EXPECT_NE(failed.find("\"code\":\"IOError\""), std::string::npos) << failed;
  const std::string next = router.HandleLineSync(JobLine("next"));
  EXPECT_NE(next.find("\"status\":\"ok\""), std::string::npos) << next;
  router.WaitDrained();
  for (int i = 0; i < router.num_shards(); ++i) {
    EXPECT_EQ(router.shard_inflight(i), 0);
  }
  std::filesystem::remove_all(dir);
}

TEST_F(ShardedServiceTest, RoutingIsDeterministicAndCanonicalized) {
  ShardedServiceOptions options;
  options.num_shards = 4;
  options.total_threads = 4;
  ShardedMatchService router(options);
  const int shard = router.ShardForPath(log1_);
  EXPECT_EQ(router.ShardForPath(log1_), shard);
  // CanonicalPath realpath()s existing files: spelling variants of one
  // log must land on one shard (one warm cache). log1_ is
  // "<tmpdir>/sharded_service_log1.txt", so dot and double-slash
  // variants resolve to it.
  const size_t slash = log1_.rfind('/');
  const std::string dotted =
      log1_.substr(0, slash) + "/./" + log1_.substr(slash + 1);
  const std::string doubled =
      log1_.substr(0, slash) + "//" + log1_.substr(slash + 1);
  EXPECT_EQ(router.ShardForPath(dotted), shard);
  EXPECT_EQ(router.ShardForPath(doubled), shard);
}

TEST_F(ShardedServiceTest, JobsAreAnsweredAndRoutedCountersAdvance) {
  ShardedServiceOptions options;
  options.num_shards = 2;
  options.total_threads = 2;
  ShardedMatchService router(options);

  const std::string response = router.HandleLineSync(JobLine("j1"));
  EXPECT_NE(response.find("\"id\":\"j1\""), std::string::npos);
  EXPECT_NE(response.find("\"status\":\"ok\""), std::string::npos);

  uint64_t routed_total = 0;
  for (int i = 0; i < router.num_shards(); ++i) {
    routed_total += router.obs()->metrics.CounterValue(
        ShardMetricName("serve.shard", i, "routed"));
  }
  EXPECT_EQ(routed_total, 1u);
  // The inflight count drops after the emit fires; WaitDrained is the
  // rendezvous for "all admitted jobs fully answered".
  router.WaitDrained();
  EXPECT_EQ(router.shard_inflight(0), 0);
  EXPECT_EQ(router.shard_inflight(1), 0);
}

TEST_F(ShardedServiceTest, MalformedLinesRenderErrorsInline) {
  ShardedServiceOptions options;
  options.num_shards = 2;
  options.total_threads = 2;
  ShardedMatchService router(options);

  const std::string not_json = router.HandleLineSync("this is not json");
  EXPECT_NE(not_json.find("\"status\":\"error\""), std::string::npos)
      << not_json;
  const std::string no_logs =
      router.HandleLineSync("{\"id\":\"x\",\"log1\":\"only-one.xes\"}");
  EXPECT_EQ(no_logs.rfind(R"({"id":"x","status":"error")", 0), 0u)
      << no_logs;
  // Shard 0's wrapper answers invalid lines with the client's id too.
  const std::string bad_options = router.HandleLineSync(
      "{\"id\":7,\"log1\":\"" + log1_ + "\",\"log2\":\"" + log2_ +
      "\",\"alpha\":1.5}");
  EXPECT_EQ(bad_options.rfind(R"({"id":"7","status":"error")", 0), 0u)
      << bad_options;
  EXPECT_EQ(router.obs()->metrics.CounterValue("net.protocol_errors"), 1u);
}

// Deterministic overload: block the target shard's only worker, fill
// the single admission slot, and watch the next job shed.
TEST_F(ShardedServiceTest, OverAdmissionShedsWithExplicitResponse) {
  ShardedServiceOptions options;
  options.num_shards = 2;
  options.total_threads = 2;  // one worker per shard
  options.max_inflight_per_shard = 1;
  ShardedMatchService router(options);
  const int shard = router.ShardForPath(log1_);

  // Park the shard's worker so the admitted job cannot start.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  ASSERT_TRUE(router.shard_service(shard).pool().Submit([&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  }));

  std::mutex emit_mu;
  std::vector<std::string> async_responses;
  router.HandleLine(JobLine("admitted"), [&](const std::string& response) {
    std::lock_guard<std::mutex> lock(emit_mu);
    async_responses.push_back(response);
  });
  EXPECT_EQ(router.shard_inflight(shard), 1);

  // Admission budget exhausted: the second job must be answered inline
  // with an explicit overloaded response naming the shard.
  const std::string shed = router.HandleLineSync(JobLine("shed"));
  EXPECT_NE(shed.find("\"status\":\"overloaded\""), std::string::npos)
      << shed;
  EXPECT_NE(shed.find("\"id\":\"shed\""), std::string::npos);
  EXPECT_NE(shed.find("\"shard\":" + std::to_string(shard)),
            std::string::npos)
      << shed;
  EXPECT_EQ(router.obs()->metrics.CounterValue(
                ShardMetricName("serve.shard", shard,
                                "rejected_overloaded")),
            1u);

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  router.WaitDrained();  // inflight back to zero = admitted job answered
  std::lock_guard<std::mutex> lock(emit_mu);
  ASSERT_EQ(async_responses.size(), 1u);
  EXPECT_NE(async_responses[0].find("\"id\":\"admitted\""),
            std::string::npos);
  EXPECT_NE(async_responses[0].find("\"status\":\"ok\""),
            std::string::npos);
}

TEST_F(ShardedServiceTest, DrainRejectsNewJobsButAnswersAdmin) {
  ShardedServiceOptions options;
  options.num_shards = 2;
  options.total_threads = 2;
  ShardedMatchService router(options);

  int callbacks = 0;
  router.SetDrainRequestCallback([&callbacks] { ++callbacks; });

  const std::string ack =
      router.HandleLineSync("{\"cmd\":\"drain\",\"id\":\"d1\"}");
  EXPECT_NE(ack.find("\"draining\":true"), std::string::npos) << ack;
  EXPECT_TRUE(router.draining());
  EXPECT_EQ(callbacks, 1);

  // Jobs are rejected — but still answered — while admin commands keep
  // working; a second drain acks again without re-firing the callback.
  const std::string rejected = router.HandleLineSync(JobLine("late"));
  EXPECT_NE(rejected.find("\"status\":\"draining\""), std::string::npos)
      << rejected;
  EXPECT_NE(rejected.find("\"id\":\"late\""), std::string::npos);
  const std::string health =
      router.HandleLineSync("{\"cmd\":\"health\",\"id\":\"h\"}");
  EXPECT_NE(health.find("\"healthy\":false"), std::string::npos) << health;
  router.HandleLineSync("{\"cmd\":\"drain\",\"id\":\"d2\"}");
  EXPECT_EQ(callbacks, 1);

  router.WaitDrained();  // nothing in flight: returns immediately
}

// The one id rule reaches the router's own refusals: a numeric id is
// echoed as its integer text on overloaded and draining responses, for
// match and top-k lines alike.
TEST_F(ShardedServiceTest, RefusalsRenderNumericIdsAsIntegerText) {
  ShardedServiceOptions options;
  options.num_shards = 2;
  options.total_threads = 2;  // one worker per shard
  options.max_inflight_per_shard = 1;
  ShardedMatchService router(options);
  const int shard = router.ShardForPath(log1_);
  const std::string match = "{\"id\":7,\"log1\":\"" + log1_ +
                            "\",\"log2\":\"" + log2_ +
                            "\",\"labels\":\"none\"}";
  const std::string topk = "{\"id\":8,\"query\":\"" + log2_ +
                           "\",\"members\":[\"" + log1_ + "\"]}";

  // Park the shard's worker and fill its single admission slot.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  ASSERT_TRUE(router.shard_service(shard).pool().Submit([&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  }));
  router.HandleLine(JobLine("admitted"), [](const std::string&) {});
  EXPECT_EQ(router.HandleLineSync(match).rfind(
                R"({"id":"7","status":"overloaded")", 0),
            0u);
  EXPECT_EQ(router.HandleLineSync(topk).rfind(
                R"({"id":"8","status":"overloaded")", 0),
            0u);
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  router.WaitDrained();

  router.Drain();
  EXPECT_EQ(router.HandleLineSync(match).rfind(
                R"({"id":"7","status":"draining")", 0),
            0u);
  EXPECT_EQ(router.HandleLineSync(topk).rfind(
                R"({"id":"8","status":"draining")", 0),
            0u);
}

TEST_F(ShardedServiceTest, StatsCarriesRouterAndPerShardBreakdown) {
  ShardedServiceOptions options;
  options.num_shards = 3;
  options.total_threads = 3;
  ShardedMatchService router(options);
  router.HandleLineSync(JobLine("j1"));

  const std::string stats =
      router.HandleLineSync("{\"cmd\":\"stats\",\"id\":\"s\"}");
  EXPECT_NE(stats.find("\"router\""), std::string::npos);
  EXPECT_NE(stats.find("\"num_shards\":3"), std::string::npos);
  EXPECT_NE(stats.find("\"shards\":["), std::string::npos);
  EXPECT_NE(stats.find("\"queue_capacity\""), std::string::npos);
  EXPECT_NE(stats.find("\"max_inflight\""), std::string::npos);
  EXPECT_NE(stats.find("\"serve.shard.0.routed\""), std::string::npos)
      << "per-shard instruments missing from the snapshot";

  const std::string slow =
      router.HandleLineSync("{\"cmd\":\"slow\",\"id\":\"sl\"}");
  EXPECT_NE(slow.find("\"flight_recorder\""), std::string::npos);
  const std::string unknown =
      router.HandleLineSync("{\"cmd\":\"nope\",\"id\":\"u\"}");
  EXPECT_NE(unknown.find("\"status\":\"error\""), std::string::npos);
}

// topk fan-out: members partition across shards by the hash ring, each
// shard ranks its subset, and the router's merge must reproduce the
// single service's ranking — same members, same order, same exact
// score bits.
TEST_F(ShardedServiceTest, TopKFanOutMergesToTheSingleServiceRanking) {
  std::vector<std::string> members;
  for (int i = 0; i < 6; ++i) {
    const std::string path =
        TempDir() + "/sharded_topk_" + std::to_string(i) + ".txt";
    WriteFile(path, i < 3 ? "a;b;c;d\na;b;d\na;c;d\n"
                          : "x;y;z\nx;z;y\nz;x;y\n");
    members.push_back(path);
  }
  std::string member_list;
  for (const std::string& m : members) {
    member_list += (member_list.empty() ? "\"" : ",\"") + m + "\"";
  }
  // Every option must reach the shards, prob ones included.
  const std::vector<std::string> option_sets = {
      R"("labels":"qgram","alpha":0.5)",
      R"("labels":"qgram","alpha":0.5,"prob":true,)"
      R"("prob_min_confidence":0.6)"};
  for (const std::string& option_set : option_sets) {
    SCOPED_TRACE(option_set);
    const std::string line = R"({"id":"tk1","query":")" + members[0] +
                             R"(","topk":4,"members":[)" + member_list +
                             "]," + option_set + "}";

    ShardedServiceOptions sharded_options;
    sharded_options.num_shards = 2;
    sharded_options.total_threads = 2;
    ShardedMatchService router(sharded_options);
    const std::string merged_line = router.HandleLineSync(line);
    router.WaitDrained();

    ServiceOptions plain_options;
    plain_options.threads = 2;
    BatchMatchService plain(plain_options);
    const std::string plain_line = plain.HandleJobLine(line);

    Result<JsonValue> merged = ParseJson(merged_line);
    Result<JsonValue> single = ParseJson(plain_line);
    ASSERT_TRUE(merged.ok()) << merged_line;
    ASSERT_TRUE(single.ok()) << plain_line;
    EXPECT_EQ(merged->GetString("status", ""), "ok") << merged_line;
    EXPECT_EQ(single->GetString("status", ""), "ok") << plain_line;
    // The hash ring decides the partition; at least one shard answered.
    EXPECT_GE(merged->GetInt("shards", -1), 1);

    const JsonValue* mh = merged->Find("hits");
    const JsonValue* sh = single->Find("hits");
    ASSERT_NE(mh, nullptr);
    ASSERT_NE(sh, nullptr);
    ASSERT_EQ(mh->array_items().size(), 4u);
    ASSERT_EQ(sh->array_items().size(), 4u);
    for (size_t i = 0; i < 4; ++i) {
      const JsonValue& a = mh->array_items()[i];
      const JsonValue& b = sh->array_items()[i];
      EXPECT_EQ(a.GetString("member", "?"), b.GetString("member", "!"))
          << "rank " << i;
      EXPECT_EQ(a.GetString("score_bits", "?"), b.GetString("score_bits", "!"))
          << "rank " << i;
      EXPECT_EQ(a.GetInt("rank", -1), static_cast<int>(i) + 1);
    }
    // The query is members[0]; its family twins must lead the ranking.
    EXPECT_EQ(mh->array_items()[0].GetString("member", ""), members[0]);

    // The merged stats aggregate every shard's candidates.
    const JsonValue* stats = merged->Find("index");
    ASSERT_NE(stats, nullptr);
    EXPECT_EQ(stats->GetInt("candidates_retrieved", -1), 6);
  }

  for (const std::string& m : members) std::remove(m.c_str());
}

TEST_F(ShardedServiceTest, PerShardCacheDirsAreDisjoint) {
  const std::string root = TempDir() + "/sharded_service_store_test";
  ShardedServiceOptions options;
  options.num_shards = 2;
  options.total_threads = 2;
  options.cache_dir = root;
  ShardedMatchService router(options);
  for (int i = 0; i < 2; ++i) {
    auto* store = router.shard_service(i).artifact_store();
    ASSERT_NE(store, nullptr) << "shard " << i;
  }
  router.HandleLineSync(JobLine("warm"));
  std::filesystem::remove_all(root);
}

// Appends are jobs, not inline admin: they must route through the hash
// ring by log 1's canonical path — the same key match jobs use — so a
// session's appends and matches always land on the one shard that owns
// its state.
TEST_F(ShardedServiceTest, AppendsRouteToTheSessionOwningShard) {
  ShardedServiceOptions options;
  options.num_shards = 3;
  options.total_threads = 3;
  ShardedMatchService router(options);

  const std::string pair = "\"log1\":\"" + log1_ + "\",\"log2\":\"" + log2_ +
                           "\",\"labels\":\"none\"";
  const std::string append_line =
      "{\"cmd\":\"append\",\"id\":\"a1\"," + pair +
      ",\"traces\":[[\"a\",\"b\",\"d\"]]}";

  const std::string first = router.HandleLineSync(append_line);
  EXPECT_NE(first.find("\"status\":\"ok\""), std::string::npos) << first;
  EXPECT_NE(first.find("\"session_created\":true"), std::string::npos)
      << first;

  // A second append to the same pair must find the session created by
  // the first — only possible if both were routed to the same shard.
  const std::string second = router.HandleLineSync(append_line);
  EXPECT_NE(second.find("\"status\":\"ok\""), std::string::npos) << second;
  EXPECT_NE(second.find("\"session_created\":false"), std::string::npos)
      << second;
  EXPECT_NE(second.find("\"warm\":true"), std::string::npos) << second;

  // And a match on the pair is answered from that session's grown state
  // (the appended 'd' is visible), not a fresh parse of the base file.
  const std::string match = router.HandleLineSync(JobLine("m1"));
  EXPECT_NE(match.find("\"status\":\"ok\""), std::string::npos) << match;

  router.WaitDrained();
  uint64_t routed_total = 0;
  for (int i = 0; i < router.num_shards(); ++i) {
    routed_total += router.obs()->metrics.CounterValue(
        ShardMetricName("serve.shard", i, "routed"));
  }
  EXPECT_EQ(routed_total, 3u);
  EXPECT_EQ(router.obs()->metrics.CounterValue("stream.appends"), 2u);
  EXPECT_EQ(router.obs()->metrics.CounterValue("stream.warm_matches"), 1u);
  EXPECT_EQ(router.obs()->metrics.CounterValue("stream.session_matches"), 1u);
}

// The pipe transport: one response per non-blank line, and six cache
// lookups over two distinct logs. Loads are single-flight, so each log
// loads once and every other lookup is a hit, whatever the timing.
TEST_F(ShardedServiceTest, RunStreamEmitsOneResultPerJob) {
  ShardedMatchService router(OneShard(4));
  net::LinesServed served;
  const std::vector<std::string> lines = PipeLines(
      router,
      "{\"id\":\"j1\"," + Pair() + "}\n\n{\"id\":\"j2\"," + Pair() +
          "}\n{\"id\":\"j3\"," + Pair() + "}\n",
      &served);
  EXPECT_EQ(served.lines, 3u);  // blank lines are skipped
  EXPECT_FALSE(served.too_large);
  ASSERT_EQ(lines.size(), 3u);
  for (const std::string& l : lines) {
    EXPECT_NE(l.find("\"status\":\"ok\""), std::string::npos) << l;
  }
  EXPECT_EQ(router.shard_service(0).cache().misses(), 2u);
  EXPECT_EQ(router.shard_service(0).cache().hits(), 4u);
}

// A directory named as a log gets an IOError response and the stream
// goes on to the next line.
TEST_F(ShardedServiceTest, DirectoryLogIsAnsweredAndStreamContinues) {
  const std::string dir = TempDir() + "/sharded_service_pipe_dir.xes";
  std::filesystem::create_directories(dir);
  ShardedMatchService router(OneShard(1));
  const std::vector<std::string> lines = PipeLines(
      router, "{\"id\":\"dir\",\"log1\":\"" + dir + "\",\"log2\":\"" + log2_ +
                  "\"}\n{\"id\":\"next\"," + Pair() + "}\n");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].rfind(R"({"id":"dir","status":"error","code":"IOError")",
                           0),
            0u)
      << lines[0];
  EXPECT_EQ(lines[1].rfind(R"({"id":"next","status":"ok")", 0), 0u)
      << lines[1];
  std::filesystem::remove_all(dir);
}

// On one worker the pipe answers in input order, a malformed line
// included: it waits in shard 0's queue like a job, and id-less lines
// are numbered in arrival order.
TEST_F(ShardedServiceTest, RunStreamKeepsInputOrderOnOneWorker) {
  ShardedMatchService router(OneShard(1));
  const std::vector<std::string> lines =
      PipeLines(router, "{\"id\":\"j1\"," + Pair() + "}\nnot json\n{" +
                            Pair() + "}\n{\"id\":\"j4\"," + Pair() + "}\n");
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines[0].rfind(R"({"id":"j1","status":"ok")", 0), 0u) << lines[0];
  EXPECT_EQ(lines[1].rfind(R"({"id":"req-1","status":"error")", 0), 0u)
      << lines[1];
  EXPECT_EQ(lines[2].rfind(R"({"id":"req-2","status":"ok")", 0), 0u)
      << lines[2];
  EXPECT_EQ(lines[3].rfind(R"({"id":"j4","status":"ok")", 0), 0u) << lines[3];
}

// A pipe never sheds: with one worker, a one-slot queue and an
// admission cap of two, every line of a long batch waits for a slot and
// is answered ok.
TEST_F(ShardedServiceTest, PipeWaitsForASlotInsteadOfShedding) {
  ShardedServiceOptions options = OneShard(1);
  options.shard_queue_capacity = 1;
  ShardedMatchService router(options);
  std::string input;
  constexpr int kJobs = 60;
  for (int i = 0; i < kJobs; ++i) {
    input += "{\"id\":\"p" + std::to_string(i) + "\"," + Pair() + "}\n";
  }
  const std::vector<std::string> lines = PipeLines(router, input);
  ASSERT_EQ(lines.size(), static_cast<size_t>(kJobs));
  for (const std::string& l : lines) {
    EXPECT_NE(l.find("\"status\":\"ok\""), std::string::npos) << l;
  }
  EXPECT_EQ(router.obs()->metrics.CounterValue(
                "net.jobs_rejected_overloaded"),
            0u);
}

// A line past the cap is answered with too_large and ends the input;
// what came before it is answered, what came after is never read.
TEST_F(ShardedServiceTest, RunStreamRefusesAnOverlongLine) {
  ShardedMatchService router(OneShard(1));
  net::LinesServed served;
  const std::vector<std::string> lines = PipeLines(
      router,
      "{\"id\":\"before\"," + Pair() + "}\n" +
          std::string(net::kMaxLineBytes + 1, 'x') + "\n{\"id\":\"after\"," +
          Pair() + "}\n",
      &served);
  EXPECT_TRUE(served.too_large);
  EXPECT_EQ(served.lines, 1u);
  ASSERT_EQ(lines.size(), 2u);
  std::string all = lines[0] + lines[1];
  EXPECT_NE(all.find(R"({"id":"before","status":"ok")"), std::string::npos);
  EXPECT_NE(all.find(R"({"status":"too_large")"), std::string::npos) << all;
  EXPECT_EQ(all.find("after"), std::string::npos);
}

TEST_F(ShardedServiceTest, StatsCommandReportsQuantilesAndRates) {
  ShardedMatchService router(OneShard(1));
  EXPECT_NE(router.HandleLineSync(JobLine("s1")).find("\"status\":\"ok\""),
            std::string::npos);
  (void)router.HandleLineSync(
      R"({"id":"bad","log1":"/nope.txt","log2":"/nope2.txt"})");

  // First stats call: full snapshot, no interval yet.
  const std::string first =
      router.HandleLineSync(R"({"cmd":"stats","id":"st1"})");
  EXPECT_NE(first.find("\"id\":\"st1\""), std::string::npos);
  EXPECT_NE(first.find("\"cmd\":\"stats\""), std::string::npos);
  EXPECT_NE(first.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(first.find("\"snapshot\""), std::string::npos);
  EXPECT_NE(first.find("\"serve.jobs_ok\":1"), std::string::npos);
  EXPECT_NE(first.find("\"serve.jobs_failed\":1"), std::string::npos);
  // Per-outcome latency quantiles from the quantile histograms.
  EXPECT_NE(first.find("\"serve.latency_ms.ok\""), std::string::npos);
  EXPECT_NE(first.find("\"serve.latency_ms.error\""), std::string::npos);
  EXPECT_NE(first.find("\"p50\""), std::string::npos);
  EXPECT_NE(first.find("\"p90\""), std::string::npos);
  EXPECT_NE(first.find("\"p99\""), std::string::npos);
  // Cache and pool figures live in the per-shard blocks.
  EXPECT_NE(first.find("\"cache\""), std::string::npos);
  EXPECT_NE(first.find("\"threads\":1"), std::string::npos);

  // Second stats call after another job: interval rates appear.
  EXPECT_NE(router.HandleLineSync(JobLine("s2")).find("\"status\":\"ok\""),
            std::string::npos);
  const std::string second =
      router.HandleLineSync(R"({"cmd":"stats","id":"st2"})");
  EXPECT_NE(second.find("\"rates\""), std::string::npos);
  EXPECT_NE(second.find("\"interval_seconds\""), std::string::npos);
  EXPECT_NE(second.find("\"serve.jobs_ok\":2"), std::string::npos);
}

TEST_F(ShardedServiceTest, HealthCommandReportsLiveness) {
  ShardedServiceOptions options = OneShard(2);
  options.shard_queue_capacity = 32;
  ShardedMatchService router(options);
  const std::string health =
      router.HandleLineSync(R"({"cmd":"health","id":"h1"})");
  EXPECT_NE(health.find("\"id\":\"h1\""), std::string::npos);
  EXPECT_NE(health.find("\"healthy\":true"), std::string::npos);
  EXPECT_NE(health.find("\"draining\":false"), std::string::npos);
  EXPECT_NE(health.find("\"queue_capacity\":32"), std::string::npos);
  EXPECT_NE(health.find("\"threads\":2"), std::string::npos);
  EXPECT_NE(health.find("\"jobs_in_flight\":0"), std::string::npos);
  EXPECT_NE(health.find("\"uptime_seconds\""), std::string::npos);

  router.Drain();
  const std::string draining =
      router.HandleLineSync(R"({"cmd":"health","id":"h2"})");
  EXPECT_NE(draining.find("\"healthy\":false"), std::string::npos);
  EXPECT_NE(draining.find("\"draining\":true"), std::string::npos);
}

TEST_F(ShardedServiceTest, SlowCommandDumpsFlightRecords) {
  ShardedMatchService router(OneShard(1));
  (void)router.HandleLineSync(JobLine("fast"));
  (void)router.HandleLineSync(
      R"({"id":"broken","log1":"/missing.txt","log2":"/missing2.txt"})");

  const std::string slow =
      router.HandleLineSync(R"({"cmd":"slow","id":"sl"})");
  EXPECT_NE(slow.find("\"cmd\":\"slow\""), std::string::npos);
  EXPECT_NE(slow.find("\"flight_recorder\""), std::string::npos);
  EXPECT_NE(slow.find("\"records_seen\":2"), std::string::npos);
  // Both requests retained on the slow side; the failure also appears in
  // recent_failures with its error and span tree.
  EXPECT_NE(slow.find("\"fast\""), std::string::npos);
  EXPECT_NE(slow.find("\"recent_failures\""), std::string::npos);
  EXPECT_NE(slow.find("\"broken\""), std::string::npos);
  EXPECT_NE(slow.find("\"request:fast\""), std::string::npos);  // span name
  EXPECT_NE(slow.find("\"load_logs\""), std::string::npos);
}

TEST_F(ShardedServiceTest, UnknownAdminCommandRendersError) {
  ShardedMatchService router(OneShard(1));
  const std::string line =
      router.HandleLineSync(R"({"cmd":"reboot","id":"x"})");
  EXPECT_NE(line.find("\"status\":\"error\""), std::string::npos);
  EXPECT_NE(line.find("reboot"), std::string::npos);
}

TEST_F(ShardedServiceTest, TelemetryOffRunsBare) {
  ShardedServiceOptions options = OneShard(1);
  options.telemetry = false;
  ShardedMatchService router(options);
  EXPECT_EQ(router.obs(), nullptr);
  EXPECT_EQ(router.shard_service(0).flight_recorder(), nullptr);
  const std::string line = router.HandleLineSync(JobLine("b1"));
  EXPECT_NE(line.find("\"status\":\"ok\""), std::string::npos);
  // Admin commands still answer; stats degrades to the structural gauges.
  const std::string stats = router.HandleLineSync(R"({"cmd":"stats"})");
  EXPECT_NE(stats.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_EQ(stats.find("\"snapshot\""), std::string::npos);
  EXPECT_NE(stats.find("\"cache\""), std::string::npos);
}

TEST_F(ShardedServiceTest, RunStreamAnswersAdminCommandsMidStream) {
  ShardedMatchService router(OneShard(2));
  net::LinesServed served;
  const std::vector<std::string> lines = PipeLines(
      router,
      "{\"id\":\"j1\"," + Pair() + "}\n" +
          R"({"cmd":"stats","id":"mid-stats"})" + "\n{\"id\":\"j2\"," +
          Pair() + "}\n" + R"({"cmd":"health","id":"mid-health"})" + "\n",
      &served);
  EXPECT_EQ(served.lines, 4u);  // 2 jobs + 2 admin lines
  std::string output;
  for (const std::string& l : lines) output += l + "\n";
  EXPECT_NE(output.find("\"id\":\"mid-stats\""), std::string::npos);
  EXPECT_NE(output.find("\"id\":\"mid-health\""), std::string::npos);
  EXPECT_NE(output.find("\"id\":\"j1\""), std::string::npos);
  EXPECT_NE(output.find("\"id\":\"j2\""), std::string::npos);
}

// One id rule for every request kind: a numeric id renders as its
// integer text on a match, a top-k query, an append, an admin command
// and a line that fails validation alike.
TEST_F(ShardedServiceTest, NumericIdsRenderAsIntegerTextOnEveryKind) {
  ShardedMatchService router(OneShard(1));
  const std::string match = router.HandleLineSync(R"({"id":7,)" + Pair() + "}");
  const std::string topk = router.HandleLineSync(
      R"({"id":8,"query":")" + log1_ + R"(","topk":1,"members":[")" + log2_ +
      R"("]})");
  const std::string append = router.HandleLineSync(
      R"({"cmd":"append","id":9,)" + Pair() + R"(,"traces":[["a","b"]]})");
  const std::string admin =
      router.HandleLineSync(R"({"cmd":"health","id":10})");
  const std::string invalid =
      router.HandleLineSync(R"({"id":11,)" + Pair() + R"(,"c":2})");
  EXPECT_EQ(match.rfind(R"({"id":"7","status":"ok")", 0), 0u) << match;
  EXPECT_EQ(topk.rfind(R"({"id":"8","status":"ok")", 0), 0u) << topk;
  EXPECT_EQ(append.rfind(R"({"id":"9","status":"ok")", 0), 0u) << append;
  EXPECT_EQ(admin.rfind(R"({"id":"10","status":"ok")", 0), 0u) << admin;
  EXPECT_EQ(invalid.rfind(R"({"id":"11","status":"error")", 0), 0u)
      << invalid;
}

TEST_F(ShardedServiceTest, JobsWithoutIdGetAssignedRequestIds) {
  ShardedMatchService router(OneShard(1));
  const std::string line = router.HandleLineSync(
      R"({"log1":"/missing1.txt","log2":"/missing2.txt"})");
  EXPECT_NE(line.find("\"id\":\"req-"), std::string::npos) << line;
}

// The router numbers id-less lines from one sequence, before routing:
// lines that land on different shards, and a line that is not JSON,
// never share an id, and a shed id-less line carries its req-N.
TEST_F(ShardedServiceTest, AssignedIdsAreDistinctAcrossShards) {
  ShardedServiceOptions options;
  options.num_shards = 4;
  options.total_threads = 4;  // one worker per shard
  options.max_inflight_per_shard = 1;
  ShardedMatchService router(options);

  // Logs that route to at least three different shards.
  std::vector<std::string> logs;
  std::set<int> shards;
  for (int i = 0; i < 32 && shards.size() < 3; ++i) {
    const std::string path =
        TempDir() + "/sharded_ids_" + std::to_string(i) + ".txt";
    WriteFile(path, "a;b\n");
    if (shards.insert(router.ShardForPath(path)).second) logs.push_back(path);
    else std::remove(path.c_str());
  }
  ASSERT_EQ(shards.size(), 3u);

  std::set<std::string> ids;
  std::vector<std::string> responses;
  for (int round = 0; round < 2; ++round) {
    for (const std::string& log : logs) {
      responses.push_back(router.HandleLineSync(
          "{\"log1\":\"" + log + "\",\"log2\":\"" + log2_ + "\"}"));
    }
  }
  responses.push_back(router.HandleLineSync("not json"));
  for (const std::string& response : responses) {
    Result<JsonValue> doc = ParseJson(response);
    ASSERT_TRUE(doc.ok()) << response;
    const std::string id = doc->GetString("id", "");
    EXPECT_EQ(id.rfind("req-", 0), 0u) << response;
    EXPECT_TRUE(ids.insert(id).second) << "duplicate id " << id;
  }

  // Every slot released, park the worker of logs[0]'s shard, fill its
  // one slot, and shed an id-less line.
  router.WaitDrained();
  const int shard = router.ShardForPath(logs[0]);
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  ASSERT_TRUE(router.shard_service(shard).pool().Submit([&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  }));
  const std::string idless =
      "{\"log1\":\"" + logs[0] + "\",\"log2\":\"" + log2_ + "\"}";
  router.HandleLine(idless, [](const std::string&) {});
  const std::string shed = router.HandleLineSync(idless);
  EXPECT_EQ(shed.rfind(R"({"id":"req-)", 0), 0u) << shed;
  EXPECT_NE(shed.find("\"status\":\"overloaded\""), std::string::npos)
      << shed;
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  router.WaitDrained();
  for (const std::string& log : logs) std::remove(log.c_str());
}

}  // namespace
}  // namespace serve
}  // namespace ems
