// The serving workload: `ems_serve --tcp --shards=2 --threads=2` driven
// open loop from one client over two connections, on a fixed seeded
// schedule that interleaves matches, prob matches, appends, top-k
// queries and stats. Every request is timed from the moment it was due,
// not from when it was sent, so a stall shows in every request behind it.
#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <memory>
#include <thread>

#include "eval/metrics.h"
#include "net/hash_ring.h"
#include "net/wire.h"
#include "perfbench.h"
#include "serve/service.h"
#include "synth/dataset.h"
#include "util/json_parser.h"
#include "util/json_writer.h"
#include "util/random.h"

extern char** environ;

namespace perfbench {

using namespace ems;

namespace {

// ems_serve --shards=2 --threads=2: one worker per shard.
constexpr int kServeShards = 2;

enum class Kind { kMatch, kProbMatch, kStreamMatch, kAppend, kTopK, kStats };

// Request kinds as the per-kind latency metrics group them.
const char* KindName(Kind k) {
  switch (k) {
    case Kind::kAppend:
      return "append";
    case Kind::kTopK:
      return "topk";
    case Kind::kStats:
      return "stats";
    default:
      return "match";
  }
}

// One block of the schedule: 80% matches on read pairs (1 in 10 with
// "prob"), 5% matches on stream pairs, 10% appends, 3% top-k, 2% stats,
// spread evenly over the block by smooth weighted round robin. Even
// spacing keeps two top-k queries (the slowest kind) from ever arriving
// back to back, so the tail does not hinge on where a shuffle put them.
std::vector<Kind> Block() {
  const std::pair<Kind, int> weights[] = {
      {Kind::kMatch, 72}, {Kind::kProbMatch, 8}, {Kind::kStreamMatch, 5},
      {Kind::kAppend, 10}, {Kind::kTopK, 3},     {Kind::kStats, 2}};
  int current[6] = {0, 0, 0, 0, 0, 0};
  std::vector<Kind> block;
  for (int slot = 0; slot < 100; ++slot) {
    size_t best = 0;
    for (size_t i = 0; i < 6; ++i) {
      current[i] += weights[i].second;
      if (current[i] > current[best]) best = i;
    }
    current[best] -= 100;
    block.push_back(weights[best].first);
  }
  return block;
}

struct Request {
  Kind kind = Kind::kStats;
  int target = 0;  // read pair, stream pair or query
  int batch = 0;   // append: delta batch of the stream pair
};

struct Schedule {
  std::vector<Request> requests;
  int batches_per_stream_pair = 1;  // batch 0 is the warm pass's append
};

// The seed picks where in the block the schedule starts (and, through
// MakePair, the trace order of every input file).
Schedule MakeSchedule(const ServeWorkload& def, uint64_t seed) {
  Schedule schedule;
  Rng rng(seed);
  std::vector<Kind> block = Block();
  std::rotate(block.begin(),
              block.begin() + static_cast<long>(rng.UniformIndex(block.size())),
              block.end());
  std::vector<int> next(6, 0);
  std::vector<int> appends(static_cast<size_t>(def.stream_pairs), 0);
  while (static_cast<int>(schedule.requests.size()) < def.requests) {
    for (Kind kind : block) {
      if (static_cast<int>(schedule.requests.size()) == def.requests) break;
      Request r;
      r.kind = kind;
      const int n = next[static_cast<size_t>(kind)]++;
      switch (kind) {
        case Kind::kMatch:
        case Kind::kProbMatch:
          r.target = n % def.read_pairs;
          break;
        case Kind::kStreamMatch:
          r.target = n % def.stream_pairs;
          break;
        case Kind::kAppend:
          r.target = n % def.stream_pairs;
          r.batch = ++appends[static_cast<size_t>(r.target)];
          schedule.batches_per_stream_pair =
              std::max(schedule.batches_per_stream_pair, r.batch + 1);
          break;
        case Kind::kTopK:
          r.target = n % 2;
          break;
        case Kind::kStats:
          break;
      }
      schedule.requests.push_back(std::move(r));
    }
  }
  return schedule;
}

struct Inputs {
  std::vector<std::string> read_a, read_b;
  std::vector<GroundTruth> truth;
  std::vector<std::string> stream_a, stream_b;
  std::vector<std::vector<std::string>> deltas;  // per stream pair
  std::string corpus;
  std::vector<std::string> queries;
};

// ems_serve routes a job by the hash of its first log's canonical path,
// and a top-k query's members by theirs. File names are chosen so that
// pair i lands on shard i % 2 and the corpus splits evenly, wherever the
// checkout lives; otherwise the balance, and with it every queueing
// delay, would change from run to run with the work directory's path.
const net::HashRing& Ring() {
  static const net::HashRing ring(kServeShards);
  return ring;
}

std::string PlacedStem(const std::string& dir, const std::string& stem,
                       int shard) {
  for (int v = 0;; ++v) {
    const std::string base = dir + "/" + stem + "_" + std::to_string(v);
    if (Ring().ShardFor(base + "_a.xes") == shard) return base;
  }
}

std::string BalancedCorpusDir(const std::string& dir,
                              const std::vector<CorpusMember>& members) {
  for (int v = 0;; ++v) {
    const std::string corpus = dir + "/corpus_" + std::to_string(v);
    size_t on_first = 0;
    for (const CorpusMember& m : members) {
      if (Ring().ShardFor(corpus + "/" + m.name + ".xes") == 0) ++on_first;
    }
    if (on_first == members.size() / 2) return corpus;
  }
}

Inputs WriteInputs(const ServeWorkload& def, const Schedule& schedule,
                   uint64_t seed, const std::string& dir) {
  Inputs in;
  // Every pair is the same spec (so every match costs the same) in its
  // own trace order (so no two files are alike).
  for (int i = 0; i < def.read_pairs; ++i) {
    GeneratedPair pair = MakePair(def.pair, seed + static_cast<uint64_t>(i));
    const std::string base =
        PlacedStem(dir, "read" + std::to_string(i), i % kServeShards);
    in.read_a.push_back(base + "_a.xes");
    in.read_b.push_back(base + "_b.xes");
    WriteLogFile(pair.log1, in.read_a.back());
    WriteLogFile(pair.log2, in.read_b.back());
    in.truth.push_back(std::move(pair.truth));
  }
  for (int j = 0; j < def.stream_pairs; ++j) {
    PairSpec spec = def.pair;
    spec.append_batches = schedule.batches_per_stream_pair;
    GeneratedPair pair =
        MakePair(spec, seed + static_cast<uint64_t>(def.read_pairs + j));
    const std::string base =
        PlacedStem(dir, "stream" + std::to_string(j), j % kServeShards);
    in.stream_a.push_back(base + "_a.xes");
    in.stream_b.push_back(base + "_b.xes");
    WriteLogFile(pair.log1, in.stream_a.back());
    WriteLogFile(pair.log2, in.stream_b.back());
    in.deltas.emplace_back();
    for (size_t k = 0; k < pair.appends.size(); ++k) {
      in.deltas.back().push_back(base + "_delta" + std::to_string(k) + ".xes");
      WriteLogFile(pair.appends[k], in.deltas.back().back());
    }
  }
  SynthCorpusOptions corpus_options;
  corpus_options.num_members = def.corpus_members;
  corpus_options.seed = def.corpus_seed;
  const std::vector<CorpusMember> corpus = MakeCorpus(corpus_options);
  in.corpus = BalancedCorpusDir(dir, corpus);
  std::filesystem::create_directories(in.corpus);
  for (const CorpusMember& m : corpus) {
    WriteLogFile(m.log, in.corpus + "/" + m.name + ".xes");
  }
  in.queries = {in.corpus + "/fam0_a.xes", in.corpus + "/fam2_b.xes"};
  return in;
}

std::string RequestId(char prefix, size_t k) {
  std::string id(1, prefix);
  id += std::to_string(k);
  return id;
}

std::string RequestLine(const Request& r, const Inputs& in,
                        const std::string& id) {
  JsonWriter w;
  w.BeginObject();
  if (r.kind == Kind::kAppend || r.kind == Kind::kStats) {
    w.Key("cmd");
    w.String(r.kind == Kind::kAppend ? "append" : "stats");
  }
  w.Key("id");
  w.String(id);
  const size_t t = static_cast<size_t>(r.target);
  switch (r.kind) {
    case Kind::kMatch:
    case Kind::kProbMatch:
      w.Key("log1");
      w.String(in.read_a[t]);
      w.Key("log2");
      w.String(in.read_b[t]);
      if (r.kind == Kind::kProbMatch) {
        w.Key("prob");
        w.Bool(true);
      }
      break;
    case Kind::kStreamMatch:
    case Kind::kAppend:
      w.Key("log1");
      w.String(in.stream_a[t]);
      w.Key("log2");
      w.String(in.stream_b[t]);
      if (r.kind == Kind::kAppend) {
        w.Key("delta");
        w.String(in.deltas[t][static_cast<size_t>(r.batch)]);
      }
      break;
    case Kind::kTopK:
      w.Key("query");
      w.String(in.queries[t]);
      w.Key("topk");
      w.Int(3);
      w.Key("corpus");
      w.String(in.corpus);
      break;
    case Kind::kStats:
      break;
  }
  w.EndObject();
  return w.str() + "\n";
}

// The tail of an ok match response from "correspondences" on, rendered
// as the service renders it: every name and similarity digit it sends.
std::string ExpectedMatchTail(const MatchResult& result) {
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
    if (result.soft.has_value()) {
      w.Key("confidence");
      w.Number(c.confidence);
    }
    w.EndObject();
  }
  w.EndArray();
  w.Key("ems");
  w.BeginObject();
  w.Key("iterations");
  w.Int(result.ems_stats.iterations);
  w.Key("formula_evaluations");
  w.Int(static_cast<long long>(result.ems_stats.formula_evaluations));
  w.EndObject();
  if (result.soft.has_value()) {
    const prob::EmStats& em = result.soft->stats;
    w.Key("prob");
    w.BeginObject();
    w.Key("iterations");
    w.Int(em.iterations);
    w.Key("converged");
    w.Bool(em.converged);
    w.Key("final_delta");
    w.Number(em.final_delta);
    w.Key("mean_entropy");
    w.Number(em.mean_entropy);
    w.EndObject();
  }
  w.EndObject();
  const std::string doc = w.str();
  return doc.substr(1);  // drop '{': the response continues after "millis"
}

std::string TailFrom(const std::string& line, const char* key) {
  const size_t at = line.find(key);
  return at == std::string::npos ? std::string() : line.substr(at);
}

// The ranking of a top-k response: its "hits" array, without the index
// statistics that follow it.
std::string HitsOf(const std::string& line) {
  std::string hits = TailFrom(line, "\"hits\"");
  hits.resize(std::min(hits.size(), hits.find("\"index\"")));
  return hits;
}

// In-process results for the read pairs, computed in set-up: the
// expected response of every plain and prob match, and its F-measure.
struct Expected {
  std::vector<std::string> tail[2];  // [prob][pair]
  std::vector<double> f_measure[2];
};

Expected ComputeExpected(const ServeWorkload& def, const Inputs& in) {
  Expected e;
  for (int prob = 0; prob < 2; ++prob) {
    for (int i = 0; i < def.read_pairs; ++i) {
      Request r;
      r.kind = prob ? Kind::kProbMatch : Kind::kMatch;
      r.target = i;
      Result<serve::JobRequest> job = serve::ParseJobRequest(
          RequestLine(r, in, "expected"));
      if (!job.ok()) Die("request line: " + job.status().ToString());
      job->options.ems.num_threads = 1;  // results are thread-count free
      const EventLog log1 = LoadLog(job->log1);
      const EventLog log2 = LoadLog(job->log2);
      Result<MatchResult> result = Matcher(job->options).Match(log1, log2);
      if (!result.ok()) Die("in-process match: " + result.status().ToString());
      e.tail[prob].push_back(ExpectedMatchTail(*result));
      e.f_measure[prob].push_back(
          Evaluate(in.truth[static_cast<size_t>(i)], result->correspondences)
              .f_measure);
    }
  }
  return e;
}

// Splits the CPUs this process may use: the last one for the request
// writer alone, the rest for everything else (ems_serve, the response
// readers, set-up). Without this the writer shares a CPU with a busy
// server worker in some runs and sends late for the whole run.
struct CpuSplit {
  bool split = false;
  cpu_set_t writer;
  cpu_set_t rest;
};

CpuSplit SplitCpus() {
  CpuSplit cpus;
  CPU_ZERO(&cpus.writer);
  CPU_ZERO(&cpus.rest);
  cpu_set_t all;
  if (sched_getaffinity(0, sizeof all, &all) != 0 || CPU_COUNT(&all) < 2) {
    return cpus;
  }
  int last = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &all)) {
      if (last >= 0) CPU_SET(last, &cpus.rest);
      last = c;
    }
  }
  CPU_SET(last, &cpus.writer);
  cpus.split = true;
  return cpus;
}

void PinThisThread(const CpuSplit& cpus, const cpu_set_t& set) {
  if (cpus.split && sched_setaffinity(0, sizeof set, &set) != 0) {
    Die("cannot set the CPU affinity of the client");
  }
}

// Keeps every CPU of a set from halting while it lives: one thread per
// CPU spins there at SCHED_IDLE, so any other thread on that CPU runs
// ahead of it at once. Each request wakes up to three sleeping threads
// (the server's connection reader and shard worker, the client's
// response reader). On a virtualised host a halted vCPU can take
// milliseconds to wake when the host is busy: in such stretches the
// time outside the handler rose from 0.3 to 12-20 ms at p90 and
// serve_mixed's p50 from 4.6 to 6.7 ms, while with the CPUs kept busy
// the same stretches left both where they were (0.3 and 4.7 ms).
class CpuKeepers {
 public:
  explicit CpuKeepers(const cpu_set_t& set) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (!CPU_ISSET(c, &set)) continue;
      threads_.emplace_back([this, c] {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(c, &one);
        sched_param idle{};
        if (sched_setaffinity(0, sizeof one, &one) != 0 ||
            sched_setscheduler(0, SCHED_IDLE, &idle) != 0) {
          return;  // that CPU may halt again; nothing else changes
        }
        while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
          __builtin_ia32_pause();  // leaves a sibling hyperthread room
#endif
        }
      });
    }
  }
  ~CpuKeepers() {
    stop_.store(true);
    for (std::thread& t : threads_) t.join();
  }
  CpuKeepers(const CpuKeepers&) = delete;
  CpuKeepers& operator=(const CpuKeepers&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

class Server {
 public:
  Server(const std::string& bin, const std::string& dir) {
    announce_ = dir + "/announce";
    std::filesystem::remove(announce_);
    const std::string log = dir + "/serve.log";
    std::vector<std::string> args = {
        bin, "--tcp=127.0.0.1:0", "--tcp-announce=" + announce_,
        "--shards=" + std::to_string(kServeShards),
        "--threads=" + std::to_string(kServeShards)};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, log.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&actions, 1, 2);
    const int rc = posix_spawn(&pid_, bin.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) Die("cannot start " + bin);
  }
  ~Server() { Stop(); }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // The bound host:port, once the server has announced it.
  std::string WaitForEndpoint() {
    const Clock::time_point t0 = Clock::now();
    while (SecondsSince(t0) < 20) {
      std::ifstream in(announce_);
      std::string endpoint;
      if (in >> endpoint && !endpoint.empty()) return endpoint;
      if (waitpid(pid_, nullptr, WNOHANG) == pid_) {
        pid_ = -1;
        Die("ems_serve exited during start-up");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    Die("ems_serve did not announce its port");
  }

  int pid() const { return pid_; }

  // Graceful drain (SIGTERM), then SIGKILL if it does not exit in time.
  void Stop() {
    if (pid_ <= 0) return;
    kill(pid_, SIGTERM);
    const Clock::time_point t0 = Clock::now();
    while (waitpid(pid_, nullptr, WNOHANG) == 0) {
      if (SecondsSince(t0) > 10) {
        kill(pid_, SIGKILL);
        waitpid(pid_, nullptr, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
  }

 private:
  pid_t pid_ = -1;
  std::string announce_;
};

struct Connection {
  int fd = -1;
  std::unique_ptr<net::FdLineReader> reader;
};

std::string Exchange(Connection& c, const std::string& line) {
  Status s = net::WriteAll(c.fd, line);
  std::string response;
  if (!s.ok() || !c.reader->ReadLine(&response)) {
    Die("ems_serve did not answer " + line);
  }
  return response;
}

double Counter(const JsonValue& stats, const char* name) {
  const JsonValue* snapshot = stats.Find("snapshot");
  const JsonValue* counters =
      snapshot != nullptr ? snapshot->Find("counters") : nullptr;
  return counters != nullptr ? counters->GetNumber(name, 0) : 0;
}

}  // namespace

int RunServeWorkload(const Flags& flags, const ServeWorkload& def) {
  const std::string dir = std::filesystem::canonical(flags.work_dir).string();
  const Schedule schedule = MakeSchedule(def, flags.seed);
  const size_t n = schedule.requests.size();
  std::vector<std::string> lines(n);
  const CpuSplit cpus = SplitCpus();
  PinThisThread(cpus, cpus.rest);  // ems_serve inherits this at spawn
  // The writer keeps its own CPU busy; the others are kept from halting
  // through set-up (whose warm pass is request after request) and the
  // timed phase.
  std::unique_ptr<CpuKeepers> keepers;
  if (cpus.split) keepers = std::make_unique<CpuKeepers>(cpus.rest);

  // Set-up, several times over: inputs, in-process expectations, a fresh
  // ems_serve and one warm pass over the working set.
  std::vector<double> setup_s;
  std::vector<std::string> mismatches;
  Inputs in;
  Expected expected;
  std::unique_ptr<Server> server;
  std::vector<Connection> conns(2);
  std::string topk_hits[2];
  double base_hits = 0;
  double base_misses = 0;
  for (int rep = 0; rep < kSetups; ++rep) {
    const bool last = rep + 1 == kSetups;
    const Clock::time_point t0 = Clock::now();
    in = WriteInputs(def, schedule, flags.seed, dir);
    for (size_t k = 0; k < n; ++k) {
      lines[k] = RequestLine(schedule.requests[k], in, RequestId('r', k));
    }
    expected = ComputeExpected(def, in);
    server = std::make_unique<Server>(flags.serve_bin, dir);
    const std::string endpoint = server->WaitForEndpoint();
    for (Connection& c : conns) {
      Result<int> fd = net::ConnectEndpoint(endpoint, "");
      if (!fd.ok()) Die("connect: " + fd.status().ToString());
      c.fd = *fd;
      c.reader = std::make_unique<net::FdLineReader>(c.fd);
    }
    // Warm pass: every read pair (plain and prob), every stream pair
    // (match, then its first append), every top-k query, then stats.
    std::vector<Request> warm;
    for (int i = 0; i < def.read_pairs; ++i) {
      warm.push_back({Kind::kMatch, i, 0});
      warm.push_back({Kind::kProbMatch, i, 0});
    }
    for (int j = 0; j < def.stream_pairs; ++j) {
      warm.push_back({Kind::kStreamMatch, j, 0});
      warm.push_back({Kind::kAppend, j, 0});
    }
    warm.push_back({Kind::kTopK, 0, 0});
    warm.push_back({Kind::kTopK, 1, 0});
    warm.push_back({Kind::kStats, 0, 0});
    for (size_t k = 0; k < warm.size(); ++k) {
      const Request& r = warm[k];
      const std::string response =
          Exchange(conns[0], RequestLine(r, in, RequestId('w', k)));
      Result<JsonValue> doc = ParseJson(response);
      if (!doc.ok() || doc->GetString("status", "") != "ok") {
        Die("warm-up request failed: " + response);
      }
      if (r.kind == Kind::kMatch || r.kind == Kind::kProbMatch) {
        const int prob = r.kind == Kind::kProbMatch ? 1 : 0;
        if (TailFrom(response, "\"correspondences\"") !=
            expected.tail[prob][static_cast<size_t>(r.target)]) {
          mismatches.push_back("warm-up match on read pair " +
                               std::to_string(r.target) +
                               " differs from the in-process match");
        }
      } else if (r.kind == Kind::kTopK) {
        topk_hits[r.target] = HitsOf(response);
      } else if (r.kind == Kind::kStats) {
        base_hits = Counter(*doc, "serve.cache.hits");
        base_misses = Counter(*doc, "serve.cache.misses");
      }
    }
    setup_s.push_back(SecondsSince(t0));
    if (!last) {
      for (Connection& c : conns) close(c.fd);
      server->Stop();
    }
  }

  // Timed phase: request k is due at start + k / rate, whatever happened
  // to the requests before it.
  std::vector<Clock::time_point> due(n);
  std::vector<Clock::time_point> sent(n);
  std::vector<Clock::time_point> received(n);
  std::vector<std::string> responses(n);
  std::vector<char> answered(n, 0);
  std::atomic<size_t> answers{0};
  std::vector<std::thread> readers;
  for (Connection& c : conns) {
    readers.emplace_back([&c, &received, &responses, &answered, &answers] {
      std::string line;
      while (c.reader->ReadLine(&line)) {
        const Clock::time_point now = Clock::now();
        const size_t at = line.find("\"id\":\"r");
        if (at == std::string::npos) continue;
        const size_t k = std::strtoul(line.c_str() + at + 7, nullptr, 10);
        if (k >= responses.size() || answered[k]) continue;
        received[k] = now;
        responses[k] = std::move(line);
        answered[k] = 1;
        answers.fetch_add(1, std::memory_order_release);
      }
    });
  }
  ResetPeakRss(server->pid());
  PinThisThread(cpus, cpus.writer);
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(10);
  for (size_t k = 0; k < n; ++k) {
    due[k] = start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(k / def.rate));
    // Spin, not sleep: on a virtualised host a sleeping thread can wake
    // milliseconds late, and that lateness would be charged to the server.
    while (Clock::now() < due[k]) std::this_thread::yield();
    Status s = net::WriteAll(conns[k % 2].fd, lines[k]);
    sent[k] = Clock::now();
    if (!s.ok()) break;
  }
  for (Connection& c : conns) shutdown(c.fd, SHUT_WR);
  const Clock::time_point give_up = Clock::now() + std::chrono::seconds(30);
  while (answers.load(std::memory_order_acquire) < n &&
         Clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  keepers.reset();
  const double peak_rss_mb = PeakRssMb(server->pid());
  for (Connection& c : conns) shutdown(c.fd, SHUT_RDWR);
  for (std::thread& t : readers) t.join();
  for (Connection& c : conns) close(c.fd);
  server->Stop();

  // Score every response.
  Clock::time_point last_answer = start;
  double hits = base_hits;
  double misses = base_misses;
  double queue_depth_max = 0;
  long long stream_iterations = 0;
  long long stream_saved = 0;
  long long topk_queries = 0;
  long long exact_runs = 0;
  long long retrieved = 0;
  long long pruned = 0;
  std::vector<int> prob_iterations;
  JsonWriter w;
  w.BeginObject();
  w.Key("kind");
  w.String("serve");
  w.Key("requests");
  w.BeginArray();
  for (size_t k = 0; k < n; ++k) {
    const Request& r = schedule.requests[k];
    std::string status = "unanswered";
    double millis = -1;
    if (answered[k]) {
      last_answer = std::max(last_answer, received[k]);
      Result<JsonValue> doc = ParseJson(responses[k]);
      if (!doc.ok()) {
        mismatches.push_back("response " + std::to_string(k) +
                             " is not JSON");
      } else {
        status = doc->GetString("status", "missing");
        millis = doc->GetNumber("millis", -1);
      }
      if (doc.ok() && status == "ok") {
        const JsonValue& d = *doc;
        if (r.kind == Kind::kMatch || r.kind == Kind::kProbMatch) {
          const int prob = r.kind == Kind::kProbMatch ? 1 : 0;
          const size_t t = static_cast<size_t>(r.target);
          if (TailFrom(responses[k], "\"correspondences\"") !=
              expected.tail[prob][t]) {
            mismatches.push_back("request " + std::to_string(k) +
                                 ": match on read pair " +
                                 std::to_string(r.target) +
                                 " differs from the in-process match");
          }
          if (prob) {
            const JsonValue* p = d.Find("prob");
            prob_iterations.push_back(p != nullptr ? p->GetInt("iterations", 0)
                                                   : 0);
          }
        } else if (r.kind == Kind::kAppend) {
          if (const JsonValue* s = d.Find("stream")) {
            stream_iterations += s->GetInt("iterations", 0);
            stream_saved += s->GetInt("iterations_saved", 0);
          }
        } else if (r.kind == Kind::kTopK) {
          if (HitsOf(responses[k]) != topk_hits[r.target]) {
            mismatches.push_back("request " + std::to_string(k) +
                                 ": top-k ranking differs from the first "
                                 "answer to the same query");
          }
          if (const JsonValue* ix = d.Find("index")) {
            ++topk_queries;
            exact_runs += ix->GetInt("exact_runs", 0);
            retrieved += ix->GetInt("candidates_retrieved", 0);
            pruned += ix->GetInt("pruned_by_bound", 0);
          }
        } else if (r.kind == Kind::kStats) {
          hits = Counter(d, "serve.cache.hits");
          misses = Counter(d, "serve.cache.misses");
          const JsonValue* snapshot = d.Find("snapshot");
          const JsonValue* gauges =
              snapshot != nullptr ? snapshot->Find("gauges") : nullptr;
          for (int s = 0; gauges != nullptr && s < 2; ++s) {
            queue_depth_max = std::max(
                queue_depth_max,
                gauges->GetNumber("serve.shard." + std::to_string(s) +
                                      ".queue_depth",
                                  0));
          }
        }
      }
    }
    w.BeginObject();
    w.Key("kind");
    w.String(KindName(r.kind));
    w.Key("status");
    w.String(status);
    w.Key("latency_ms");
    w.Number(answered[k] ? MillisBetween(due[k], received[k]) : -1);
    w.Key("send_lag_ms");
    w.Number(MillisBetween(due[k], sent[k]));
    w.Key("millis");
    w.Number(millis);
    w.EndObject();
  }
  w.EndArray();
  w.Key("setup_s");
  w.BeginArray();
  for (double s : setup_s) w.Number(s);
  w.EndArray();
  w.Key("rate");
  w.Number(def.rate);
  w.Key("latency_limit_ms");
  w.Number(def.latency_limit_ms);
  w.Key("timed_wall_s");
  w.Number(std::chrono::duration<double>(last_answer - start).count());
  w.Key("peak_rss_mb");
  w.Number(peak_rss_mb);
  // The warm pass byte-checked one plain and one prob response per read
  // pair, so this is their F whatever share of the timed requests failed.
  double f_sum = 0;
  for (int prob = 0; prob < 2; ++prob) {
    for (double f : expected.f_measure[prob]) f_sum += f;
  }
  w.Key("f_measure");
  w.Number(f_sum / (2.0 * def.read_pairs));
  w.Key("cache_hits");
  w.Number(hits - base_hits);
  w.Key("cache_misses");
  w.Number(misses - base_misses);
  w.Key("queue_depth_max");
  w.Number(queue_depth_max);
  w.Key("stream_iterations");
  w.Int(stream_iterations);
  w.Key("stream_iterations_saved");
  w.Int(stream_saved);
  w.Key("topk_queries");
  w.Int(topk_queries);
  w.Key("topk_exact_runs");
  w.Int(exact_runs);
  w.Key("topk_candidates");
  w.Int(retrieved);
  w.Key("topk_pruned");
  w.Int(pruned);
  w.Key("prob_iterations");
  w.BeginArray();
  for (int it : prob_iterations) w.Int(it);
  w.EndArray();
  w.Key("mismatches");
  w.BeginArray();
  for (const std::string& m : mismatches) w.String(m);
  w.EndArray();
  w.EndObject();
  WriteTextFile(flags.out_path, w.str());
  return mismatches.empty() ? 0 : 1;
}

}  // namespace perfbench
