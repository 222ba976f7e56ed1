#include "store/snapshot.h"

#include <cstring>

#include "core/matcher.h"
#include "graph/dependency_graph.h"
#include "log/event_log.h"
#include "store/hashing.h"

namespace ems {
namespace store {

const char* ArtifactKindName(ArtifactKind kind) {
  switch (kind) {
    case ArtifactKind::kEventLog: return "log";
    case ArtifactKind::kDependencyGraph: return "graph";
    case ArtifactKind::kCorpusIndex: return "corpus";
    case ArtifactKind::kSimilarityMatrix: return "seed";
  }
  return "unknown";
}

namespace {

void AppendRaw(std::string* out, const void* data, size_t n) {
  out->append(static_cast<const char*>(data), n);
}

void AppendU32(std::string* out, uint32_t v) { AppendRaw(out, &v, sizeof(v)); }
void AppendU64(std::string* out, uint64_t v) { AppendRaw(out, &v, sizeof(v)); }

}  // namespace

void SnapshotWriter::U8(uint8_t v) { AppendRaw(&payload_, &v, sizeof(v)); }
void SnapshotWriter::U32(uint32_t v) { AppendU32(&payload_, v); }
void SnapshotWriter::U64(uint64_t v) { AppendU64(&payload_, v); }

void SnapshotWriter::I32(int32_t v) {
  uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  AppendU32(&payload_, bits);
}

void SnapshotWriter::F64(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  AppendU64(&payload_, bits);
}

void SnapshotWriter::Str(std::string_view s) {
  U64(s.size());
  AppendRaw(&payload_, s.data(), s.size());
}

std::string SnapshotWriter::Finish(ArtifactKind kind) const {
  std::string out;
  out.reserve(kSnapshotHeaderBytes + payload_.size() + kSnapshotTrailerBytes);
  AppendU32(&out, kSnapshotMagic);
  AppendU32(&out, kSnapshotVersion);
  AppendU32(&out, static_cast<uint32_t>(kind));
  AppendU32(&out, 0);  // reserved
  AppendU64(&out, payload_.size());
  out += payload_;
  AppendU64(&out, Hash64(out.data(), out.size()));
  return out;
}

Status VerifySnapshot(std::string_view snapshot, ArtifactKind expected) {
  if (snapshot.size() < kSnapshotHeaderBytes + kSnapshotTrailerBytes) {
    return Status::ParseError("snapshot truncated: " +
                              std::to_string(snapshot.size()) + " bytes");
  }
  const char* p = snapshot.data();
  uint32_t magic, version, kind;
  uint64_t payload_size;
  std::memcpy(&magic, p, sizeof(magic));
  std::memcpy(&version, p + 4, sizeof(version));
  std::memcpy(&kind, p + 8, sizeof(kind));
  std::memcpy(&payload_size, p + 16, sizeof(payload_size));
  if (magic != kSnapshotMagic) {
    return Status::ParseError("snapshot has bad magic");
  }
  if (version != kSnapshotVersion) {
    return Status::ParseError("snapshot version skew: file has v" +
                              std::to_string(version) + ", expected v" +
                              std::to_string(kSnapshotVersion));
  }
  if (kind != static_cast<uint32_t>(expected)) {
    return Status::ParseError(
        "snapshot kind mismatch: expected " +
        std::string(ArtifactKindName(expected)) + " (" +
        std::to_string(static_cast<uint32_t>(expected)) + "), file has " +
        std::to_string(kind));
  }
  if (payload_size !=
      snapshot.size() - kSnapshotHeaderBytes - kSnapshotTrailerBytes) {
    return Status::ParseError("snapshot payload size mismatch");
  }
  const size_t hashed = snapshot.size() - kSnapshotTrailerBytes;
  uint64_t recorded;
  std::memcpy(&recorded, p + hashed, sizeof(recorded));
  if (recorded != Hash64(p, hashed)) {
    return Status::ParseError("snapshot checksum mismatch");
  }
  return Status::OK();
}

Result<SnapshotReader> SnapshotReader::Open(std::string_view snapshot,
                                            ArtifactKind expected) {
  EMS_RETURN_NOT_OK(VerifySnapshot(snapshot, expected));
  const char* begin = snapshot.data() + kSnapshotHeaderBytes;
  const char* end = snapshot.data() + snapshot.size() - kSnapshotTrailerBytes;
  return SnapshotReader(begin, end);
}

void SnapshotReader::Fail(const std::string& what) {
  if (status_.ok()) status_ = Status::ParseError("snapshot corrupt: " + what);
}

bool SnapshotReader::Take(void* out, size_t n) {
  if (!status_.ok()) return false;
  if (remaining() < n) {
    Fail("short read");
    return false;
  }
  std::memcpy(out, pos_, n);
  pos_ += n;
  return true;
}

uint8_t SnapshotReader::U8() {
  uint8_t v = 0;
  Take(&v, sizeof(v));
  return v;
}

uint32_t SnapshotReader::U32() {
  uint32_t v = 0;
  Take(&v, sizeof(v));
  return v;
}

uint64_t SnapshotReader::U64() {
  uint64_t v = 0;
  Take(&v, sizeof(v));
  return v;
}

int32_t SnapshotReader::I32() {
  uint32_t bits = U32();
  int32_t v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

double SnapshotReader::F64() {
  uint64_t bits = U64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string SnapshotReader::Str() {
  uint64_t len = U64();
  if (!status_.ok()) return std::string();
  if (remaining() < len) {
    Fail("string length exceeds payload");
    return std::string();
  }
  std::string s(pos_, pos_ + len);
  pos_ += len;
  return s;
}

bool SnapshotReader::CheckCount(uint64_t count, size_t min_bytes_each) {
  if (!status_.ok()) return false;
  if (min_bytes_each != 0 && count > remaining() / min_bytes_each) {
    Fail("element count exceeds payload");
    return false;
  }
  return true;
}

Status SnapshotReader::ExpectEnd() {
  EMS_RETURN_NOT_OK(status_);
  if (remaining() != 0) {
    return Status::ParseError("snapshot corrupt: " +
                              std::to_string(remaining()) +
                              " trailing payload bytes");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------
// EventLog
// ---------------------------------------------------------------------

std::string EncodeEventLog(const EventLog& log) {
  SnapshotWriter w;
  w.U64(log.NumEvents());
  for (const std::string& name : log.event_names()) w.Str(name);
  w.U64(log.NumTraces());
  for (const Trace& t : log.traces()) {
    w.U64(t.size());
    for (EventId e : t) w.I32(e);
  }
  return w.Finish(ArtifactKind::kEventLog);
}

Result<EventLog> DecodeEventLog(std::string_view snapshot) {
  EMS_ASSIGN_OR_RETURN(SnapshotReader r,
                       SnapshotReader::Open(snapshot, ArtifactKind::kEventLog));
  EventLog log;
  const uint64_t num_events = r.U64();
  if (!r.CheckCount(num_events, 8)) return r.status();
  for (uint64_t i = 0; i < num_events && r.ok(); ++i) {
    log.AddEvent(r.Str());
    if (log.NumEvents() != i + 1) {
      return Status::ParseError("snapshot corrupt: duplicate event name");
    }
  }
  EMS_RETURN_NOT_OK(r.status());
  const uint64_t num_traces = r.U64();
  if (!r.CheckCount(num_traces, 8)) return r.status();
  for (uint64_t i = 0; i < num_traces && r.ok(); ++i) {
    const uint64_t len = r.U64();
    if (!r.CheckCount(len, 4)) return r.status();
    Trace t;
    t.reserve(len);
    for (uint64_t j = 0; j < len; ++j) {
      EventId e = r.I32();
      if (e < 0 || static_cast<uint64_t>(e) >= num_events) {
        return Status::ParseError("snapshot corrupt: event id out of range");
      }
      t.push_back(e);
    }
    if (r.ok()) log.AddTraceIds(std::move(t));
  }
  EMS_RETURN_NOT_OK(r.ExpectEnd());
  return log;
}

size_t EstimateLogSnapshotBytes(const EventLog& log) {
  // Mirrors EncodeEventLog's layout field by field.
  size_t bytes = kSnapshotHeaderBytes + kSnapshotTrailerBytes;
  bytes += 8;  // event count
  for (const std::string& name : log.event_names()) bytes += 8 + name.size();
  bytes += 8;  // trace count
  bytes += 8 * log.NumTraces();           // per-trace lengths
  bytes += 4 * log.TotalOccurrences();    // event ids
  return bytes;
}

// ---------------------------------------------------------------------
// DependencyGraph (via SnapshotAccess)
// ---------------------------------------------------------------------

struct SnapshotAccess {
  static void EncodeAdjacency(const std::vector<std::vector<NodeId>>& nbrs,
                              const std::vector<std::vector<double>>& freqs,
                              SnapshotWriter* w) {
    for (size_t v = 0; v < nbrs.size(); ++v) {
      w->U64(nbrs[v].size());
      for (NodeId u : nbrs[v]) w->I32(u);
      for (double f : freqs[v]) w->F64(f);
    }
  }

  static Status DecodeAdjacency(SnapshotReader* r, size_t n,
                                std::vector<std::vector<NodeId>>* nbrs,
                                std::vector<std::vector<double>>* freqs) {
    nbrs->resize(n);
    freqs->resize(n);
    for (size_t v = 0; v < n && r->ok(); ++v) {
      const uint64_t deg = r->U64();
      if (!r->CheckCount(deg, 12)) break;  // 4 (id) + 8 (freq) per entry
      auto& adj = (*nbrs)[v];
      auto& adj_freq = (*freqs)[v];
      adj.reserve(deg);
      adj_freq.reserve(deg);
      for (uint64_t i = 0; i < deg; ++i) {
        NodeId u = r->I32();
        if (u < 0 || static_cast<size_t>(u) >= n) {
          return Status::ParseError("snapshot corrupt: neighbor out of range");
        }
        adj.push_back(u);
      }
      for (uint64_t i = 0; i < deg; ++i) adj_freq.push_back(r->F64());
    }
    return r->status();
  }

  static std::string EncodeGraph(const DependencyGraph& g,
                                 bool include_distances) {
    if (include_distances && g.has_artificial() && g.NumNodes() > 0) {
      // Force the lazy caches so the snapshot carries them.
      (void)g.LongestDistancesFromArtificial();
      (void)g.LongestDistancesToArtificial();
    }
    SnapshotWriter w;
    w.U8(g.has_artificial_ ? 1 : 0);
    const size_t n = g.NumNodes();
    w.U64(n);
    for (size_t v = 0; v < n; ++v) {
      w.Str(g.names_[v]);
      w.F64(g.node_freq_[v]);
      w.U64(g.members_[v].size());
      for (EventId e : g.members_[v]) w.I32(e);
    }
    EncodeAdjacency(g.pre_, g.pre_freq_, &w);
    EncodeAdjacency(g.post_, g.post_freq_, &w);
    for (const std::vector<int>* dist : {&g.longest_from_, &g.longest_to_}) {
      const bool present = dist->size() == n && n > 0;
      w.U8(present ? 1 : 0);
      if (present) {
        for (int d : *dist) w.I32(d);
      }
    }
    return w.Finish(ArtifactKind::kDependencyGraph);
  }

  static Result<DependencyGraph> DecodeGraph(std::string_view snapshot) {
    EMS_ASSIGN_OR_RETURN(
        SnapshotReader r,
        SnapshotReader::Open(snapshot, ArtifactKind::kDependencyGraph));
    DependencyGraph g;
    g.has_artificial_ = r.U8() != 0;
    const uint64_t n = r.U64();
    if (!r.CheckCount(n, 24)) return r.status();
    g.names_.reserve(n);
    g.node_freq_.reserve(n);
    g.members_.reserve(n);
    for (uint64_t v = 0; v < n && r.ok(); ++v) {
      std::string name = r.Str();
      double freq = r.F64();
      const uint64_t num_members = r.U64();
      if (!r.CheckCount(num_members, 4)) break;
      std::vector<EventId> members;
      members.reserve(num_members);
      for (uint64_t i = 0; i < num_members; ++i) {
        EventId e = r.I32();
        if (e < 0) {
          return Status::ParseError("snapshot corrupt: negative member id");
        }
        members.push_back(e);
      }
      if (r.ok()) g.AddNode(std::move(name), freq, std::move(members));
    }
    EMS_RETURN_NOT_OK(r.status());
    EMS_RETURN_NOT_OK(DecodeAdjacency(&r, n, &g.pre_, &g.pre_freq_));
    EMS_RETURN_NOT_OK(DecodeAdjacency(&r, n, &g.post_, &g.post_freq_));
    for (std::vector<int>* dist : {&g.longest_from_, &g.longest_to_}) {
      if (r.U8() != 0) {
        if (!r.CheckCount(n, 4)) break;
        dist->reserve(n);
        for (uint64_t v = 0; v < n; ++v) dist->push_back(r.I32());
      }
    }
    // Per-direction degree consistency: every pre entry has a matching
    // frequency (DecodeAdjacency enforces it structurally), and the
    // artificial flag is only meaningful with at least one node.
    if (g.has_artificial_ && g.NumNodes() == 0) {
      return Status::ParseError("snapshot corrupt: artificial flag on empty "
                                "graph");
    }
    EMS_RETURN_NOT_OK(r.ExpectEnd());
    return g;
  }
};

std::string EncodeDependencyGraph(const DependencyGraph& g,
                                  bool include_distances) {
  return SnapshotAccess::EncodeGraph(g, include_distances);
}

Result<DependencyGraph> DecodeDependencyGraph(std::string_view snapshot) {
  return SnapshotAccess::DecodeGraph(snapshot);
}

namespace {

void EncodeMatrix(SnapshotWriter* w, const SimilarityMatrix& m) {
  w->U64(m.rows());
  w->U64(m.cols());
  for (double v : m.data()) w->F64(v);
}

SimilarityMatrix DecodeMatrix(SnapshotReader* r) {
  const uint64_t rows = r->U64();
  const uint64_t cols = r->U64();
  // Guard rows * cols against overflow before the count check sizes the
  // allocation; an impossible count trips the reader's sticky error.
  if (rows != 0 && cols > (UINT64_MAX / rows)) {
    r->CheckCount(UINT64_MAX, sizeof(double));
    return SimilarityMatrix();
  }
  const uint64_t cells = rows * cols;
  if (!r->CheckCount(cells, sizeof(double))) return SimilarityMatrix();
  SimilarityMatrix m(static_cast<size_t>(rows), static_cast<size_t>(cols));
  double* data = m.mutable_data();
  for (uint64_t i = 0; i < cells && r->ok(); ++i) data[i] = r->F64();
  return m;
}

}  // namespace

std::string EncodeWarmSeed(const WarmSeed& seed) {
  EMS_DCHECK(seed.valid);
  SnapshotWriter w;
  w.I32(seed.cold_iterations);
  EncodeMatrix(&w, seed.forward);
  EncodeMatrix(&w, seed.backward);
  return w.Finish(ArtifactKind::kSimilarityMatrix);
}

Result<WarmSeed> DecodeWarmSeed(std::string_view snapshot) {
  EMS_ASSIGN_OR_RETURN(
      SnapshotReader r,
      SnapshotReader::Open(snapshot, ArtifactKind::kSimilarityMatrix));
  WarmSeed seed;
  seed.cold_iterations = r.I32();
  seed.forward = DecodeMatrix(&r);
  seed.backward = DecodeMatrix(&r);
  if (seed.cold_iterations < 0) {
    return Status::InvalidArgument("warm-seed snapshot: negative baseline");
  }
  EMS_RETURN_NOT_OK(r.ExpectEnd());
  seed.valid = true;
  return seed;
}

}  // namespace store
}  // namespace ems
