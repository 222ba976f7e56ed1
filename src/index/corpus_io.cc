#include "index/corpus_io.h"

#include <algorithm>
#include <filesystem>
#include <utility>

#include "serve/log_cache.h"
#include "store/hashing.h"
#include "store/snapshot.h"

namespace ems {
namespace index {

namespace fs = std::filesystem;

namespace {

bool HasLogExtension(const fs::path& p) {
  std::string ext = p.extension().string();
  std::transform(ext.begin(), ext.end(), ext.begin(),
                 [](unsigned char ch) { return std::tolower(ch); });
  return ext == ".txt" || ext == ".log" || ext == ".trace" || ext == ".csv" ||
         ext == ".xes" || ext == ".mxml";
}

uint64_t OptionsFingerprint(const CorpusLoadOptions& options) {
  return store::FingerprintBuilder()
      .Add("format", options.format)
      .Add("qgram_q", static_cast<uint64_t>(options.index.qgram_q))
      .Add("min_edge_frequency", options.index.min_edge_frequency)
      .Finish();
}

}  // namespace

Result<std::vector<std::string>> ListCorpusFiles(const std::string& dir) {
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) {
    return Status::IOError("cannot read corpus directory '" + dir +
                           "': " + ec.message());
  }
  std::vector<std::string> paths;
  for (const fs::directory_entry& entry : it) {
    if (!entry.is_regular_file(ec) || ec) continue;
    if (!HasLogExtension(entry.path())) continue;
    paths.push_back(entry.path().string());
  }
  std::sort(paths.begin(), paths.end());
  if (paths.empty()) {
    return Status::InvalidArgument("corpus directory '" + dir +
                                   "' contains no log files");
  }
  return paths;
}

std::string EncodeCorpusIndex(const CorpusIndex& index) {
  store::SnapshotWriter w;
  w.U32(static_cast<uint32_t>(index.options().qgram_q));
  w.F64(index.options().min_edge_frequency);
  w.U64(index.size());
  for (size_t i = 0; i < index.size(); ++i) {
    const CorpusEntry& e = index.entry(i);
    w.Str(e.name);
    w.Str(e.source_path);
    w.U64(e.content_hash);
    w.Str(e.format);
    // Framed sub-snapshots ride as length-prefixed strings; decoding
    // re-verifies each inner envelope.
    w.Str(store::EncodeEventLog(e.prepared.log));
    w.Str(store::EncodeDependencyGraph(e.prepared.graph,
                                       /*include_distances=*/true));
  }
  return w.Finish(store::ArtifactKind::kCorpusIndex);
}

Result<CorpusIndex> DecodeCorpusIndex(std::string_view snapshot,
                                      const CorpusIndexOptions& options) {
  EMS_ASSIGN_OR_RETURN(
      store::SnapshotReader r,
      store::SnapshotReader::Open(snapshot, store::ArtifactKind::kCorpusIndex));
  const uint32_t q = r.U32();
  const double min_edge_frequency = r.F64();
  EMS_RETURN_NOT_OK(r.status());
  if (q != static_cast<uint32_t>(options.qgram_q) ||
      min_edge_frequency != options.min_edge_frequency) {
    return Status::InvalidArgument(
        "corpus snapshot was built with different index options");
  }
  CorpusIndex index(options);
  const uint64_t n = r.U64();
  if (!r.CheckCount(n, 48)) return r.status();
  for (uint64_t i = 0; i < n && r.ok(); ++i) {
    std::string name = r.Str();
    std::string source_path = r.Str();
    const uint64_t content_hash = r.U64();
    std::string format = r.Str();
    std::string log_snapshot = r.Str();
    std::string graph_snapshot = r.Str();
    EMS_RETURN_NOT_OK(r.status());
    EMS_ASSIGN_OR_RETURN(EventLog log, store::DecodeEventLog(log_snapshot));
    EMS_ASSIGN_OR_RETURN(DependencyGraph graph,
                         store::DecodeDependencyGraph(graph_snapshot));
    EMS_RETURN_NOT_OK(index.AddPrebuilt(name, std::move(log), std::move(graph),
                                        source_path, content_hash, format));
  }
  EMS_RETURN_NOT_OK(r.ExpectEnd());
  return index;
}

Result<store::ArtifactKey> CorpusKeyForFiles(
    const std::vector<std::string>& paths, const CorpusLoadOptions& options) {
  store::FingerprintBuilder members;
  for (const std::string& path : paths) {
    EMS_ASSIGN_OR_RETURN(uint64_t hash, store::HashFile(path));
    members.Add(path, hash);
  }
  store::ArtifactKey key;
  key.kind = store::ArtifactKind::kCorpusIndex;
  key.content_hash = members.Finish();
  key.fingerprint = OptionsFingerprint(options);
  return key;
}

Result<CorpusIndex> LoadCorpusFromFiles(const std::vector<std::string>& paths,
                                        const CorpusLoadOptions& options) {
  // Hash every member first: cheap relative to parsing, and it both
  // keys the whole-index snapshot and catches unreadable files early.
  std::vector<uint64_t> hashes;
  hashes.reserve(paths.size());
  store::FingerprintBuilder members;
  for (const std::string& path : paths) {
    EMS_ASSIGN_OR_RETURN(uint64_t hash, store::HashFile(path));
    hashes.push_back(hash);
    members.Add(path, hash);
  }
  store::ArtifactKey key;
  key.kind = store::ArtifactKind::kCorpusIndex;
  key.content_hash = members.Finish();
  key.fingerprint = OptionsFingerprint(options);

  if (options.store != nullptr) {
    if (std::optional<std::string> snapshot = options.store->Load(key)) {
      Result<CorpusIndex> warm = DecodeCorpusIndex(*snapshot, options.index);
      if (warm.ok()) return warm;
      // Corrupt or mismatched snapshot: fall through to the cold build
      // (the store already evicted invalid bytes on verification).
    }
  }

  CorpusIndex index(options.index);
  for (size_t i = 0; i < paths.size(); ++i) {
    EMS_ASSIGN_OR_RETURN(
        EventLog log,
        serve::LoadEventLogThroughStore(options.store, paths[i],
                                        options.format));
    const std::string format = serve::ResolveLogFormat(paths[i],
                                                       options.format);
    EMS_RETURN_NOT_OK(
        index.Add(paths[i], std::move(log), paths[i], hashes[i], format));
  }
  if (options.store != nullptr) {
    options.store->Store(key, EncodeCorpusIndex(index));
  }
  return index;
}

Result<CorpusIndex> LoadCorpusFromDirectory(const std::string& dir,
                                            const CorpusLoadOptions& options) {
  EMS_ASSIGN_OR_RETURN(std::vector<std::string> paths, ListCorpusFiles(dir));
  return LoadCorpusFromFiles(paths, options);
}

}  // namespace index
}  // namespace ems
