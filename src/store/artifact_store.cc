#include "store/artifact_store.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <system_error>
#include <vector>

#include "obs/context.h"
#include "store/hashing.h"

namespace ems {
namespace store {

namespace fs = std::filesystem;

namespace {

constexpr std::string_view kSnapshotExtension = ".emsnap";

// One sized read. The size comes from the opened stream, not the path:
// a Store renaming a new snapshot over the file cannot change it.
bool ReadFileBytes(const fs::path& path, std::string* out) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return false;
  const std::streamoff size = in.tellg();
  if (size < 0 || !in.seekg(0)) return false;
  out->resize(static_cast<size_t>(size));
  in.read(out->data(), size);
  return in.gcount() == size;
}

void RemoveQuietly(const fs::path& path) {
  std::error_code ec;
  fs::remove(path, ec);
}

}  // namespace

std::string ArtifactKey::FileName() const {
  std::string name = ArtifactKindName(kind);
  name.push_back('-');
  name += HashHex(content_hash);
  name.push_back('-');
  name += HashHex(fingerprint);
  name += kSnapshotExtension;
  return name;
}

ArtifactStore::ArtifactStore(ArtifactStoreOptions options)
    : options_(std::move(options)), mu_(std::make_unique<std::mutex>()) {}

Result<ArtifactStore> ArtifactStore::Open(ArtifactStoreOptions options) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("artifact store directory is empty");
  }
  std::error_code ec;
  fs::create_directories(options.dir, ec);
  if (ec || !fs::is_directory(options.dir)) {
    return Status::IOError("cannot create artifact store directory '" +
                           options.dir + "': " + ec.message());
  }
  return ArtifactStore(std::move(options));
}

std::optional<std::string> ArtifactStore::Load(const ArtifactKey& key) {
  std::lock_guard<std::mutex> lock(*mu_);
  const fs::path path = fs::path(options_.dir) / key.FileName();
  std::string bytes;
  if (!ReadFileBytes(path, &bytes)) {
    ObsIncrement(options_.obs, "store.misses");
    return std::nullopt;
  }
  const Status verified = VerifySnapshot(bytes, key.kind);
  if (!verified.ok()) {
    // Corrupt, truncated, or version-skewed: drop the file so the next
    // Store replaces it, and tell the caller to re-derive from source.
    ObsIncrement(options_.obs, "store.fallback_rederives");
    RemoveQuietly(path);
    return std::nullopt;
  }
  ObsIncrement(options_.obs, "store.hits");
  ObsIncrement(options_.obs, "store.bytes_read", bytes.size());
  std::error_code ec;
  fs::last_write_time(path, fs::file_time_type::clock::now(), ec);  // LRU touch
  return bytes;
}

void ArtifactStore::Store(const ArtifactKey& key, std::string_view snapshot) {
  std::lock_guard<std::mutex> lock(*mu_);
  const fs::path dir(options_.dir);
  const fs::path final_path = dir / key.FileName();
  const fs::path tmp_path =
      dir / (key.FileName() + ".tmp" + std::to_string(tmp_counter_++));
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (out) out.write(snapshot.data(), snapshot.size());
    if (!out) {
      ObsIncrement(options_.obs, "store.write_errors");
      RemoveQuietly(tmp_path);
      return;
    }
  }
  std::error_code ec;
  fs::rename(tmp_path, final_path, ec);
  if (ec) {
    ObsIncrement(options_.obs, "store.write_errors");
    RemoveQuietly(tmp_path);
    return;
  }
  ObsIncrement(options_.obs, "store.writes");
  ObsIncrement(options_.obs, "store.bytes_written", snapshot.size());
  EnforceBudgetLocked();
}

uint64_t ArtifactStore::TotalBytes() const {
  std::lock_guard<std::mutex> lock(*mu_);
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(options_.dir, ec)) {
    if (entry.path().extension() == kSnapshotExtension) {
      std::error_code size_ec;
      const uint64_t size = entry.file_size(size_ec);
      if (!size_ec) total += size;
    }
  }
  return total;
}

void ArtifactStore::EnforceBudgetLocked() {
  if (options_.max_bytes == 0) return;
  struct Entry {
    fs::path path;
    uint64_t bytes;
    fs::file_time_type mtime;
  };
  std::vector<Entry> entries;
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& item : fs::directory_iterator(options_.dir, ec)) {
    if (item.path().extension() != kSnapshotExtension) continue;
    std::error_code item_ec;
    const uint64_t bytes = item.file_size(item_ec);
    const auto mtime = item.last_write_time(item_ec);
    if (item_ec) continue;
    total += bytes;
    entries.push_back({item.path(), bytes, mtime});
  }
  if (total <= options_.max_bytes) return;
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.mtime < b.mtime; });
  for (const Entry& entry : entries) {
    if (total <= options_.max_bytes) break;
    RemoveQuietly(entry.path);
    total -= std::min(total, entry.bytes);
    ObsIncrement(options_.obs, "store.evictions");
  }
}

uint64_t LogFingerprint(std::string_view format_name) {
  return FingerprintBuilder()
      .Add("artifact", "event_log")
      .Add("format", format_name)
      .Finish();
}

}  // namespace store
}  // namespace ems
