// Content hashing for the persistent artifact store: a self-contained
// XXH64 implementation (Collet's xxHash, 64-bit variant) used for cache
// keys, options fingerprints, and snapshot trailer checksums. The
// algorithm is fixed — hashes are written into on-disk cache file names
// and snapshot trailers, so changing it invalidates every cache (bump
// kSnapshotVersion in snapshot.h if that ever becomes necessary).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace ems {
namespace store {

/// \brief Incremental XXH64: feed the bytes in any number of Update
/// calls, split anywhere; Digest equals Hash64 of their concatenation.
class Hash64State {
 public:
  explicit Hash64State(uint64_t seed = 0);

  void Update(const void* data, size_t len);

  /// The hash of every byte fed so far (the state stays usable).
  uint64_t Digest() const;

 private:
  uint64_t seed_;
  uint64_t acc_[4];        // the four lanes over whole 32-byte stripes
  uint64_t total_len_ = 0;
  unsigned char tail_[32] = {};  // bytes not yet in a whole stripe
  size_t tail_len_ = 0;
};

/// XXH64 of `len` bytes at `data`: Hash64State's one-shot form.
uint64_t Hash64(const void* data, size_t len, uint64_t seed = 0);

inline uint64_t Hash64(std::string_view bytes, uint64_t seed = 0) {
  return Hash64(bytes.data(), bytes.size(), seed);
}

/// XXH64 of a whole file's contents, streamed through one Hash64State in
/// fixed 64 KiB reads, so memory stays bounded whatever the file's size.
/// IOError when the file cannot be opened or a read fails (a directory,
/// for one). The service hashes both logs of every request with it, so
/// it runs at read speed.
Result<uint64_t> HashFile(const std::string& path);

/// 16-character lowercase hex rendering (stable across platforms; used
/// in cache file names).
std::string HashHex(uint64_t h);

/// \brief Order-sensitive fingerprint of a set of tagged option fields.
///
/// Add each field as (name, value); Finish() folds them into one 64-bit
/// fingerprint. Two option sets collide only if they agree on every
/// tagged field, so a fingerprint in a cache key invalidates entries
/// whenever any relevant option changes.
class FingerprintBuilder {
 public:
  FingerprintBuilder& Add(std::string_view name, std::string_view value);
  FingerprintBuilder& Add(std::string_view name, uint64_t value);
  FingerprintBuilder& Add(std::string_view name, double value);
  FingerprintBuilder& Add(std::string_view name, bool value);

  uint64_t Finish() const { return acc_; }

 private:
  uint64_t acc_ = 0x9e3779b97f4a7c15ULL;  // arbitrary non-zero start
};

}  // namespace store
}  // namespace ems
