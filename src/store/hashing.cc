#include "store/hashing.h"

#include <cstring>
#include <fstream>

namespace ems {
namespace store {

namespace {

constexpr uint64_t kPrime1 = 11400714785074694791ULL;
constexpr uint64_t kPrime2 = 14029467366897019727ULL;
constexpr uint64_t kPrime3 = 1609587929392839161ULL;
constexpr uint64_t kPrime4 = 9650029242287828579ULL;
constexpr uint64_t kPrime5 = 2870177450012600261ULL;

inline uint64_t Rotl(uint64_t x, int r) {
  return (x << r) | (x >> (64 - r));
}

inline uint64_t Read64(const unsigned char* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline uint64_t Read32(const unsigned char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline uint64_t Round(uint64_t acc, uint64_t input) {
  acc += input * kPrime2;
  acc = Rotl(acc, 31);
  acc *= kPrime1;
  return acc;
}

inline uint64_t MergeRound(uint64_t acc, uint64_t val) {
  acc ^= Round(0, val);
  acc = acc * kPrime1 + kPrime4;
  return acc;
}

// Folds one whole 32-byte stripe into the four lanes.
inline void Stripe(uint64_t* acc, const unsigned char* p) {
  acc[0] = Round(acc[0], Read64(p));
  acc[1] = Round(acc[1], Read64(p + 8));
  acc[2] = Round(acc[2], Read64(p + 16));
  acc[3] = Round(acc[3], Read64(p + 24));
}

// Bytes per read in HashFile.
constexpr size_t kHashReadBytes = 64 * 1024;

}  // namespace

Hash64State::Hash64State(uint64_t seed)
    : seed_(seed),
      acc_{seed + kPrime1 + kPrime2, seed + kPrime2, seed, seed - kPrime1} {}

void Hash64State::Update(const void* data, size_t len) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  const unsigned char* const end = p + len;
  total_len_ += len;
  if (tail_len_ + len < sizeof(tail_)) {
    if (len > 0) std::memcpy(tail_ + tail_len_, p, len);
    tail_len_ += len;
    return;
  }
  if (tail_len_ > 0) {  // complete the held stripe first
    const size_t fill = sizeof(tail_) - tail_len_;
    std::memcpy(tail_ + tail_len_, p, fill);
    Stripe(acc_, tail_);
    p += fill;
    tail_len_ = 0;
  }
  while (end - p >= 32) {
    Stripe(acc_, p);
    p += 32;
  }
  tail_len_ = static_cast<size_t>(end - p);
  if (tail_len_ > 0) std::memcpy(tail_, p, tail_len_);
}

uint64_t Hash64State::Digest() const {
  uint64_t h = seed_ + kPrime5;
  if (total_len_ >= 32) {
    h = Rotl(acc_[0], 1) + Rotl(acc_[1], 7) + Rotl(acc_[2], 12) +
        Rotl(acc_[3], 18);
    for (uint64_t lane : acc_) h = MergeRound(h, lane);
  }
  h += total_len_;

  const unsigned char* p = tail_;
  const unsigned char* const end = tail_ + tail_len_;
  while (p + 8 <= end) {
    h ^= Round(0, Read64(p));
    h = Rotl(h, 27) * kPrime1 + kPrime4;
    p += 8;
  }
  if (p + 4 <= end) {
    h ^= Read32(p) * kPrime1;
    h = Rotl(h, 23) * kPrime2 + kPrime3;
    p += 4;
  }
  while (p < end) {
    h ^= (*p) * kPrime5;
    h = Rotl(h, 11) * kPrime1;
    ++p;
  }

  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  return h;
}

uint64_t Hash64(const void* data, size_t len, uint64_t seed) {
  Hash64State state(seed);
  state.Update(data, len);
  return state.Digest();
}

Result<uint64_t> HashFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open '" + path + "' for hashing");
  Hash64State state;
  char chunk[kHashReadBytes];
  // istream::read turns a failing read (a directory, an I/O error) into
  // badbit instead of letting the stream buffer's exception escape.
  while (in.read(chunk, sizeof(chunk)) || in.gcount() > 0) {
    state.Update(chunk, static_cast<size_t>(in.gcount()));
  }
  if (in.bad()) return Status::IOError("read error hashing '" + path + "'");
  return state.Digest();
}

std::string HashHex(uint64_t h) {
  static const char* kDigits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<size_t>(i)] = kDigits[h & 0xF];
    h >>= 4;
  }
  return out;
}

namespace {

// One tagged field folds in as hash(name) then hash(value bytes), each
// chained through the accumulator as the seed — order-sensitive, and a
// field's name always hashes adjacent to its value.
uint64_t Fold(uint64_t acc, std::string_view name, const void* value,
              size_t len) {
  acc = Hash64(name.data(), name.size(), acc);
  return Hash64(value, len, acc);
}

}  // namespace

FingerprintBuilder& FingerprintBuilder::Add(std::string_view name,
                                            std::string_view value) {
  acc_ = Fold(acc_, name, value.data(), value.size());
  return *this;
}

FingerprintBuilder& FingerprintBuilder::Add(std::string_view name,
                                            uint64_t value) {
  acc_ = Fold(acc_, name, &value, sizeof(value));
  return *this;
}

FingerprintBuilder& FingerprintBuilder::Add(std::string_view name,
                                            double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  acc_ = Fold(acc_, name, &bits, sizeof(bits));
  return *this;
}

FingerprintBuilder& FingerprintBuilder::Add(std::string_view name,
                                            bool value) {
  const unsigned char byte = value ? 1 : 0;
  acc_ = Fold(acc_, name, &byte, sizeof(byte));
  return *this;
}

}  // namespace store
}  // namespace ems
