// The repository's two non-cryptographic 64-bit hashes, each with its own job:
//  - Xxh64 checksums bulk payload bytes: MSDF row groups and block-cache
//    entries, which are verified on every read. Four independent lanes keep
//    it near memory speed.
//  - Fnv1a64 hashes short keys and small metadata: cache shard picks, the
//    seeded fault schedule and retry jitter, source and options fingerprints,
//    and checkpoint blob and manifest checksums. Those values are replayed by
//    seed or compared across runs, so they stay FNV-1a.
#ifndef SRC_COMMON_HASH_H_
#define SRC_COMMON_HASH_H_

#include <cstdint>
#include <cstring>
#include <string_view>

namespace msd {

inline uint64_t Fnv1a64(std::string_view bytes, uint64_t seed = 0xcbf29ce484222325ULL) {
  uint64_t hash = seed;
  for (char c : bytes) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

// XXH64 (portable reference algorithm). Loads are unaligned memcpys in host
// byte order; like the wire codec, this assumes a little-endian host.
inline uint64_t Xxh64(std::string_view bytes, uint64_t seed = 0) {
  constexpr uint64_t kP1 = 0x9E3779B185EBCA87ULL;
  constexpr uint64_t kP2 = 0xC2B2AE3D27D4EB4FULL;
  constexpr uint64_t kP3 = 0x165667B19E3779F9ULL;
  constexpr uint64_t kP4 = 0x85EBCA77C2B2AE63ULL;
  constexpr uint64_t kP5 = 0x27D4EB2F165667C5ULL;
  auto rotl = [](uint64_t x, int r) { return (x << r) | (x >> (64 - r)); };
  auto round = [&](uint64_t acc, uint64_t lane) { return rotl(acc + lane * kP2, 31) * kP1; };
  auto merge = [&](uint64_t acc, uint64_t lane) { return (acc ^ round(0, lane)) * kP1 + kP4; };
  auto load64 = [](const char* p) {
    uint64_t v = 0;
    std::memcpy(&v, p, sizeof(v));
    return v;
  };
  auto load32 = [](const char* p) {
    uint32_t v = 0;
    std::memcpy(&v, p, sizeof(v));
    return v;
  };

  const char* p = bytes.data();
  const char* const end = p + bytes.size();
  uint64_t h = seed + kP5;
  if (bytes.size() >= 32) {
    uint64_t v1 = seed + kP1 + kP2, v2 = seed + kP2, v3 = seed, v4 = seed - kP1;
    for (; end - p >= 32; p += 32) {
      v1 = round(v1, load64(p));
      v2 = round(v2, load64(p + 8));
      v3 = round(v3, load64(p + 16));
      v4 = round(v4, load64(p + 24));
    }
    h = rotl(v1, 1) + rotl(v2, 7) + rotl(v3, 12) + rotl(v4, 18);
    h = merge(merge(merge(merge(h, v1), v2), v3), v4);
  }
  h += bytes.size();
  for (; end - p >= 8; p += 8) {
    h = rotl(h ^ round(0, load64(p)), 27) * kP1 + kP4;
  }
  if (end - p >= 4) {
    h = rotl(h ^ (load32(p) * kP1), 23) * kP2 + kP3;
    p += 4;
  }
  for (; p < end; ++p) {
    h = rotl(h ^ (static_cast<uint8_t>(*p) * kP5), 11) * kP1;
  }
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  h ^= h >> 32;
  return h;
}

}  // namespace msd

#endif  // SRC_COMMON_HASH_H_
