#ifndef TTRA_UTIL_HASH_H_
#define TTRA_UTIL_HASH_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string_view>

namespace ttra {

/// Order-dependent hash combiner (boost-style). Used to hash tuples and
/// states for container keys.
inline size_t HashCombine(size_t seed, size_t value) {
  return seed ^ (value + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

template <typename T>
size_t HashValue(const T& value) {
  return std::hash<T>{}(value);
}

/// 64-bit FNV-1a: the checksum of every framed record on disk (WAL frames,
/// checkpoint images, encoded databases).
inline uint64_t Fnv1a(std::string_view data) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (unsigned char c : data) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

}  // namespace ttra

#endif  // TTRA_UTIL_HASH_H_
