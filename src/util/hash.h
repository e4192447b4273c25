#ifndef TTRA_UTIL_HASH_H_
#define TTRA_UTIL_HASH_H_

#include <cstddef>
#include <cstdint>
#include <functional>

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

}  // namespace ttra

#endif  // TTRA_UTIL_HASH_H_
