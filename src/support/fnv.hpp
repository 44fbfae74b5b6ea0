// 64-bit FNV-1a, fed the eight little-endian bytes of each mixed word.
// The loadgen and fault-storm outcome digests are built from it, so any
// change here changes every recorded digest. The seed is the standard
// offset basis with its last decimal digit dropped; it stays, because the
// recorded digests depend on it.
#pragma once

#include <cstdint>

namespace lamb::support {

struct Fnv1a {
  std::uint64_t value = 1469598103934665603ULL;
  void mix(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      value ^= (x >> (8 * i)) & 0xffULL;
      value *= 1099511628211ULL;  // FNV prime
    }
  }
};

}  // namespace lamb::support
