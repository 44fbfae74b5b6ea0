// Small helpers shared by the benchmark: a wall clock, the
// benchmark's own input generator, the outcome digest, and quantiles.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

namespace lmbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// SplitMix64. The benchmark draws every input (faults, storms, chaos,
// client seeds) from this generator, seeded by --seed, so the program
// under test only ever sees generated inputs.
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  // Uniform in [0, n); n > 0.
  std::int64_t below(std::int64_t n) {
    return static_cast<std::int64_t>(next() % static_cast<std::uint64_t>(n));
  }

 private:
  std::uint64_t state_;
};

// FNV-1a over 64-bit words: the per-workload outcome digest.
struct Digest {
  std::uint64_t value = 1469598103934665603ULL;
  void mix(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      value ^= (x >> (8 * i)) & 0xff;
      value *= 1099511628211ULL;
    }
  }
};

// Quantile q in [0, 1] with linear interpolation between closest ranks
// (Python's statistics.quantiles "inclusive" method). Reorders `v`.
// Returns 0 for an empty sample.
template <typename T>
double quantile(std::vector<T>* v, double q) {
  if (v->empty()) return 0.0;
  const double pos = q * static_cast<double>(v->size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  std::nth_element(v->begin(), v->begin() + static_cast<std::ptrdiff_t>(lo),
                   v->end());
  const double a = static_cast<double>((*v)[lo]);
  if (lo + 1 >= v->size()) return a;
  const double b = static_cast<double>(
      *std::min_element(v->begin() + static_cast<std::ptrdiff_t>(lo) + 1,
                        v->end()));
  return a + (pos - static_cast<double>(lo)) * (b - a);
}

template <typename T>
double median(std::vector<T> v) {
  return quantile(&v, 0.5);
}

}  // namespace lmbench
