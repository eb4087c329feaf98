#pragma once

#include <cstdint>
#include <vector>

#include "flb/util/types.hpp"

/// \file rng.hpp
/// Deterministic, seedable random number generation.
///
/// The paper's experiments draw task and edge weights "i.i.d., uniform
/// distribution" per (problem, CCR, seed) triple, five seeds each. All
/// randomness in flb flows through Rng so that every experiment is exactly
/// reproducible from its seed; we do not use std::mt19937 because its
/// sequence is not guaranteed identical across standard library vendors for
/// the distribution adaptors, whereas this generator is fully specified here.

namespace flb {

/// xoshiro256** generator with splitmix64 seeding. Fast, high quality, and
/// bit-for-bit reproducible everywhere.
class Rng {
 public:
  /// Seed the generator. Equal seeds yield equal sequences.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  /// Re-initialize from a seed.
  void reseed(std::uint64_t seed);

  /// Next raw 64-bit value.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double next_double();

  /// Uniform double in [lo, hi). Requires lo <= hi.
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0. Unbiased (rejection).
  std::uint64_t next_below(std::uint64_t n);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Bernoulli trial with success probability p in [0, 1].
  bool bernoulli(double p);

  /// Fisher–Yates shuffle of a vector.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(next_below(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Derive an independent child generator (for per-graph streams).
  Rng split();

 private:
  std::uint64_t s_[4];
};

/// Draw a weight with the paper's distribution: uniform on [0, 2*mean], so
/// the expectation is `mean`. Mean must be non-negative.
Cost draw_weight(Rng& rng, Cost mean);

/// The seeded streams of the fault and liveness models. One seed feeds
/// them all; each tag keys one family of draws, so no two collide.
enum class SeedStream : std::uint64_t {
  kTask = 1,       ///< per-task runtime perturbation (sim/faults)
  kEdge = 2,       ///< per-message loss and delay (sim/faults)
  kBurst = 3,      ///< per-member strikes of a domain burst (sim/faults)
  kCascade = 4,    ///< burst cascades into other domains (sim/faults)
  kHeartbeat = 5,  ///< observer 0's heartbeat fates (runtime detector)
  kObserver = 6,   ///< heartbeat fates of every other observer
};

/// Seed of draw `index` of `stream`: a splitmix-style finalizer over the
/// seed, the stream tag and the index, so the streams are decorrelated from
/// each other and from `seed`. Every fault, belief and runtime digest
/// depends on this arithmetic.
[[nodiscard]] constexpr std::uint64_t stream_hash(std::uint64_t seed,
                                                  SeedStream stream,
                                                  std::uint64_t index) {
  std::uint64_t z =
      seed ^ (static_cast<std::uint64_t>(stream) * 0x9e3779b97f4a7c15ULL) ^
      (index + 0xbf58476d1ce4e5b9ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace flb
