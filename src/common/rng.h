// Deterministic, splittable random number generation.
//
// All stochastic behaviour in the repository (dataset synthesis, weight
// init, latent noise, channel jitter) flows from these generators so that
// every experiment is bit-reproducible given a seed.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

namespace orco::common {

/// SplitMix64 — used to derive independent child seeds from a master seed.
/// Reference: Steele, Lea, Flood, "Fast splittable pseudorandom number
/// generators" (OOPSLA 2014).
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// PCG32 — small, fast, statistically strong generator.
/// Satisfies std::uniform_random_bit_generator.
class Pcg32 {
 public:
  using result_type = std::uint32_t;

  explicit Pcg32(std::uint64_t seed = 0x853c49e6748fea9bULL,
                 std::uint64_t stream = 0xda3e39cb94b95bdbULL) {
    state_ = 0;
    inc_ = (stream << 1u) | 1u;
    (void)next();
    state_ += seed;
    (void)next();
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() { return next(); }

  result_type next() {
    const std::uint64_t old = state_;
    state_ = old * kMultiplier + inc_;
    const auto xorshifted =
        static_cast<std::uint32_t>(((old >> 18u) ^ old) >> 27u);
    const auto rot = static_cast<std::uint32_t>(old >> 59u);
    return (xorshifted >> rot) | (xorshifted << ((32u - rot) & 31u));
  }

  /// Skips the next `n` draws of next() in O(log n) steps: afterwards the
  /// generator is in the state n calls of next() would have left it in.
  /// Brown, "Random number generation with arbitrary strides" (1994), the
  /// jump pcg-cpp's advance() makes. tensor::fill_uniform starts each chunk
  /// of a parallel fill from a copy advanced to that chunk's first draw.
  void advance(std::uint64_t n) {
    std::uint64_t step_mult = kMultiplier;
    std::uint64_t step_plus = inc_;
    std::uint64_t mult = 1;
    std::uint64_t plus = 0;
    for (; n > 0; n >>= 1) {
      if ((n & 1u) != 0) {
        mult *= step_mult;
        plus = plus * step_mult + step_plus;
      }
      step_plus = (step_mult + 1) * step_plus;
      step_mult *= step_mult;
    }
    state_ = mult * state_ + plus;
  }

  /// Uniform double in [0, 1).
  double uniform() { return next() * (1.0 / 4294967296.0); }

  /// Uniform float in [lo, hi]. The double draw lies in [0, 1), but its
  /// rounding to float gives 1.0f when next() >= 2^32 - 128, so `hi` itself
  /// comes out about once in 2^25 draws (Pcg32(1)'s draw 59,630,664 is one).
  /// The value is kept, not clamped: every seeded weight depends on it.
  float uniform(float lo, float hi) {
    return lo + static_cast<float>(uniform()) * (hi - lo);
  }

  /// Uniform integer in [0, n). Unbiased via rejection.
  std::uint32_t bounded(std::uint32_t n);

  /// Standard normal via Box-Muller (cached second value).
  double normal();

  /// Normal with mean/stddev.
  double normal(double mean, double stddev) { return mean + stddev * normal(); }

  /// Derive a child generator with an independent stream.
  Pcg32 split();

 private:
  static constexpr std::uint64_t kMultiplier = 6364136223846793005ULL;

  std::uint64_t state_ = 0;
  std::uint64_t inc_ = 0;
  bool has_cached_ = false;
  double cached_ = 0.0;
};

/// Fisher-Yates shuffle of an index vector, driven by the given generator.
std::vector<std::size_t> shuffled_indices(std::size_t n, Pcg32& rng);

}  // namespace orco::common
