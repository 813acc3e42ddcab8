#ifndef DISTMCU_UTIL_RNG_HPP
#define DISTMCU_UTIL_RNG_HPP

#include <cstdint>

namespace distmcu::util {

/// Deterministic xoshiro256** pseudo-random generator, seeded via
/// SplitMix64. Used for reproducible weight/activation initialization:
/// all experiments in this repository are data-independent, but tests
/// compare distributed numerics against a reference and therefore need
/// stable inputs across runs and platforms (no std::mt19937 distribution
/// portability caveats).
class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  // next_u64/next_double/uniform are defined inline: weight init draws
  // one value per weight element (about 25M per TinyLlama-42M session),
  // and an out-of-line call per draw made session set-up time swing by
  // ~20 % with the code alignment unrelated changes gave that call.

  /// Next raw 64-bit value.
  [[nodiscard]] std::uint64_t next_u64() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform in [0, 1).
  [[nodiscard]] double next_double() {
    // 53 high bits -> [0, 1).
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform float in [lo, hi).
  [[nodiscard]] float uniform(float lo, float hi) {
    return lo + static_cast<float>(next_double()) * (hi - lo);
  }

  /// Standard normal via Box-Muller (no cached second value; keeps the
  /// stream position deterministic per call).
  [[nodiscard]] float normal();

  /// Uniform integer in [0, n) for n > 0.
  [[nodiscard]] std::uint64_t next_below(std::uint64_t n);

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4];
};

}  // namespace distmcu::util

#endif  // DISTMCU_UTIL_RNG_HPP
