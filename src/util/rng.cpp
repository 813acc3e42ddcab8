#include "util/rng.hpp"

#include <cmath>
#include <numbers>

namespace distmcu::util {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : state_) s = splitmix64(sm);
}

float Rng::normal() {
  // Box-Muller; clamp u1 away from 0 to keep log finite.
  double u1 = next_double();
  if (u1 < 1e-300) u1 = 1e-300;
  const double u2 = next_double();
  const double r = std::sqrt(-2.0 * std::log(u1));
  return static_cast<float>(r * std::cos(2.0 * std::numbers::pi * u2));
}

std::uint64_t Rng::next_below(std::uint64_t n) {
  // Rejection-free modulo is fine here: n is always tiny (vocab, chip
  // counts) relative to 2^64, so bias is negligible for test purposes.
  return next_u64() % n;
}

}  // namespace distmcu::util
