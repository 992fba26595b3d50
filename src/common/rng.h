// Deterministic random number generation.
//
// All stochastic components (weight init, data synthesis, SGD shuffling)
// take an explicit Rng so experiments are reproducible bit-for-bit across
// runs with the same seed.
#pragma once

#include <cstdint>
#include <random>

namespace hwp3d {

// SplitMix64's finalizer: a well-mixed 64-bit hash of x, a pure
// function, for draws that must be reproducible from (seed, index)
// alone (retry jitter, fault draws, reservoir slots).
inline uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// Thin wrapper over std::mt19937_64 with convenience samplers.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x5eed5eedULL) : engine_(seed) {}

  // Uniform in [lo, hi).
  double Uniform(double lo = 0.0, double hi = 1.0) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  // Standard normal scaled by stddev.
  double Normal(double mean = 0.0, double stddev = 1.0) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  // Uniform integer in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi) {
    return std::uniform_int_distribution<int64_t>(lo, hi)(engine_);
  }

  // Bernoulli trial.
  bool Flip(double p = 0.5) {
    return std::bernoulli_distribution(p)(engine_);
  }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace hwp3d
