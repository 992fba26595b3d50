#include "common/retry.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"

namespace hwp3d {

RetryPolicy::RetryPolicy(RetryConfig config, uint64_t seed)
    : config_(config), seed_(seed) {}

std::optional<int64_t> RetryPolicy::NextBackoffUs(int attempt, double now_us,
                                                  double deadline_us) const {
  if (attempt + 1 >= config_.max_attempts) return std::nullopt;
  double base = static_cast<double>(config_.initial_backoff_us) *
                std::pow(config_.multiplier, attempt);
  base = std::min(base, static_cast<double>(config_.max_backoff_us));
  if (config_.jitter > 0.0) {
    // Uniform in [-jitter, +jitter], a pure function of (seed, attempt).
    const double u =
        static_cast<double>(
            SplitMix64(seed_ ^ static_cast<uint64_t>(attempt)) >> 11) *
        0x1.0p-53;
    base *= 1.0 + config_.jitter * (2.0 * u - 1.0);
  }
  const int64_t backoff = std::max<int64_t>(1, std::llround(base));
  if (deadline_us > 0.0 &&
      now_us + static_cast<double>(backoff) >= deadline_us) {
    return std::nullopt;  // the retry could not finish in time anyway
  }
  return backoff;
}

}  // namespace hwp3d
