#include "serve/latency_reservoir.h"

#include "common/error.h"
#include "common/rng.h"

namespace hwp3d::serve {

LatencyReservoir::LatencyReservoir(size_t capacity) : capacity_(capacity) {
  HWP_CHECK_MSG(capacity > 0, "LatencyReservoir needs a positive capacity");
  sample_.reserve(capacity);
}

void LatencyReservoir::Add(double value) {
  const uint64_t i = static_cast<uint64_t>(seen_++);
  if (sample_.size() < capacity_) {
    sample_.push_back(value);
    return;
  }
  const uint64_t j = SplitMix64(i) % (i + 1);
  if (j < capacity_) sample_[static_cast<size_t>(j)] = value;
}

}  // namespace hwp3d::serve
