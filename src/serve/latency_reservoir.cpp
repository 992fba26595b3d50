#include "serve/latency_reservoir.h"

#include "common/error.h"

namespace hwp3d::serve {
namespace {

// splitmix64 finalizer: a well-mixed 64-bit hash of the value's index.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

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
  const uint64_t j = Mix(i) % (i + 1);
  if (j < capacity_) sample_[static_cast<size_t>(j)] = value;
}

}  // namespace hwp3d::serve
