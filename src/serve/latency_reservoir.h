// Fixed-size sample of a latency stream, for percentile queries.
//
// A server records one latency per completed request for its whole
// lifetime, so keeping every value would grow without bound. The
// reservoir keeps the first `capacity` values, which makes percentiles
// exact until then; value i (0-based) after that replaces slot j with
// j drawn uniformly from [0, i], when j < capacity (Algorithm R). The
// draw is a hash of i, not a random source, so the same stream always
// leaves the same sample.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hwp3d::serve {

class LatencyReservoir {
 public:
  explicit LatencyReservoir(size_t capacity);

  void Add(double value);

  // Values offered so far, and the retained sample (at most capacity).
  int64_t seen() const { return seen_; }
  const std::vector<double>& sample() const { return sample_; }
  size_t capacity() const { return capacity_; }

 private:
  size_t capacity_;
  int64_t seen_ = 0;
  std::vector<double> sample_;
};

}  // namespace hwp3d::serve
