// Shape: dimension vector plus row-major stride/index algebra for Tensor.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/error.h"

namespace hwp3d {

// Describes the extents of an N-dimensional row-major tensor.
// Rank 0 (scalar) is allowed and has numel() == 1.
class Shape {
 public:
  Shape() = default;
  Shape(std::initializer_list<int64_t> dims) : dims_(dims) { Validate(); }
  explicit Shape(std::vector<int64_t> dims) : dims_(std::move(dims)) {
    Validate();
  }

  int rank() const { return static_cast<int>(dims_.size()); }
  int64_t dim(int i) const {
    HWP_CHECK_MSG(i >= 0 && i < rank(), "dim index " << i << " out of rank "
                                                     << rank());
    return dims_[static_cast<size_t>(i)];
  }
  int64_t operator[](int i) const { return dim(i); }
  const std::vector<int64_t>& dims() const { return dims_; }

  // Total number of elements (product of dims; 1 for rank-0).
  int64_t numel() const;

  // Row-major strides, in elements. strides()[rank()-1] == 1.
  std::vector<int64_t> strides() const;

  // Linear offset of a multi-index (must have exactly `rank()` entries).
  int64_t LinearIndex(const std::vector<int64_t>& idx) const;

  bool operator==(const Shape& other) const { return dims_ == other.dims_; }
  bool operator!=(const Shape& other) const { return !(*this == other); }

  // "[2, 3, 4]"
  std::string ToString() const;

 private:
  void Validate() const {
    for (int64_t d : dims_) {
      HWP_CHECK_MSG(d >= 0, "negative dimension in shape");
    }
  }

  std::vector<int64_t> dims_;
};

// Ceiling division used throughout tiling/blocking math: CeilDiv(7,2)==4.
constexpr int64_t CeilDiv(int64_t a, int64_t b) { return (a + b - 1) / b; }

// Positions of a window of `k` sliding by `s` over `in` values (a valid
// conv or pool along one axis): 0 when the window does not fit, where
// (in - k) / s + 1 would truncate toward zero and give 1.
constexpr int64_t WindowExtent(int64_t in, int64_t k, int64_t s) {
  return in < k ? 0 : (in - k) / s + 1;
}

}  // namespace hwp3d
