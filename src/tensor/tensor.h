// Tensor<T>: owning, contiguous, row-major N-D array.
//
// This is the single data container used by the training framework (float),
// the pruning core (float), and the FPGA simulator (fixed16 via
// Tensor<Fixed16>). It deliberately has no views/broadcasting — every
// operation in this library works on explicit indices, which keeps the
// FPGA tile simulator a line-for-line transcription of the paper's
// Algorithm 2.
#pragma once

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>
#include <vector>

#include "common/error.h"
#include "tensor/shape.h"
#include "tensor/storage.h"

namespace hwp3d {

template <typename T>
class Tensor {
 public:
  using Storage = std::vector<T, StorageAllocator<T>>;

  Tensor() = default;

  explicit Tensor(Shape shape, T fill = T{})
      : shape_(std::move(shape)),
        data_(static_cast<size_t>(shape_.numel()), fill) {}

  // A tensor whose elements are left unwritten, for an output the
  // caller overwrites in full.
  static Tensor Uninitialized(Shape shape) {
    Tensor t;
    t.shape_ = std::move(shape);
    t.data_ = Storage(static_cast<size_t>(t.shape_.numel()));
    return t;
  }

  Tensor(Shape shape, const std::vector<T>& data)
      : shape_(std::move(shape)), data_(data.begin(), data.end()) {
    HWP_SHAPE_CHECK_MSG(
        static_cast<int64_t>(data_.size()) == shape_.numel(),
        "data size " << data_.size() << " vs shape " << shape_.ToString());
  }

  const Shape& shape() const { return shape_; }
  int rank() const { return shape_.rank(); }
  int64_t dim(int i) const { return shape_.dim(i); }
  int64_t numel() const { return static_cast<int64_t>(data_.size()); }
  bool empty() const { return data_.empty(); }

  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }
  Storage& vec() { return data_; }
  const Storage& vec() const { return data_; }

  // Linear element access (bounds-checked in debug builds).
  T& operator[](int64_t i) {
    HWP_DCHECK(i >= 0 && i < numel());
    return data_[static_cast<size_t>(i)];
  }
  const T& operator[](int64_t i) const {
    HWP_DCHECK(i >= 0 && i < numel());
    return data_[static_cast<size_t>(i)];
  }

  // Multi-index access. Variadic form covers the common fixed-rank cases.
  template <typename... Ix>
  T& operator()(Ix... ix) {
    return data_[static_cast<size_t>(Offset({static_cast<int64_t>(ix)...}))];
  }
  template <typename... Ix>
  const T& operator()(Ix... ix) const {
    return data_[static_cast<size_t>(Offset({static_cast<int64_t>(ix)...}))];
  }

  T& at(const std::vector<int64_t>& idx) {
    return data_[static_cast<size_t>(shape_.LinearIndex(idx))];
  }
  const T& at(const std::vector<int64_t>& idx) const {
    return data_[static_cast<size_t>(shape_.LinearIndex(idx))];
  }

  // Reinterprets the data with a new shape of identical numel.
  Tensor<T> Reshaped(Shape new_shape) const {
    HWP_SHAPE_CHECK_MSG(new_shape.numel() == shape_.numel(),
                        "reshape " << shape_.ToString() << " -> "
                                   << new_shape.ToString());
    Tensor<T> out;
    out.shape_ = std::move(new_shape);
    out.data_ = data_;
    return out;
  }

  void Fill(T v) { std::fill(data_.begin(), data_.end(), v); }

  // Applies f element-wise in place.
  void Map(const std::function<T(T)>& f) {
    for (auto& v : data_) v = f(v);
  }

  bool SameShape(const Tensor<T>& other) const {
    return shape_ == other.shape_;
  }

 private:
  int64_t Offset(std::initializer_list<int64_t> idx) const {
    HWP_DCHECK(static_cast<int>(idx.size()) == shape_.rank());
    int64_t offset = 0;
    int64_t stride = 1;
    const auto& dims = shape_.dims();
    auto it = std::rbegin(idx);
    for (int i = shape_.rank() - 1; i >= 0; --i, ++it) {
      HWP_DCHECK(*it >= 0 && *it < dims[static_cast<size_t>(i)]);
      offset += *it * stride;
      stride *= dims[static_cast<size_t>(i)];
    }
    return offset;
  }

  Shape shape_;
  Storage data_;
};

using TensorF = Tensor<float>;

}  // namespace hwp3d
