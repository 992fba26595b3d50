#include "core/block_partition.h"

#include <algorithm>

#include "common/error.h"

namespace hwp3d::core {

int64_t BlockMask::CountEnabled() const {
  int64_t n = 0;
  for (uint8_t e : enabled) n += e != 0 ? 1 : 0;
  return n;
}

int64_t BlockMask::CountEnabledInRow(int64_t bm) const {
  int64_t n = 0;
  for (int64_t bn = 0; bn < blocks_n; ++bn) n += at(bm, bn) ? 1 : 0;
  return n;
}

BlockPartition::BlockPartition(const Shape& weight_shape, BlockConfig cfg)
    : cfg_(cfg), shape_(weight_shape) {
  HWP_SHAPE_CHECK_MSG(weight_shape.rank() == 5,
                      "BlockPartition expects a 5-D weight tensor, got "
                          << weight_shape.ToString());
  HWP_CHECK_MSG(cfg.Tm > 0 && cfg.Tn > 0, "block tile sizes must be positive");
  M_ = weight_shape[0];
  N_ = weight_shape[1];
  K_ = weight_shape[2] * weight_shape[3] * weight_shape[4];
  blocks_m_ = CeilDiv(M_, cfg_.Tm);
  blocks_n_ = CeilDiv(N_, cfg_.Tn);
}

void BlockPartition::CheckShape(const TensorF& w) const {
  HWP_SHAPE_CHECK_MSG(w.shape() == shape_,
                      "weight shape " << w.shape().ToString()
                                      << " does not match partition shape "
                                      << shape_.ToString());
}

int64_t BlockPartition::BlockParams(int64_t bm, int64_t bn) const {
  return (m_end(bm) - m_begin(bm)) * (n_end(bn) - n_begin(bn)) * K_;
}

std::vector<double> BlockPartition::BlockSqNorms(const TensorF& w) const {
  CheckShape(w);
  std::vector<double> norms(static_cast<size_t>(num_blocks()), 0.0);
  const int64_t NK = N_ * K_;
  const float* base = w.data();
  for (int64_t m = 0; m < M_; ++m) {
    const int64_t bm = m / cfg_.Tm;
    for (int64_t n = 0; n < N_; ++n) {
      const int64_t bn = n / cfg_.Tn;
      const float* p = base + m * NK + n * K_;
      double s = 0.0;
      for (int64_t k = 0; k < K_; ++k) s += static_cast<double>(p[k]) * p[k];
      norms[static_cast<size_t>(bm * blocks_n_ + bn)] += s;
    }
  }
  return norms;
}

void BlockPartition::ApplyMask(TensorF& w, const BlockMask& mask) const {
  CheckShape(w);
  HWP_CHECK_MSG(mask.blocks_m == blocks_m_ && mask.blocks_n == blocks_n_,
                "mask grid mismatch");
  const int64_t NK = N_ * K_;
  float* base = w.data();
  for (int64_t m = 0; m < M_; ++m) {
    const int64_t bm = m / cfg_.Tm;
    for (int64_t n = 0; n < N_; ++n) {
      const int64_t bn = n / cfg_.Tn;
      if (mask.at(bm, bn)) continue;
      float* p = base + m * NK + n * K_;
      std::fill(p, p + K_, 0.0f);
    }
  }
}

BlockMask BlockPartition::FullMask() const {
  BlockMask mask;
  mask.blocks_m = blocks_m_;
  mask.blocks_n = blocks_n_;
  mask.enabled.assign(static_cast<size_t>(num_blocks()), 1);
  return mask;
}

BlockMask BlockPartition::ZeroBlockMask(const TensorF& w) const {
  BlockMask mask = FullMask();
  const std::vector<double> sq_norms = BlockSqNorms(w);
  for (size_t b = 0; b < sq_norms.size(); ++b) {
    if (sq_norms[b] == 0.0) mask.enabled[b] = 0;
  }
  return mask;
}

int64_t BlockPartition::EnabledParams(const BlockMask& mask) const {
  HWP_CHECK_MSG(mask.blocks_m == blocks_m_ && mask.blocks_n == blocks_n_,
                "mask grid mismatch");
  int64_t total = 0;
  for (int64_t bm = 0; bm < blocks_m_; ++bm) {
    for (int64_t bn = 0; bn < blocks_n_; ++bn) {
      if (mask.at(bm, bn)) total += BlockParams(bm, bn);
    }
  }
  return total;
}

}  // namespace hwp3d::core
