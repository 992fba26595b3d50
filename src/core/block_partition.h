// Blockwise partition of a 5-D conv weight tensor (Fig. 1 of the paper).
//
// A weight tensor W[M][N][Kd][Kr][Kc] is viewed as an
// ceil(M/Tm) x ceil(N/Tn) grid of blocks; block (bm, bn) covers output
// channels [bm*Tm, min(M,(bm+1)*Tm)) and input channels
// [bn*Tn, min(N,(bn+1)*Tn)) with all kernel elements. This is exactly the
// unit the FPGA loads into its weight buffer per tile iteration, so
// pruning whole blocks lets the accelerator skip the corresponding
// load + compute ("block enable" low).
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace hwp3d::core {

struct BlockConfig {
  int64_t Tm = 64;  // output-channel tile
  int64_t Tn = 8;   // input-channel tile
};

// Boolean block map: true = block kept/enabled, false = pruned.
// Row-major over (bm, bn).
struct BlockMask {
  int64_t blocks_m = 0;
  int64_t blocks_n = 0;
  std::vector<uint8_t> enabled;

  int64_t num_blocks() const { return blocks_m * blocks_n; }
  bool at(int64_t bm, int64_t bn) const {
    return enabled[static_cast<size_t>(bm * blocks_n + bn)] != 0;
  }
  void set(int64_t bm, int64_t bn, bool v) {
    enabled[static_cast<size_t>(bm * blocks_n + bn)] = v ? 1 : 0;
  }
  int64_t CountEnabled() const;
  // Enabled blocks in block-column order for one bm row.
  int64_t CountEnabledInRow(int64_t bm) const;
  bool operator==(const BlockMask&) const = default;
};

class BlockPartition {
 public:
  // weight_shape must be rank 5: [M][N][Kd][Kr][Kc].
  BlockPartition(const Shape& weight_shape, BlockConfig cfg);

  int64_t blocks_m() const { return blocks_m_; }
  int64_t blocks_n() const { return blocks_n_; }
  int64_t num_blocks() const { return blocks_m_ * blocks_n_; }
  const BlockConfig& config() const { return cfg_; }

  // Channel ranges covered by a block (end exclusive). Edge blocks are
  // partial when Tm/Tn do not divide M/N.
  int64_t m_begin(int64_t bm) const { return bm * cfg_.Tm; }
  int64_t m_end(int64_t bm) const { return std::min(M_, (bm + 1) * cfg_.Tm); }
  int64_t n_begin(int64_t bn) const { return bn * cfg_.Tn; }
  int64_t n_end(int64_t bn) const { return std::min(N_, (bn + 1) * cfg_.Tn); }

  // Number of weights inside a block (kernel volume included).
  int64_t BlockParams(int64_t bm, int64_t bn) const;

  // Squared L2 norm of each block of `w` (row-major over (bm, bn)).
  std::vector<double> BlockSqNorms(const TensorF& w) const;

  // Zeroes every element of w belonging to disabled blocks.
  void ApplyMask(TensorF& w, const BlockMask& mask) const;

  // Fresh all-enabled mask.
  BlockMask FullMask() const;

  // The mask `w` carries in its zeros: a block is disabled iff every
  // weight in it is exactly 0. HardPrune/ReapplyMasks keep pruned blocks
  // at exactly 0, so a pruned checkpoint yields the masks it was
  // trained with.
  BlockMask ZeroBlockMask(const TensorF& w) const;

  // Parameters covered by enabled blocks.
  int64_t EnabledParams(const BlockMask& mask) const;

 private:
  void CheckShape(const TensorF& w) const;

  BlockConfig cfg_;
  int64_t M_ = 0, N_ = 0, K_ = 0;  // K_ = Kd*Kr*Kc
  int64_t blocks_m_ = 0, blocks_n_ = 0;
  Shape shape_;
};

}  // namespace hwp3d::core
