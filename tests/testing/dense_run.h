// PackedConvLayer::Run on dense tensors, for the executor parity tests
// (compiled_executor_test, qconv_kernel_test): `input` is the unpadded
// [N][D][R][C] activation and post.shortcut a [M][D][R][C] tensor.
// Converts to and from the QActivation layout around the engine, so the
// output and stats are bitwise the engine's.
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "fpga/compiled_executor.h"
#include "kernels/thread_pool.h"

namespace hwp3d::testing {

inline fpga::TiledConvResult RunDense(const fpga::PackedConvLayer& layer,
                                      const TensorQ& input,
                                      std::array<int64_t, 3> stride,
                                      std::array<int64_t, 3> padding,
                                      const fpga::PostOps& post,
                                      ThreadPool* pool = nullptr) {
  std::optional<fpga::QActivation> shortcut;
  if (post.shortcut != nullptr) {
    shortcut = fpga::QActivation::FromTensor(*post.shortcut, {0, 0, 0});
  }
  fpga::PostOps engine_post = post;
  engine_post.shortcut = nullptr;
  const fpga::QActivation x = fpga::QActivation::FromTensor(input, padding);
  const fpga::PackedConvLayer::ShapePlan plan =
      layer.MakePlan(x.extent(), x.halo(), stride, padding);
  const fpga::QActivation out =
      layer.Run(x, plan, engine_post,
                shortcut.has_value() ? &*shortcut : nullptr, {0, 0, 0}, pool);
  return {out.ToTensor(), plan.stats};
}

}  // namespace hwp3d::testing
