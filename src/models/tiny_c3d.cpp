#include "models/tiny_c3d.h"

namespace hwp3d::models {

TinyC3d::TinyC3d(TinyC3dConfig cfg, Rng& rng)
    : nn::Sequential("tiny_c3d"), cfg_(cfg) {
  // Each stage's max pool is {pool_depth, 2, 2}: C3D's pool1 keeps the
  // temporal depth, pool2 halves all three dimensions, and the last
  // stage has none (0).
  struct StageSpec {
    const char* name;
    int64_t in_ch, out_ch, pool_depth;
  };
  const StageSpec stages[] = {
      {"c3d_conv1", cfg.in_channels, cfg.conv1_channels, 1},
      {"c3d_conv2", cfg.conv1_channels, cfg.conv2_channels, 2},
      {"c3d_conv3", cfg.conv2_channels, cfg.conv3_channels, 0},
  };
  for (const StageSpec& st : stages) {
    const std::string name = st.name;
    nn::Conv3dConfig cc;
    cc.in_channels = st.in_ch;
    cc.out_channels = st.out_ch;
    cc.kernel = {3, 3, 3};
    cc.stride = {1, 1, 1};
    cc.padding = {1, 1, 1};
    cc.bias = !cfg.batch_norm;
    convs_.push_back(Emplace<nn::Conv3d>(cc, rng, name));
    if (cfg.batch_norm) Emplace<nn::BatchNorm3d>(st.out_ch, name + "_bn");
    Emplace<nn::ReLU>(name + "_relu");
    if (st.pool_depth > 0) {
      nn::Pool3dConfig pc;
      pc.kernel = {st.pool_depth, 2, 2};
      pc.stride = pc.kernel;
      Emplace<nn::MaxPool3d>(pc, name + "_pool");
    }
  }
  Emplace<nn::GlobalAvgPool3d>("c3d_gap");
  Emplace<nn::Linear>(cfg.conv3_channels, cfg.num_classes, rng, "c3d_fc");
}

int64_t TinyC3d::TotalParams() {
  int64_t total = 0;
  for (nn::Param* p : Params()) total += p->value.numel();
  return total;
}

}  // namespace hwp3d::models
