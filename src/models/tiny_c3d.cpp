#include "models/tiny_c3d.h"

#include <utility>

namespace hwp3d::models {

TinyC3d::Stage TinyC3d::MakeStage(int64_t in_ch, int64_t out_ch,
                                  bool pool_spatial_only, bool with_pool,
                                  const std::string& name, Rng& rng) {
  Stage s;
  nn::Conv3dConfig cc;
  cc.in_channels = in_ch;
  cc.out_channels = out_ch;
  cc.kernel = {3, 3, 3};
  cc.stride = {1, 1, 1};
  cc.padding = {1, 1, 1};
  cc.bias = !cfg_.batch_norm;
  s.conv = std::make_unique<nn::Conv3d>(cc, rng, name);
  if (cfg_.batch_norm) {
    s.bn = std::make_unique<nn::BatchNorm3d>(out_ch, name + "_bn");
  }
  s.relu = std::make_unique<nn::ReLU>(name + "_relu");
  if (with_pool) {
    // C3D's pool1 is spatial-only (keeps temporal depth), later pools
    // halve all three dimensions.
    nn::Pool3dConfig pc;
    pc.kernel = pool_spatial_only ? std::array<int64_t, 3>{1, 2, 2}
                                  : std::array<int64_t, 3>{2, 2, 2};
    pc.stride = pc.kernel;
    s.pool = std::make_unique<nn::MaxPool3d>(pc, name + "_pool");
  }
  return s;
}

TinyC3d::TinyC3d(TinyC3dConfig cfg, Rng& rng) : cfg_(cfg) {
  stages_.push_back(MakeStage(cfg.in_channels, cfg.conv1_channels,
                              /*pool_spatial_only=*/true, /*with_pool=*/true,
                              "c3d_conv1", rng));
  stages_.push_back(MakeStage(cfg.conv1_channels, cfg.conv2_channels,
                              false, true, "c3d_conv2", rng));
  stages_.push_back(MakeStage(cfg.conv2_channels, cfg.conv3_channels,
                              false, false, "c3d_conv3", rng));
  gap_ = std::make_unique<nn::GlobalAvgPool3d>("c3d_gap");
  fc_ = std::make_unique<nn::Linear>(cfg.conv3_channels, cfg.num_classes,
                                     rng, "c3d_fc");
}

TensorF TinyC3d::Forward(const TensorF& x, bool train) {
  // The clip is read, never kept (conv1 is padded); every activation
  // after it is handed on by move.
  TensorF h;
  for (size_t i = 0; i < stages_.size(); ++i) {
    Stage& s = stages_[i];
    h = i == 0 ? s.conv->Forward(x, train)
               : s.conv->Forward(std::move(h), train);
    if (s.bn) h = s.bn->Forward(std::move(h), train);
    h = s.relu->Forward(std::move(h), train);
    if (s.pool) h = s.pool->Forward(std::move(h), train);
  }
  h = gap_->Forward(std::move(h), train);
  return fc_->Forward(std::move(h), train);
}

TensorF TinyC3d::Backward(const TensorF& dy) {
  TensorF g = gap_->Backward(fc_->Backward(dy));
  for (auto it = stages_.rbegin(); it != stages_.rend(); ++it) {
    if (it->pool) g = it->pool->Backward(std::move(g));
    g = it->relu->Backward(std::move(g));
    if (it->bn) g = it->bn->Backward(std::move(g));
    g = it->conv->Backward(std::move(g));
  }
  return g;
}

void TinyC3d::CollectParams(std::vector<nn::Param*>& out) {
  for (auto& s : stages_) {
    s.conv->CollectParams(out);
    if (s.bn) s.bn->CollectParams(out);
  }
  fc_->CollectParams(out);
}

void TinyC3d::CollectBuffers(std::vector<nn::NamedBuffer>& out) {
  for (auto& s : stages_) {
    if (s.bn) s.bn->CollectBuffers(out);
  }
}

std::vector<nn::Conv3d*> TinyC3d::Convs() {
  std::vector<nn::Conv3d*> out;
  for (auto& s : stages_) out.push_back(s.conv.get());
  return out;
}

int64_t TinyC3d::TotalParams() {
  int64_t total = 0;
  for (nn::Param* p : Params()) total += p->value.numel();
  return total;
}

}  // namespace hwp3d::models
