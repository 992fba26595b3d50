// Reproduces the paper's MOTIVATION for choosing R(2+1)D (Sections I-II):
// the factorized (2+1)D network reaches comparable-or-better accuracy
// than standard C3D with fewer parameters, because the extra
// nonlinearity between the spatial and temporal convolutions increases
// representational power per parameter. Trains both miniatures on the
// same synthetic motion task with matched stage widths and reports
// params / accuracy / full-size analytic cost, and — the paper's
// C3D-vs-R(2+1)D serving comparison in miniature — compiles both trained
// models for the fast executor and reports measured ms and MACs per
// clip.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "data/synthetic_video.h"
#include "fpga/model_compiler.h"
#include "kernels/thread_pool.h"
#include "models/network_spec.h"
#include "models/tiny_c3d.h"
#include "models/tiny_r2plus1d.h"
#include "nn/optimizer.h"
#include "obs/trace.h"
#include "report/table.h"

using namespace hwp3d;

namespace {

int64_t TotalParams(nn::Module& m) {
  int64_t total = 0;
  for (nn::Param* p : m.Params()) total += p->value.numel();
  return total;
}

template <typename Model>
double Train(Model& model, const std::vector<nn::Batch>& train,
             const std::vector<nn::Batch>& test, int epochs) {
  nn::Sgd opt(model.Params(),
              {.lr = 0.05f, .momentum = 0.9f, .weight_decay = 0.0f});
  nn::WarmupCosineLr schedule(0.05f, 2, epochs);
  for (int e = 0; e < epochs; ++e) {
    opt.set_lr(schedule.LrAt(e));
    nn::TrainEpoch(model, opt, train, {});
  }
  return nn::Evaluate(model, test).accuracy;
}

double Median(std::vector<double> v) {
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

template <typename Model>
fpga::CompiledModel CompileFast(Model& model) {
  fpga::CompiledModelOptions opts;
  opts.tiling = fpga::Tiling{4, 4, 2, 5, 5};
  opts.executor = fpga::ExecMode::kFast;
  return fpga::CompiledModel::Compile(model, opts).value();
}

}  // namespace

int main() {
  SetLogLevel(LogLevel::Warning);
  Rng rng(71);
  data::SyntheticVideoConfig dcfg;
  dcfg.num_classes = 6;
  dcfg.frames = 6;
  dcfg.height = 10;
  dcfg.width = 10;
  data::SyntheticVideoDataset dataset(dcfg);
  const auto train = dataset.MakeBatches(72, 8, rng);
  const auto test = dataset.MakeBatches(48, 8, rng);
  const int kEpochs = 12;

  models::TinyR2Plus1dConfig rcfg;
  rcfg.num_classes = dcfg.num_classes;
  rcfg.stem_channels = 4;
  rcfg.stage1_channels = 8;
  rcfg.stage2_channels = 8;
  models::TinyR2Plus1d r2p1d(rcfg, rng);
  const double r_acc = Train(r2p1d, train, test, kEpochs);

  models::TinyC3dConfig ccfg;
  ccfg.num_classes = dcfg.num_classes;
  ccfg.conv1_channels = 4;
  ccfg.conv2_channels = 8;
  ccfg.conv3_channels = 8;
  models::TinyC3d c3d(ccfg, rng);
  const double c_acc = Train(c3d, train, test, kEpochs);

  // Serving cost of the trained models: the median of kReps Infers on
  // one clip, the two models taking turns so a drift in the host's speed
  // slows both alike. One thread, as a lone serving lane runs clips this
  // small (below serve::kInlineClipMacs).
  const fpga::CompiledModel r_fast = CompileFast(r2p1d);
  const fpga::CompiledModel c_fast = CompileFast(c3d);
  const TensorF clip = dataset.MakeSample(0, rng).clip;
  constexpr int kReps = 200;
  std::vector<double> r_us, c_us;
  {
    ThreadPool::SerialScope serial;
    const auto time_us = [&](const fpga::CompiledModel& m,
                             std::vector<double>& out) {
      const double t0 = obs::NowUs();
      (void)m.Infer(clip);
      out.push_back(obs::NowUs() - t0);
    };
    for (int rep = 0; rep < kReps; ++rep) {
      time_us(r_fast, r_us);
      time_us(c_fast, c_us);
    }
  }

  report::Table table("Motivation — R(2+1)D vs C3D on motion classification");
  table.Header({"Model", "Params (tiny)", "Test accuracy",
                "Full-size params", "Full-size GOPs", "Served ms/clip",
                "MACs/clip"});
  const models::NetworkSpec rspec = models::MakeR2Plus1DSpec();
  const models::NetworkSpec cspec = models::MakeC3DSpec();
  table.Row({"R(2+1)D", report::Table::Int(TotalParams(r2p1d)),
             report::Table::Pct(r_acc),
             report::Table::Num(rspec.TotalParams() / 1e6, 1) + "M",
             report::Table::Num(rspec.TotalOps() / 1e9, 1),
             report::Table::Num(Median(r_us) / 1e3, 3),
             report::Table::Int(r_fast.MacsFor(clip.shape()))});
  table.Row({"C3D", report::Table::Int(TotalParams(c3d)),
             report::Table::Pct(c_acc),
             report::Table::Num(cspec.TotalParams() / 1e6, 1) + "M (conv)",
             report::Table::Num(cspec.TotalOps() / 1e9, 1),
             report::Table::Num(Median(c_us) / 1e3, 3),
             report::Table::Int(c_fast.MacsFor(clip.shape()))});
  table.Print();
  std::printf(
      "\nReading: at matched widths the factorized model should match or\n"
      "beat full-3D C3D on a task defined purely by motion (the paper's\n"
      "UCF101 numbers: R(2+1)D 89%% with 33M params vs C3D's larger, less\n"
      "accurate model).\n"
      "Served ms/clip: median of %d fast-executor Infers of one\n"
      "%lldx%lldx%lld clip on one thread; MACs/clip: CompiledModel::MacsFor\n"
      "on that clip.\n",
      kReps, (long long)clip.dim(1), (long long)clip.dim(2),
      (long long)clip.dim(3));
  return 0;
}
