#include "kernels/engine.h"

#include <atomic>

namespace hwp3d::kernels {
namespace {

std::atomic<Engine>& Current() {
  static std::atomic<Engine> engine{Engine::kGemm};
  return engine;
}

}  // namespace

Engine CurrentEngine() {
  return Current().load(std::memory_order_relaxed);
}

void SetEngine(Engine engine) {
  Current().store(engine, std::memory_order_relaxed);
}

const char* EngineName(Engine engine) {
  return engine == Engine::kNaive ? "naive" : "gemm";
}

}  // namespace hwp3d::kernels
