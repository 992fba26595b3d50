// Module: the layer abstraction of the training framework.
//
// Activations flow as rank-5 tensors [B][C][D][H][W] through the 3D CNN
// trunk, become [B][C] after global pooling, and [B][num_classes] at the
// head.
//
// Backward consumes the caches of the last Forward(train=true). Each
// module keeps what its Backward reads (an input, a zero-halo copy, a
// sign mask), owns it alone, and frees it in that Backward, so a trained
// model holds no activations: a second Backward without a fresh
// Forward(train=true) throws Error. A caller that is done with its input
// hands it over by move (the rvalue Forward), so a module that keeps or
// rewrites its input does so without a copy.
//
// Networks are composed one way: as a Sequential chain, which passes
// every activation and gradient on by move. The (2+1)D conv and the
// models derive from it and only append their children; a residual
// block holds two chains (main path, shortcut) and adds the join.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "nn/param.h"
#include "tensor/tensor.h"

namespace hwp3d::nn {

// Non-trainable state a module needs for inference (e.g. BatchNorm
// running statistics). Saved alongside Params by nn::checkpoint so a
// loaded model folds BN identically to the model that was saved.
struct NamedBuffer {
  std::string name;
  TensorF* tensor = nullptr;
};

class Module {
 public:
  virtual ~Module() = default;

  // Computes the output. When `train` is true the module keeps what its
  // Backward reads; when false it must not mutate training state (e.g.
  // BatchNorm running statistics) and keeps nothing.
  virtual TensorF Forward(const TensorF& x, bool train) = 0;

  // The same for a caller that is done with x: a module that keeps its
  // input for Backward takes it over, one that can compute in place
  // writes its output into it. Default: the overload above.
  virtual TensorF Forward(TensorF&& x, bool train) {
    return Forward(std::as_const(x), train);
  }

  // Given dL/dy, accumulates parameter gradients and returns dL/dx.
  // Consumes (frees) the caches of the last Forward(train=true); without
  // one since the last Backward it throws Error.
  virtual TensorF Backward(const TensorF& dy) = 0;

  // The same for a caller that is done with dy: a module whose dx has
  // dy's shape may write it into dy. Default: the overload above.
  virtual TensorF Backward(TensorF&& dy) {
    return Backward(std::as_const(dy));
  }

  // Appends pointers to this module's trainable parameters.
  virtual void CollectParams(std::vector<Param*>& out) { (void)out; }

  // Appends this module's non-trainable inference state, in the same
  // deterministic order as CollectParams. Default: none.
  virtual void CollectBuffers(std::vector<NamedBuffer>& out) { (void)out; }

  virtual std::string name() const = 0;

  std::vector<Param*> Params() {
    std::vector<Param*> out;
    CollectParams(out);
    return out;
  }

  std::vector<NamedBuffer> Buffers() {
    std::vector<NamedBuffer> out;
    CollectBuffers(out);
    return out;
  }

  void ZeroGrad() {
    for (Param* p : Params()) p->ZeroGrad();
  }
};

// Runs children in order; Backward in reverse order. Params and buffers
// are collected in child order, which is the order checkpoints store.
class Sequential : public Module {
 public:
  explicit Sequential(std::string name = "sequential")
      : name_(std::move(name)) {}

  // Appends a child and returns a raw observer pointer to it.
  template <typename M, typename... Args>
  M* Emplace(Args&&... args) {
    auto child = std::make_unique<M>(std::forward<Args>(args)...);
    M* raw = child.get();
    children_.push_back(std::move(child));
    return raw;
  }

  void Append(std::unique_ptr<Module> m) { children_.push_back(std::move(m)); }

  TensorF Forward(const TensorF& x, bool train) override {
    if (children_.empty()) return x;
    return Chain(children_.front()->Forward(x, train), 1, train);
  }

  TensorF Forward(TensorF&& x, bool train) override {
    return Chain(std::move(x), 0, train);
  }

  TensorF Backward(const TensorF& dy) override {
    if (children_.empty()) return dy;
    return ChainBack(children_.back()->Backward(dy), children_.size() - 1);
  }

  TensorF Backward(TensorF&& dy) override {
    return ChainBack(std::move(dy), children_.size());
  }

  void CollectParams(std::vector<Param*>& out) override {
    for (auto& child : children_) child->CollectParams(out);
  }

  void CollectBuffers(std::vector<NamedBuffer>& out) override {
    for (auto& child : children_) child->CollectBuffers(out);
  }

  std::string name() const override { return name_; }

  size_t size() const { return children_.size(); }
  Module* child(size_t i) { return children_.at(i).get(); }

 private:
  // Runs children [first, end) on x, each handing its output on by move.
  TensorF Chain(TensorF x, size_t first, bool train) {
    for (size_t i = first; i < children_.size(); ++i) {
      x = children_[i]->Forward(std::move(x), train);
    }
    return x;
  }

  // Runs the backward of children [0, end) in reverse order on g.
  TensorF ChainBack(TensorF g, size_t end) {
    for (size_t i = end; i-- > 0;) g = children_[i]->Backward(std::move(g));
    return g;
  }

  std::string name_;
  std::vector<std::unique_ptr<Module>> children_;
};

}  // namespace hwp3d::nn
