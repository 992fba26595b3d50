// Bounded MPMC request queue.
//
// Producers (Submit callers) push single requests and are never
// blocked: when the queue is at capacity Push fails immediately with
// kResourceExhausted — admission control backpressure, the caller
// decides whether to retry, shed, or propagate. Consumers (the
// server's replica lanes) pop *batches*: PopBatch blocks only while the
// queue is empty, then takes whatever is queued, up to `max_batch`, at
// once. It never waits for a batch to fill, so an idle consumer starts
// on a lone request right away, and under backlog batches fill by
// themselves.
//
// Close() drains gracefully: pushes fail with kUnavailable, poppers
// keep receiving the remaining requests and finally an empty batch,
// their signal to exit.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <vector>

#include "common/status.h"
#include "fpga/model_compiler.h"
#include "tensor/tensor.h"

namespace hwp3d::serve {

// What a fulfilled request resolves to.
struct InferenceResult {
  TensorF logits;        // [num_classes]
  int label = 0;         // argmax of logits
  fpga::CompiledRunStats stats;  // modeled accelerator cost of this clip
  int batch_size = 0;    // size of the lane pull this request rode in
  int replica = 0;       // which replica executed it
  double queue_us = 0.0;  // enqueue -> batch start
  double total_us = 0.0;  // enqueue -> completion
};

struct Request {
  TensorF clip;          // [C][D][H][W]
  double enqueue_us = 0.0;   // obs::NowUs() at admission
  double deadline_us = 0.0;  // absolute obs::NowUs() deadline; 0 = none
  std::promise<StatusOr<InferenceResult>> promise;
};

class RequestQueue {
 public:
  explicit RequestQueue(size_t capacity) : capacity_(capacity) {}

  // Non-blocking admission. kResourceExhausted when full, kUnavailable
  // after Close().
  Status Push(Request&& request);

  // Blocks while the queue is empty and open, then returns up to
  // `max_batch` requests in FIFO order without waiting for more. An
  // empty vector means closed-and-drained.
  std::vector<Request> PopBatch(int max_batch);

  void Close();

  bool closed() const;
  size_t size() const;
  size_t capacity() const { return capacity_; }

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable nonempty_;  // pushes and Close() signal here
  std::deque<Request> queue_;
  bool closed_ = false;
};

}  // namespace hwp3d::serve
