#include "serve/request_queue.h"

#include <algorithm>

#include "common/strings.h"

namespace hwp3d::serve {

Status RequestQueue::Push(Request&& request) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (closed_) {
      return UnavailableError("request queue is closed (server draining)");
    }
    if (queue_.size() >= capacity_) {
      return ResourceExhaustedError(StrFormat(
          "request queue full (capacity %zu); retry later or raise "
          "queue_capacity",
          capacity_));
    }
    queue_.push_back(std::move(request));
  }
  nonempty_.notify_one();
  return Status::Ok();
}

std::vector<Request> RequestQueue::PopBatch(int max_batch) {
  std::vector<Request> batch;
  {
    std::unique_lock<std::mutex> lk(mu_);
    nonempty_.wait(lk, [&] { return closed_ || !queue_.empty(); });
    const size_t take =
        std::min(queue_.size(), static_cast<size_t>(max_batch));
    batch.reserve(take);
    for (size_t i = 0; i < take; ++i) {
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    if (queue_.empty()) return batch;  // empty: closed and drained
  }
  // More than max_batch was queued: hand the rest to another idle
  // consumer rather than leave it for this one's next pull.
  nonempty_.notify_one();
  return batch;
}

void RequestQueue::Close() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    closed_ = true;
  }
  nonempty_.notify_all();
}

bool RequestQueue::closed() const {
  std::lock_guard<std::mutex> lk(mu_);
  return closed_;
}

size_t RequestQueue::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return queue_.size();
}

}  // namespace hwp3d::serve
