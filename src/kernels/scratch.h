// Reusable thread-local scratch buffers for the kernels.
//
// The implicit-GEMM conv engine and the fast-path executor need per-call
// scratch (zero-halo sample copies, B-row offset tables, per-task
// gathered panels, packed GEMM panels, accumulator tiles). Allocating
// them per call would put a malloc/free pair on every hot-path
// invocation; instead each thread keeps one ScratchBuffer per use site
// (declared `thread_local`), which grows geometrically and is then
// reused for the lifetime of the thread.
//
// Every byte held by live scratch buffers is accounted in a
// process-wide total, exported as the `kernels.scratch_bytes` gauge so
// the steady-state scratch footprint is visible next to the kernels.*
// throughput counters.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hwp3d::kernels {

// Current bytes held across all live scratch buffers in the process.
int64_t ScratchBytesInUse();

namespace detail {
// Adjusts the process-wide total and refreshes the gauge. `sync_gauge`
// is false on the thread-exit path, where the metrics registry may be
// mid-teardown; the atomic total alone is always safe to update.
void AccountScratch(int64_t delta_bytes, bool sync_gauge);
}  // namespace detail

// One reusable, geometrically-growing buffer. Intended use:
//
//   thread_local ScratchBuffer<float> cols;
//   float* p = cols.Resize(K * P);   // valid until the next Resize
//
// Resize never shrinks; contents are unspecified after Resize (callers
// overwrite). T must be trivially destructible.
template <typename T>
class ScratchBuffer {
 public:
  ScratchBuffer() = default;
  ~ScratchBuffer() {
    detail::AccountScratch(
        -static_cast<int64_t>(v_.capacity() * sizeof(T)),
        /*sync_gauge=*/false);
  }
  ScratchBuffer(const ScratchBuffer&) = delete;
  ScratchBuffer& operator=(const ScratchBuffer&) = delete;

  T* Resize(size_t n) {
    if (n > v_.size()) {
      const size_t old_cap = v_.capacity();
      size_t grown = v_.size() * 2;
      if (grown < n) grown = n;
      v_.resize(grown);
      const size_t new_cap = v_.capacity();
      if (new_cap != old_cap) {
        detail::AccountScratch(
            static_cast<int64_t>((new_cap - old_cap) * sizeof(T)),
            /*sync_gauge=*/true);
      }
    }
    return v_.data();
  }

  size_t capacity_bytes() const { return v_.capacity() * sizeof(T); }

 private:
  std::vector<T> v_;
};

}  // namespace hwp3d::kernels
