// Tensor storage allocator with scoped recycling of large blocks.
//
// Training allocates every activation and gradient afresh each batch,
// in the same sizes batch after batch. Left to glibc, the blocks freed
// at the end of a batch go back to the OS (the heap top is trimmed) and
// the next batch faults every page in again: about 11k minor faults per
// epoch of the benchmark prune model, a third of the epoch's CPU time.
// While a StorageRecycleScope is alive, freed tensor storage of
// kRecycleMinBytes and more is kept and handed to the next allocation
// of the same size instead. Kept plus live storage can then reach what
// one batch allocates in all, where malloc alone holds what is live at
// once; nn::TrainEpoch and nn::Evaluate therefore open the scope after
// their first batch, so a one-batch epoch keeps malloc's peak. When the
// last scope ends, every kept block is freed, so what the process holds
// outside training is unchanged.
//
// The serving path's int16 activations (fpga::QActivation) recycle
// through their own list in src/fpga/compiled_executor.cpp, and the two
// policies are kept apart on purpose. That list is always on (a server
// has no scope that ends), holds a bounded number of buffers, and keys
// each by its activation layout: a buffer that held the same layout
// comes back with its zero halo intact and skips re-zeroing, and a
// mismatch falls back to the smallest buffer that fits. This one keeps
// everything a batch frees but only while training runs, and matches
// exact byte sizes, because each batch reallocates exactly the sizes the
// one before it freed. Either policy on the other's traffic does worse:
// a bound would drop most of a batch's blocks, and keeping serving's
// buffers without a scope would never give them back.
#pragma once

#include <cstddef>
#include <new>
#include <utility>

namespace hwp3d {

inline constexpr size_t kRecycleMinBytes = size_t{64} << 10;

namespace detail {
void* AllocateStorage(size_t bytes);
void FreeStorage(void* p, size_t bytes);
}  // namespace detail

// Process-wide: while any scope is alive (on any thread), freed blocks
// of kRecycleMinBytes and more are kept for reuse. Nests.
class StorageRecycleScope {
 public:
  StorageRecycleScope();
  ~StorageRecycleScope();
  StorageRecycleScope(const StorageRecycleScope&) = delete;
  StorageRecycleScope& operator=(const StorageRecycleScope&) = delete;
};

// Bytes kept for reuse right now (0 outside every scope).
size_t RecycledStorageBytes();

// Bytes of tensor storage allocated and not yet freed, process-wide;
// blocks kept for reuse are freed storage and do not count.
size_t LiveStorageBytes();

// The highest LiveStorageBytes since the last ResetPeakLiveStorageBytes,
// which sets it to the bytes live now.
size_t PeakLiveStorageBytes();
void ResetPeakLiveStorageBytes();

template <typename T>
struct StorageAllocator {
  using value_type = T;

  StorageAllocator() = default;
  template <typename U>
  StorageAllocator(const StorageAllocator<U>&) {}

  T* allocate(size_t n) {
    return static_cast<T*>(detail::AllocateStorage(n * sizeof(T)));
  }
  void deallocate(T* p, size_t n) { detail::FreeStorage(p, n * sizeof(T)); }

  // Default-initializes, so a float element is left unwritten
  // (Tensor::Uninitialized); every other construction is as usual.
  template <typename U>
  void construct(U* p) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }

  friend bool operator==(const StorageAllocator&, const StorageAllocator&) {
    return true;
  }
};

}  // namespace hwp3d
