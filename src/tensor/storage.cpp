#include "tensor/storage.h"

#include <atomic>
#include <mutex>
#include <new>
#include <unordered_map>
#include <vector>

namespace hwp3d {
namespace {

using Blocks = std::unordered_map<size_t, std::vector<void*>>;  // by size

void FreeAll(const Blocks& blocks) {
  for (const auto& [bytes, list] : blocks) {
    for (void* p : list) ::operator delete(p);
  }
}

// Live tensor bytes and their high-water mark: relaxed, a count and a
// running max that nothing synchronizes on.
std::atomic<size_t> g_live{0};
std::atomic<size_t> g_peak{0};

void AddLive(size_t bytes) {
  const size_t now = g_live.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  size_t peak = g_peak.load(std::memory_order_relaxed);
  while (now > peak && !g_peak.compare_exchange_weak(
                           peak, now, std::memory_order_relaxed)) {
  }
}

struct Recycler {
  std::mutex mu;
  int scopes = 0;  // guarded by mu; `active` mirrors scopes > 0
  std::atomic<bool> active{false};
  size_t kept_bytes = 0;
  Blocks kept;
};

// Never destroyed: tensors with static storage duration may free their
// blocks after every other static is gone.
Recycler& Get() {
  static Recycler* r = new Recycler;
  return *r;
}

}  // namespace

namespace detail {

void* AllocateStorage(size_t bytes) {
  AddLive(bytes);
  Recycler& r = Get();
  if (bytes >= kRecycleMinBytes && r.active.load(std::memory_order_relaxed)) {
    std::lock_guard<std::mutex> lk(r.mu);
    const auto it = r.kept.find(bytes);
    if (it != r.kept.end() && !it->second.empty()) {
      void* p = it->second.back();
      it->second.pop_back();
      r.kept_bytes -= bytes;
      return p;
    }
  }
  return ::operator new(bytes);
}

void FreeStorage(void* p, size_t bytes) {
  g_live.fetch_sub(bytes, std::memory_order_relaxed);
  Recycler& r = Get();
  if (bytes >= kRecycleMinBytes && r.active.load(std::memory_order_relaxed)) {
    std::lock_guard<std::mutex> lk(r.mu);
    if (r.scopes > 0) {
      r.kept[bytes].push_back(p);
      r.kept_bytes += bytes;
      return;
    }
  }
  ::operator delete(p);
}

}  // namespace detail

StorageRecycleScope::StorageRecycleScope() {
  Recycler& r = Get();
  std::lock_guard<std::mutex> lk(r.mu);
  ++r.scopes;
  r.active.store(true, std::memory_order_relaxed);
}

StorageRecycleScope::~StorageRecycleScope() {
  Recycler& r = Get();
  Blocks drop;
  {
    std::lock_guard<std::mutex> lk(r.mu);
    if (--r.scopes > 0) return;
    r.active.store(false, std::memory_order_relaxed);
    drop.swap(r.kept);
    r.kept_bytes = 0;
  }
  FreeAll(drop);
}

size_t RecycledStorageBytes() {
  Recycler& r = Get();
  std::lock_guard<std::mutex> lk(r.mu);
  return r.kept_bytes;
}

size_t LiveStorageBytes() { return g_live.load(std::memory_order_relaxed); }

size_t PeakLiveStorageBytes() {
  return g_peak.load(std::memory_order_relaxed);
}

void ResetPeakLiveStorageBytes() {
  g_peak.store(g_live.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
}

}  // namespace hwp3d
