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

}  // namespace hwp3d
