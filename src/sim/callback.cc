#include "src/sim/callback.h"

namespace rpcscope {
namespace callback_internal {

namespace {

// Size classes in 16-byte steps: class c holds blocks of (c + 1) * 16 usable
// bytes, so a pooled object wastes less than one step. Larger requests
// (nothing in the stack comes close) bypass the pool.
constexpr size_t kGranule = alignof(std::max_align_t);
constexpr size_t kMaxClassBytes = 1024;
constexpr size_t kNumClasses = kMaxClassBytes / kGranule;
// Per-class cap on parked blocks. A steady single-domain fleet at 4,000 rps
// per frontend never parks more than this many blocks of one class, so it
// recycles everything; a backlog burst (a crash, a gray slowdown) returns its
// excess to the system allocator instead of pinning it in the heap for the
// rest of the run, where it fragments the space other allocations need.
constexpr size_t kMaxFreePerClass = 256;

struct FreeList {
  // Freed blocks are chained through their usable region (they hold no live
  // object, so the bytes are ours).
  void* head = nullptr;
  size_t count = 0;
};

struct PoolState {
  FreeList free_lists[kNumClasses];

  // Runs at thread exit (worker threads in src/sim/parallel/) and at process
  // exit (main thread). Without this, blocks parked on an exiting worker's
  // free lists are orphaned — LeakSanitizer flags them because the chain's
  // anchor dies with the thread_local.
  ~PoolState() {
    for (FreeList& list : free_lists) {
      void* block = list.head;
      while (block != nullptr) {
        void* next = *static_cast<void**>(block);
        ::operator delete(block);
        block = next;
      }
      list.head = nullptr;
      list.count = 0;
    }
  }
};

PoolState& State() {
  // Each simulator is single-threaded, but shard domains run on worker
  // threads side by side (src/sim/parallel/), so the pool must be per-thread.
  static thread_local PoolState state;  // NOLINT(rpcscope-raw-thread)
  return state;
}

size_t ClassFor(size_t bytes) { return bytes == 0 ? 0 : (bytes - 1) / kGranule; }

}  // namespace

void* CapturePool::Alloc(size_t bytes) {
  if (bytes > kMaxClassBytes) {
    return ::operator new(bytes);
  }
  const size_t cls = ClassFor(bytes);
  FreeList& list = State().free_lists[cls];
  if (list.head != nullptr) {
    void* block = list.head;
    list.head = *static_cast<void**>(block);
    --list.count;
    return block;
  }
  return ::operator new((cls + 1) * kGranule);
}

void CapturePool::Free(void* block, size_t bytes) noexcept {
  if (bytes > kMaxClassBytes) {
    ::operator delete(block);
    return;
  }
  FreeList& list = State().free_lists[ClassFor(bytes)];
  if (list.count >= kMaxFreePerClass) {
    ::operator delete(block);
    return;
  }
  *static_cast<void**>(block) = list.head;
  list.head = block;
  ++list.count;
}

size_t CapturePool::FreeListBlocks() {
  size_t total = 0;
  for (const FreeList& list : State().free_lists) {
    total += list.count;
  }
  return total;
}

}  // namespace callback_internal
}  // namespace rpcscope
