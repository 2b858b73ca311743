// SimFunction: the move-only callable type for the simulation hot path.
//
// Every simulated RPC expends dozens of scheduler events and walks a pipeline
// of per-hop continuations (pool grants, fabric deliveries, replies), so these
// callables must not cost a heap allocation the way std::function does for
// captures beyond ~16 bytes. SimFunction stores small callables inline
// (kInlineBytes of small-buffer storage, covering the common capture shapes:
// a couple of pointers, a shared_ptr or two) and spills large captures to a
// pooled size-class arena whose blocks are recycled, so steady-state
// scheduling performs zero allocations either way. SimCallback, the event
// callback, is SimFunction<void()>.
//
// Differences from std::function, on purpose:
//  - move-only (the scheduler never copies events, and move-only captures
//    such as moved-in scratch buffers are welcome);
//  - no small-capture copyability requirement;
//  - operator() is non-const: a callable with mutable captures stays honest;
//  - invoking an empty SimFunction is a DCHECK failure, not
//    std::bad_function_call.
//
// The same arena backs PoolAllocator / MakePooledShared, which take per-call
// state (the client's call and attempt records, the server's in-flight call)
// off the system allocator too.
#ifndef RPCSCOPE_SRC_SIM_CALLBACK_H_
#define RPCSCOPE_SRC_SIM_CALLBACK_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

#include "src/common/check.h"

namespace rpcscope {

namespace callback_internal {

// Recycling arena for callable captures too large for inline storage and for
// pooled per-call objects. Blocks are bucketed into 16-byte size classes and
// pushed onto per-class free lists on release, so after warm-up no dispatch
// path touches the system allocator. Callers pass the block's size back on
// Free, so blocks carry no header. Free lists are per thread: a block freed
// on another shard's worker thread joins that thread's list.
class CapturePool {
 public:
  // Allocates a block with at least `bytes` usable bytes, max_align aligned.
  static void* Alloc(size_t bytes);
  // Returns a block obtained from Alloc(bytes) with the same `bytes` to its
  // size-class free list (or to the system allocator when the class's list
  // is at capacity).
  static void Free(void* block, size_t bytes) noexcept;
  // Number of blocks currently parked on this thread's free lists (for tests).
  static size_t FreeListBlocks();
};

}  // namespace callback_internal

template <typename Signature>
class SimFunction;

template <typename R, typename... Args>
class SimFunction<R(Args...)> {
 public:
  // Inline capture budget. 48 bytes fits the dominant schedule sites (a
  // this-pointer plus two shared_ptrs and a word). The storage is max_align
  // (16-byte) aligned, so sizeof(SimFunction) is 64: the ops pointer, 8 bytes
  // of padding and the storage. A capture holding another SimFunction never
  // fits and always spills to the pool.
  static constexpr size_t kInlineBytes = 48;

  SimFunction() = default;
  SimFunction(std::nullptr_t) {}  // NOLINT(google-explicit-constructor): mirrors std::function.

  template <typename F, typename Fn = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<Fn, SimFunction> &&
                                        std::is_invocable_r_v<R, Fn&, Args...>>>
  SimFunction(F&& f) {  // NOLINT(google-explicit-constructor): mirrors std::function.
    if constexpr (sizeof(Fn) <= kInlineBytes && alignof(Fn) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = &kInlineOps<Fn>;
    } else {
      static_assert(alignof(Fn) <= alignof(std::max_align_t), "over-aligned capture");
      void* block = callback_internal::CapturePool::Alloc(sizeof(Fn));
      ::new (block) Fn(std::forward<F>(f));
      *reinterpret_cast<void**>(storage_) = block;
      ops_ = &kPooledOps<Fn>;
    }
  }

  SimFunction(SimFunction&& other) noexcept { MoveFrom(other); }

  SimFunction& operator=(SimFunction&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }

  SimFunction(const SimFunction&) = delete;
  SimFunction& operator=(const SimFunction&) = delete;

  ~SimFunction() { Reset(); }

  explicit operator bool() const { return ops_ != nullptr; }

  R operator()(Args... args) {
    RPCSCOPE_DCHECK(ops_ != nullptr) << "invoking an empty SimFunction";
    return ops_->invoke(storage_, std::forward<Args>(args)...);
  }

  // True if the capture spilled to the pooled arena (for tests and benches).
  bool is_pooled() const { return ops_ != nullptr && ops_->pooled; }

 private:
  struct Ops {
    R (*invoke)(void* storage, Args&&... args);
    // Move-constructs into `to` from `from` and destroys the source capture.
    void (*relocate)(void* from, void* to) noexcept;
    void (*destroy)(void* storage);
    bool pooled;
  };

  template <typename Fn>
  static R Invoke(Fn& fn, Args&&... args) {
    if constexpr (std::is_void_v<R>) {
      std::invoke(fn, std::forward<Args>(args)...);
    } else {
      return std::invoke(fn, std::forward<Args>(args)...);
    }
  }

  template <typename Fn>
  static constexpr Ops kInlineOps = {
      +[](void* storage, Args&&... args) -> R {
        return Invoke(*std::launder(reinterpret_cast<Fn*>(storage)), std::forward<Args>(args)...);
      },
      +[](void* from, void* to) noexcept {
        Fn* src = std::launder(reinterpret_cast<Fn*>(from));
        ::new (to) Fn(std::move(*src));
        src->~Fn();
      },
      +[](void* storage) { std::launder(reinterpret_cast<Fn*>(storage))->~Fn(); },
      false,
  };

  template <typename Fn>
  static constexpr Ops kPooledOps = {
      +[](void* storage, Args&&... args) -> R {
        return Invoke(*static_cast<Fn*>(*reinterpret_cast<void**>(storage)),
                      std::forward<Args>(args)...);
      },
      +[](void* from, void* to) noexcept {
        // The capture stays in its pooled block; only the pointer relocates.
        *reinterpret_cast<void**>(to) = *reinterpret_cast<void**>(from);
      },
      +[](void* storage) {
        void* block = *reinterpret_cast<void**>(storage);
        static_cast<Fn*>(block)->~Fn();
        callback_internal::CapturePool::Free(block, sizeof(Fn));
      },
      true,
  };

  void MoveFrom(SimFunction& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(other.storage_, storage_);
      other.ops_ = nullptr;
    }
  }

  void Reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  const Ops* ops_ = nullptr;
  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
};

// The scheduler's event callback. Its size sets the size of each Simulator
// slab slot (the queue itself moves 24-byte keys), so a change to the capture
// budget shows here.
using SimCallback = SimFunction<void()>;
static_assert(sizeof(SimCallback) == 64, "SimCallback grew: every pending event's slot grows with it");

// Standard allocator over the capture pool, for per-call objects made and
// dropped once per RPC (use MakePooledShared).
template <typename T>
struct PoolAllocator {
  using value_type = T;

  PoolAllocator() = default;
  template <typename U>
  PoolAllocator(const PoolAllocator<U>&) noexcept {}  // NOLINT(google-explicit-constructor)

  T* allocate(size_t n) {
    static_assert(alignof(T) <= alignof(std::max_align_t), "over-aligned pooled object");
    return static_cast<T*>(callback_internal::CapturePool::Alloc(n * sizeof(T)));
  }
  void deallocate(T* p, size_t n) noexcept { callback_internal::CapturePool::Free(p, n * sizeof(T)); }

  template <typename U>
  bool operator==(const PoolAllocator<U>&) const noexcept {
    return true;
  }
};

// std::make_shared with the object and its control block in one pooled block.
template <typename T, typename... A>
std::shared_ptr<T> MakePooledShared(A&&... args) {
  return std::allocate_shared<T>(PoolAllocator<T>(), std::forward<A>(args)...);
}

}  // namespace rpcscope

#endif  // RPCSCOPE_SRC_SIM_CALLBACK_H_
