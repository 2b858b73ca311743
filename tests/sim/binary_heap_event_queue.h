// Test oracle for the simulator's event queue: the seed simulator's binary
// min-heap, over the same 24-byte keys. It hands out keys in
// (time, insertion-sequence) order by construction, so the queue tests drive
// it and LadderEventQueue through the same op stream and require identical
// pops.
#ifndef RPCSCOPE_TESTS_SIM_BINARY_HEAP_EVENT_QUEUE_H_
#define RPCSCOPE_TESTS_SIM_BINARY_HEAP_EVENT_QUEUE_H_

#include <algorithm>
#include <vector>

#include "src/sim/event_queue.h"

namespace rpcscope {

class BinaryHeapEventQueue {
 public:
  void Push(SimEvent ev) {
    heap_.push_back(ev);
    std::push_heap(heap_.begin(), heap_.end(), event_queue_internal::ExecutesAfter{});
  }

  bool Empty() const { return heap_.empty(); }
  size_t Size() const { return heap_.size(); }

  // Time of the earliest key. Requires !Empty().
  SimTime PeekTime() { return heap_.front().time; }

  // Removes and returns the earliest key. Requires !Empty().
  SimEvent PopFront() {
    std::pop_heap(heap_.begin(), heap_.end(), event_queue_internal::ExecutesAfter{});
    const SimEvent ev = heap_.back();
    heap_.pop_back();
    return ev;
  }

 private:
  std::vector<SimEvent> heap_;
};

}  // namespace rpcscope

#endif  // RPCSCOPE_TESTS_SIM_BINARY_HEAP_EVENT_QUEUE_H_
