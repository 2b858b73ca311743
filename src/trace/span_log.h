// SpanLog: append-only span storage in fixed blocks.
//
// TraceCollector retains every span it keeps. A doubling std::vector<Span>
// copied (and page-faulted) every retained span again at each growth and held
// both copies while it did; a SpanLog appends into blocks of kBlockSpans spans
// that never move, so each span is written once and the log never holds more
// than its spans plus one partly filled block. Readers index it like a vector
// or iterate it; the iterator walks one block at a time, a pointer step
// within a block.
#ifndef RPCSCOPE_SRC_TRACE_SPAN_LOG_H_
#define RPCSCOPE_SRC_TRACE_SPAN_LOG_H_

#include <cstddef>
#include <iterator>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

#include "src/common/check.h"
#include "src/trace/span.h"

namespace rpcscope {

class SpanLog {
 public:
  // 1,024 spans of 192 bytes: a 192 KiB block.
  static constexpr size_t kBlockBits = 10;
  static constexpr size_t kBlockSpans = size_t{1} << kBlockBits;

  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Span;
    using difference_type = std::ptrdiff_t;
    using pointer = const Span*;
    using reference = const Span&;

    const_iterator() = default;

    reference operator*() const { return *at_; }
    pointer operator->() const { return at_; }

    const_iterator& operator++() {
      ++index_;
      if (++at_ == block_end_) {
        Seek();
      }
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator before = *this;
      ++*this;
      return before;
    }

    bool operator==(const const_iterator& other) const { return index_ == other.index_; }

   private:
    friend class SpanLog;

    const_iterator(const SpanLog* log, size_t index) : log_(log), index_(index) { Seek(); }

    // Points at the block that starts at index_ (the iterator only ever
    // seeks to a block's first span or to the end). Iteration stops on the
    // index, so the end of the last block's filled part needs no pointer.
    void Seek() {
      if (index_ >= log_->size_) {
        at_ = block_end_ = nullptr;
        return;
      }
      at_ = log_->blocks_[index_ >> kBlockBits].get();
      block_end_ = at_ + kBlockSpans;
    }

    const SpanLog* log_ = nullptr;
    size_t index_ = 0;
    const Span* at_ = nullptr;
    const Span* block_end_ = nullptr;
  };

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  const Span& operator[](size_t i) const {
    RPCSCOPE_DCHECK_LT(i, size_) << "SpanLog index out of range";
    return blocks_[i >> kBlockBits].get()[i & kIndexMask];
  }
  const Span& front() const { return (*this)[0]; }
  const Span& back() const { return (*this)[size_ - 1]; }

  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, size_); }

  void push_back(const Span& span) {
    if ((size_ & kIndexMask) == 0) {
      blocks_.push_back(Block(std::allocator<Span>().allocate(kBlockSpans)));
    }
    ::new (static_cast<void*>(blocks_.back().get() + (size_ & kIndexMask))) Span(span);
    ++size_;
  }

  // Frees every block.
  void clear() {
    blocks_.clear();
    size_ = 0;
  }

 private:
  static constexpr size_t kIndexMask = kBlockSpans - 1;
  // Blocks are raw storage: spans are copied in and never destroyed.
  static_assert(std::is_trivially_copyable_v<Span> && std::is_trivially_destructible_v<Span>);

  struct FreeBlock {
    void operator()(Span* block) const { std::allocator<Span>().deallocate(block, kBlockSpans); }
  };
  using Block = std::unique_ptr<Span, FreeBlock>;

  std::vector<Block> blocks_;
  size_t size_ = 0;
};

}  // namespace rpcscope

#endif  // RPCSCOPE_SRC_TRACE_SPAN_LOG_H_
