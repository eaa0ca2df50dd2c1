#ifndef RDMAJOIN_UTIL_RING_QUEUE_H_
#define RDMAJOIN_UTIL_RING_QUEUE_H_

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

namespace rdmajoin {

/// FIFO over a growable power-of-two ring. A push or a pop is an index into
/// one array; the array doubles, moving the live entries to its front in
/// FIFO order, only when it is full. A queue that stays shallow therefore
/// allocates once, on its first push, however many entries pass through it.
template <typename T>
class RingQueue {
 public:
  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }
  /// Slots allocated; always 0 or a power of two.
  size_t capacity() const { return slots_.size(); }

  /// The oldest entry; the queue must not be empty.
  T& front() {
    assert(size_ > 0);
    return slots_[head_];
  }
  const T& front() const {
    assert(size_ > 0);
    return slots_[head_];
  }

  void push_back(const T& value) {
    if (size_ == slots_.size()) Grow();
    slots_[(head_ + size_) & (slots_.size() - 1)] = value;
    ++size_;
  }

  /// Drops the oldest entry; the queue must not be empty.
  void pop_front() {
    assert(size_ > 0);
    head_ = (head_ + 1) & (slots_.size() - 1);
    --size_;
  }

 private:
  static constexpr size_t kMinSlots = 8;

  void Grow() {
    std::vector<T> grown(slots_.empty() ? kMinSlots : 2 * slots_.size());
    for (size_t i = 0; i < size_; ++i) {
      grown[i] = std::move(slots_[(head_ + i) & (slots_.size() - 1)]);
    }
    slots_ = std::move(grown);
    head_ = 0;
  }

  std::vector<T> slots_;
  size_t head_ = 0;
  size_t size_ = 0;
};

}  // namespace rdmajoin

#endif  // RDMAJOIN_UTIL_RING_QUEUE_H_
