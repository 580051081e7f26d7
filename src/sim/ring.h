// A growable FIFO ring buffer that allocates nothing until its first push.
//
// The simulator's per-component FIFOs (CPU work queues, NIC backlogs, switch
// port buffers, stream boundary lists) are mostly empty: a 16k-connection
// fleet holds ~10 of them per connection and most never see an element.
// libstdc++'s std::deque allocates a 64-byte map and a 512-byte node in its
// constructor, before it holds anything; this ring is three words and a
// pointer until its first push, then grows by doubling a power-of-two
// buffer and never shrinks (a drained ring keeps its capacity, so the
// steady-state push/pop path does not allocate).
//
// Elements live contiguously modulo the capacity; operator[] indexes from
// the front. Growth relocates every element (move + destroy), so references
// and indices obtained before a push may dangle — the same rule as
// std::vector, stricter than std::deque.

#ifndef SRC_SIM_RING_H_
#define SRC_SIM_RING_H_

#include <cassert>
#include <cstddef>
#include <memory>
#include <new>
#include <utility>

namespace e2e {

template <typename T>
class Ring {
 public:
  Ring() = default;
  Ring(const Ring&) = delete;
  Ring& operator=(const Ring&) = delete;
  ~Ring() {
    clear();
    Deallocate();
  }

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }
  size_t capacity() const { return capacity_; }

  T& operator[](size_t i) {
    assert(i < size_);
    return data_[(head_ + i) & (capacity_ - 1)];
  }
  const T& operator[](size_t i) const {
    assert(i < size_);
    return data_[(head_ + i) & (capacity_ - 1)];
  }
  T& front() { return (*this)[0]; }
  T& back() { return (*this)[size_ - 1]; }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == capacity_) {
      Grow();
    }
    T* slot = data_ + ((head_ + size_) & (capacity_ - 1));
    ::new (static_cast<void*>(slot)) T(std::forward<Args>(args)...);
    ++size_;
    return *slot;
  }
  void push_back(T&& value) { emplace_back(std::move(value)); }
  void push_back(const T& value) { emplace_back(value); }

  void pop_front() {
    assert(size_ > 0);
    data_[head_].~T();
    head_ = (head_ + 1) & (capacity_ - 1);
    --size_;
  }

  // Destroys every element; keeps the buffer.
  void clear() {
    while (size_ > 0) {
      pop_front();
    }
    head_ = 0;
  }

 private:
  static constexpr size_t kMinCapacity = 4;

  void Grow() {
    const size_t capacity = capacity_ == 0 ? kMinCapacity : 2 * capacity_;
    T* data = std::allocator<T>().allocate(capacity);
    for (size_t i = 0; i < size_; ++i) {
      T& from = (*this)[i];
      ::new (static_cast<void*>(data + i)) T(std::move(from));
      from.~T();
    }
    Deallocate();
    data_ = data;
    capacity_ = capacity;
    head_ = 0;
  }

  void Deallocate() {
    if (data_ != nullptr) {
      std::allocator<T>().deallocate(data_, capacity_);
    }
  }

  T* data_ = nullptr;
  size_t capacity_ = 0;  // Zero or a power of two.
  size_t head_ = 0;      // Index of the front element in data_.
  size_t size_ = 0;
};

}  // namespace e2e

#endif  // SRC_SIM_RING_H_
