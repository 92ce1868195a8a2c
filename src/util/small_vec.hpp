#pragma once

// An inline-first small array: std::vector's semantics and element order for
// trivially copyable elements, with the first N elements stored in the object
// itself. Only a list that grows past N takes a heap block (its "spill"), so
// a pooled object whose lists stay short owns no heap memory, and destroying
// it frees nothing. Like std::vector, clear() and shrinking keep the
// capacity, spill included, so a recycled object refills without
// allocating.
//
// With sizeof(T) * N <= 16 the array is 24 bytes, the size of a std::vector.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <memory>
#include <stdexcept>
#include <type_traits>

namespace psmsys::util {

template <typename T, std::uint32_t N>
class SmallVec {
  static_assert(N > 0, "SmallVec needs an inline capacity");
  static_assert(std::is_trivially_copyable_v<T> && std::is_trivially_destructible_v<T>,
                "SmallVec copies and drops its elements bytewise");

 public:
  using value_type = T;
  using size_type = std::size_t;
  using iterator = T*;
  using const_iterator = const T*;

  SmallVec() noexcept {}
  SmallVec(const SmallVec& other) { assign(other.begin(), other.end()); }
  SmallVec(SmallVec&& other) noexcept { take(other); }
  SmallVec& operator=(const SmallVec& other) {
    if (this != &other) assign(other.begin(), other.end());
    return *this;
  }
  SmallVec& operator=(SmallVec&& other) noexcept {
    if (this != &other) {
      release_spill();
      take(other);
    }
    return *this;
  }
  ~SmallVec() { release_spill(); }

  [[nodiscard]] size_type size() const noexcept { return size_; }
  [[nodiscard]] size_type capacity() const noexcept { return cap_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  [[nodiscard]] T* data() noexcept { return spilled() ? store_.heap : store_.inline_elems; }
  [[nodiscard]] const T* data() const noexcept {
    return spilled() ? store_.heap : store_.inline_elems;
  }
  [[nodiscard]] iterator begin() noexcept { return data(); }
  [[nodiscard]] iterator end() noexcept { return data() + size_; }
  [[nodiscard]] const_iterator begin() const noexcept { return data(); }
  [[nodiscard]] const_iterator end() const noexcept { return data() + size_; }

  [[nodiscard]] T& operator[](size_type i) noexcept { return data()[i]; }
  [[nodiscard]] const T& operator[](size_type i) const noexcept { return data()[i]; }
  [[nodiscard]] T& front() noexcept { return data()[0]; }
  [[nodiscard]] const T& front() const noexcept { return data()[0]; }
  [[nodiscard]] T& back() noexcept { return data()[size_ - 1]; }
  [[nodiscard]] const T& back() const noexcept { return data()[size_ - 1]; }

  void push_back(const T& value) {
    const T copy = value;  // `value` may live in the block grow() frees
    if (size_ == cap_) grow(size_ + 1);
    data()[size_++] = copy;
  }
  void pop_back() noexcept { --size_; }

  /// Drop every element; the capacity, spill included, stays.
  void clear() noexcept { size_ = 0; }

  /// New elements are value-initialised, as std::vector's are.
  void resize(size_type n) {
    if (n > cap_) grow(n);
    std::fill(data() + std::min<size_type>(n, size_), data() + n, T());
    size_ = static_cast<std::uint32_t>(n);
  }

  void assign(size_type n, const T& value) {
    const T copy = value;  // `value` may live in the block grow() frees
    size_ = 0;
    if (n > cap_) grow(n);
    std::fill(data(), data() + n, copy);
    size_ = static_cast<std::uint32_t>(n);
  }
  template <typename It>
  void assign(It first, It last) {
    const auto n = static_cast<size_type>(std::distance(first, last));
    if (n > cap_) {
      // Copy out first: the range may lie in the block grow() would free.
      SmallVec fresh;
      fresh.grow(n);
      std::copy(first, last, fresh.data());
      fresh.size_ = static_cast<std::uint32_t>(n);
      *this = std::move(fresh);
      return;
    }
    std::copy(first, last, data());
    size_ = static_cast<std::uint32_t>(n);
  }

 private:
  [[nodiscard]] bool spilled() const noexcept { return cap_ > N; }

  void grow(size_type need) {
    if (need > std::numeric_limits<std::uint32_t>::max()) {
      throw std::length_error("SmallVec capacity overflow");
    }
    const size_type cap = std::min<size_type>(
        std::max<size_type>(need, size_type{2} * cap_), std::numeric_limits<std::uint32_t>::max());
    T* heap = std::allocator<T>().allocate(cap);
    std::copy(begin(), end(), heap);
    release_spill();
    store_.heap = heap;
    cap_ = static_cast<std::uint32_t>(cap);
  }

  void release_spill() noexcept {
    if (spilled()) std::allocator<T>().deallocate(store_.heap, cap_);
  }

  /// Take `other`'s elements, leaving it empty and inline. A spill moves by
  /// pointer; inline elements are copied.
  void take(SmallVec& other) noexcept {
    if (other.spilled()) {
      store_.heap = other.store_.heap;
      cap_ = other.cap_;
    } else {
      std::copy(other.begin(), other.end(), store_.inline_elems);
      cap_ = N;
    }
    size_ = other.size_;
    other.size_ = 0;
    other.cap_ = N;
  }

  union Store {
    Store() noexcept {}
    T inline_elems[N];
    T* heap;
  } store_;
  std::uint32_t size_ = 0;
  std::uint32_t cap_ = N;
};

}  // namespace psmsys::util
