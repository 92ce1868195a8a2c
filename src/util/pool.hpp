#pragma once

// A chunked object pool: the one allocator behind every object a Rete
// network, a conflict set and a working memory create and discard while they
// match (tokens, negative join results, WME records, instantiation records,
// working-memory slots).
//
// Elements live in fixed-size chunks, so their addresses never move. A
// released element goes on a LIFO free list *without* being destroyed: it
// keeps its state, heap capacity included, until acquire() hands it out
// again, so recycling allocates nothing. Destroying the pool destroys every
// element it ever constructed exactly once and then frees the chunks: a few
// frees per pool, not one or more per object.

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

namespace psmsys::util {

template <typename T>
class Pool {
 public:
  /// Elements per chunk: about 16 KiB of them, and never fewer than 8.
  static constexpr std::size_t kChunkElements =
      std::max<std::size_t>(8, (std::size_t{16} << 10) / sizeof(T));

  Pool() = default;
  ~Pool() {
    if constexpr (!std::is_trivially_destructible_v<T>) {
      for (T& elem : *this) std::destroy_at(&elem);
    }
    for (T* chunk : chunks_) std::allocator<T>().deallocate(chunk, kChunkElements);
  }

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  /// The element released last, in the state release() left it; if none is
  /// free, a new value-initialised one.
  [[nodiscard]] T* acquire() {
    if (!free_.empty()) {
      T* elem = free_.back();
      free_.pop_back();
      return elem;
    }
    if (constructed_ == chunks_.size() * kChunkElements) {
      chunks_.push_back(nullptr);  // first, so a failed push leaks no chunk
      try {
        chunks_.back() = std::allocator<T>().allocate(kChunkElements);
      } catch (...) {
        chunks_.pop_back();
        throw;
      }
    }
    T* elem = ::new (static_cast<void*>(&(*this)[constructed_])) T();
    ++constructed_;
    return elem;
  }

  /// Put `elem`, which acquire() returned and which is not free, on the free
  /// list. It is not destroyed.
  void release(T* elem) { free_.push_back(elem); }

  /// Elements constructed so far, live or free; the pool never shrinks.
  [[nodiscard]] std::size_t constructed() const noexcept { return constructed_; }

  /// Iteration visits every constructed element, live or free, in
  /// construction order.
  template <typename P, typename E>
  class Iter {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = std::remove_const_t<E>;
    using difference_type = std::ptrdiff_t;
    using pointer = E*;
    using reference = E&;

    Iter() = default;
    Iter(P* pool, std::size_t i) : pool_(pool), i_(i) {}
    [[nodiscard]] E& operator*() const noexcept { return (*pool_)[i_]; }
    [[nodiscard]] E* operator->() const noexcept { return &(*pool_)[i_]; }
    Iter& operator++() noexcept {
      ++i_;
      return *this;
    }
    Iter operator++(int) noexcept {
      Iter old = *this;
      ++i_;
      return old;
    }
    [[nodiscard]] bool operator==(const Iter& o) const noexcept { return i_ == o.i_; }

   private:
    P* pool_ = nullptr;
    std::size_t i_ = 0;
  };
  using iterator = Iter<Pool, T>;
  using const_iterator = Iter<const Pool, const T>;

  [[nodiscard]] iterator begin() noexcept { return {this, 0}; }
  [[nodiscard]] iterator end() noexcept { return {this, constructed_}; }
  [[nodiscard]] const_iterator begin() const noexcept { return {this, 0}; }
  [[nodiscard]] const_iterator end() const noexcept { return {this, constructed_}; }

 private:
  /// The `i`-th element constructed (i < constructed()), live or free.
  [[nodiscard]] T& operator[](std::size_t i) noexcept {
    return chunks_[i / kChunkElements][i % kChunkElements];
  }
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept {
    return chunks_[i / kChunkElements][i % kChunkElements];
  }

  std::vector<T*> chunks_;
  std::size_t constructed_ = 0;
  std::vector<T*> free_;
};

}  // namespace psmsys::util
