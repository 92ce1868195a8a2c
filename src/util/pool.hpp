#pragma once

// A chunked object pool: the one allocator behind every object a Rete
// network, a conflict set and a working memory create and discard while they
// match (tokens, negative join results, WME records, instantiation records,
// working-memory slots).
//
// Elements live in fixed-size chunks, so their addresses never move. A
// released element goes on a LIFO free list *without* being destroyed: it
// keeps its state, heap capacity included, until acquire() hands it out
// again, so recycling allocates nothing. release_all() frees every element at
// once, and acquire() then hands them out again in construction order, the
// order a new pool would place them in. Destroying the pool destroys every
// element it ever constructed exactly once and then frees the chunks: a few
// frees per pool, not one or more per object.
//
// Under AddressSanitizer a free element is poisoned, so reading one through
// a stale pointer is reported instead of silently reading whatever element
// recycled its storage.

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#define PSMSYS_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PSMSYS_ASAN 1
#endif
#endif
#ifdef PSMSYS_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace psmsys::util {

template <typename T>
class Pool {
 public:
  /// Elements per chunk: about 16 KiB of them, and never fewer than 8.
  static constexpr std::size_t kChunkElements =
      std::max<std::size_t>(8, (std::size_t{16} << 10) / sizeof(T));

  Pool() = default;
  ~Pool() {
    for (T& elem : *this) {
      unpoison(&elem);
      if constexpr (!std::is_trivially_destructible_v<T>) std::destroy_at(&elem);
    }
    for (T* chunk : chunks_) std::allocator<T>().deallocate(chunk, kChunkElements);
  }

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  /// The element released last, in the state release() left it; if none is
  /// on the free list, the next element in construction order not handed out
  /// since the last release_all(), in the state that left it; if none, a
  /// new value-initialised one.
  [[nodiscard]] T* acquire() {
    T* elem = nullptr;
    if (!free_.empty()) {
      elem = free_.back();
      free_.pop_back();
    } else {
      if (handed_ == constructed_) construct_next();
      elem = &(*this)[handed_++];
    }
    unpoison(elem);
    return elem;
  }

  /// Put `elem`, which acquire() returned and which is not free, on the free
  /// list. It is not destroyed.
  void release(T* elem) {
    free_.push_back(elem);
    poison(elem);
  }

  /// Free every element, live or not, without destroying any: the next
  /// acquire() calls hand them out in construction order and allocate
  /// nothing until all of them are live again.
  void release_all() noexcept {
    free_.clear();
    handed_ = 0;
    for (T& elem : *this) poison(&elem);
  }

  /// Elements constructed so far, live or free; the pool never shrinks.
  [[nodiscard]] std::size_t constructed() const noexcept { return constructed_; }

  /// Iteration visits every constructed element, live or free, in
  /// construction order; under AddressSanitizer only a live one may be read.
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

  /// Construct element constructed_, adding a chunk if it needs one.
  void construct_next() {
    if (constructed_ == chunks_.size() * kChunkElements) {
      chunks_.push_back(nullptr);  // first, so a failed push leaks no chunk
      try {
        chunks_.back() = std::allocator<T>().allocate(kChunkElements);
      } catch (...) {
        chunks_.pop_back();
        throw;
      }
    }
    ::new (static_cast<void*>(&(*this)[constructed_])) T();
    ++constructed_;
  }

  static void poison([[maybe_unused]] T* elem) noexcept {
#ifdef PSMSYS_ASAN
    ASAN_POISON_MEMORY_REGION(elem, sizeof(T));
#endif
  }
  static void unpoison([[maybe_unused]] T* elem) noexcept {
#ifdef PSMSYS_ASAN
    ASAN_UNPOISON_MEMORY_REGION(elem, sizeof(T));
#endif
  }

  std::vector<T*> chunks_;
  std::size_t constructed_ = 0;
  /// Elements [0, handed_) were handed out since construction or the last
  /// release_all(), and are live or on free_; the rest are free.
  std::size_t handed_ = 0;
  std::vector<T*> free_;
};

}  // namespace psmsys::util
