#pragma once

// A linear-probing, open-addressed table of element pointers: the one
// identity index behind the conflict set, the engine's working memory and
// the Rete network's WME-to-record map. It stores pointers only, so it never
// allocates except when it doubles, and lookup compares in place against the
// caller's key instead of building one.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace psmsys::util {

/// Folds a 64-bit key into a hash whose low bits, the ones a power-of-two
/// mask keeps, depend on every bit of the key. Dense keys (timetags) and
/// aligned ones (pointers, whose low bits are zero) both need that.
[[nodiscard]] constexpr std::uint64_t mix_bits(std::uint64_t key) noexcept {
  key *= 0x9e3779b97f4a7c15ULL;
  return key ^ (key >> 32);
}

/// Non-owning pointers to `T`, at most 3/4 full, in a power-of-two array
/// that starts at 16 slots and doubles; null marks an empty slot. Deletion
/// is backward-shift, so churn leaves no tombstones. `HashOf` is a
/// stateless functor returning a stored element's hash, the same one it was
/// inserted with: growth and deletion re-derive home slots from it.
///
/// Keys live in the elements, so lookups take the key's hash and a
/// predicate that recognises its element. An insert is reserve_one(), then
/// find_slot(), then fill() if the slot came back empty.
template <typename T, typename HashOf>
class OpenTable {
 public:
  OpenTable() : slots_(kInitialSlots, nullptr) {}

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }

  /// The slot holding the element `is_key` accepts, or the empty slot that
  /// ends the key's probe run.
  template <typename IsKey>
  [[nodiscard]] std::size_t find_slot(std::uint64_t hash, IsKey is_key) const {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
      const T* elem = slots_[i];
      if (elem == nullptr || is_key(*elem)) return i;
    }
  }

  /// The element in `slot`, or nullptr if it is empty.
  [[nodiscard]] T* operator[](std::size_t slot) const noexcept { return slots_[slot]; }

  /// Double if one more element would load the table past 3/4. Slot
  /// numbers found before the call are invalid after it.
  void reserve_one() {
    if ((size_ + 1) * 4 > slots_.size() * 3) grow();
  }

  /// Store `elem` in the empty `slot` that find_slot() returned after
  /// reserve_one().
  void fill(std::size_t slot, T* elem) noexcept {
    slots_[slot] = elem;
    ++size_;
  }

  /// Empty `slot`. Each later member of its probe run moves back into the
  /// hole unless that would put it before its home slot; the modular
  /// distances handle runs that wrap past the end of the array.
  void erase(std::size_t slot) noexcept {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t j = (slot + 1) & mask; slots_[j] != nullptr; j = (j + 1) & mask) {
      const std::size_t home = hash_of_(*slots_[j]) & mask;
      if (((j - home) & mask) >= ((j - slot) & mask)) {
        slots_[slot] = slots_[j];
        slot = j;
      }
    }
    slots_[slot] = nullptr;
    --size_;
  }

  /// Empty every slot; the capacity stays.
  void clear() noexcept {
    for (T*& elem : slots_) elem = nullptr;
    size_ = 0;
  }

  /// Call `f(T&)` on every element, in slot order.
  template <typename F>
  void for_each(F f) const {
    for (T* elem : slots_) {
      if (elem != nullptr) f(*elem);
    }
  }

 private:
  static constexpr std::size_t kInitialSlots = 16;

  void grow() {
    std::vector<T*> old(slots_.size() * 2, nullptr);
    old.swap(slots_);
    const std::size_t mask = slots_.size() - 1;
    for (T* elem : old) {
      if (elem == nullptr) continue;
      std::size_t i = hash_of_(*elem) & mask;
      while (slots_[i] != nullptr) i = (i + 1) & mask;
      slots_[i] = elem;
    }
  }

  std::vector<T*> slots_;
  std::size_t size_ = 0;
  [[no_unique_address]] HashOf hash_of_{};
};

}  // namespace psmsys::util
