#pragma once

// Working memory elements and class (literalize) declarations.

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "ops5/value.hpp"
#include "util/small_vec.hpp"

namespace psmsys::ops5 {

/// Index of a WME class within a Program's declaration list.
using ClassIndex = std::uint32_t;

/// Slot index within a WME of a given class.
using SlotIndex = std::uint32_t;

inline constexpr SlotIndex kInvalidSlot = static_cast<SlotIndex>(-1);

/// A `(literalize class attr...)` declaration: fixed attribute layout.
class WmeClass {
 public:
  WmeClass(Symbol name, std::vector<Symbol> attributes);

  [[nodiscard]] Symbol name() const noexcept { return name_; }
  [[nodiscard]] std::span<const Symbol> attributes() const noexcept { return attributes_; }
  [[nodiscard]] std::size_t arity() const noexcept { return attributes_.size(); }

  /// Slot of an attribute, or kInvalidSlot if the class lacks it.
  [[nodiscard]] SlotIndex slot_of(Symbol attribute) const noexcept;

 private:
  Symbol name_;
  std::vector<Symbol> attributes_;
};

/// Monotonically increasing creation stamp; drives conflict-resolution
/// recency ordering (LEX / MEA).
using TimeTag = std::uint64_t;

/// A working memory element: class + slot values + timetag. Instances are
/// owned by the Engine's working memory and referenced (never owned) by the
/// matcher and by conflict-set instantiations. The engine pools them: once
/// a WME is removed, its storage is re-initialised for a later one.
///
/// The slot values live inside the WME up to kInlineSlots of them, the
/// largest class arity of the SPAM phase programs (RTF's region), so no WME
/// of theirs owns a heap block. A wider class spills to the heap.
class Wme {
 public:
  static constexpr std::uint32_t kInlineSlots = 7;

  Wme(ClassIndex cls, Symbol class_name, std::span<const Value> slots, TimeTag tag)
      : tag_(tag), class_(cls), class_name_(class_name) {
    slots_.assign(slots.begin(), slots.end());
  }

  [[nodiscard]] ClassIndex class_index() const noexcept { return class_; }
  [[nodiscard]] Symbol class_name() const noexcept { return class_name_; }
  [[nodiscard]] TimeTag timetag() const noexcept { return tag_; }
  [[nodiscard]] std::span<const Value> slots() const noexcept { return slots_; }
  [[nodiscard]] const Value& slot(SlotIndex i) const {
    if (i >= slots_.size()) throw std::out_of_range("Wme::slot: slot index out of range");
    return slots_[i];
  }

  [[nodiscard]] std::string to_string(const SymbolTable& symbols, const WmeClass& cls) const;

 private:
  friend class Engine;

  /// Make this pooled WME a new one with `values`, reusing its storage.
  void reinit(ClassIndex cls, Symbol class_name, std::span<const Value> values, TimeTag tag) {
    slots_.assign(values.begin(), values.end());
    tag_ = tag;
    class_ = cls;
    class_name_ = class_name;
  }

  util::SmallVec<Value, kInlineSlots> slots_;
  TimeTag tag_;
  ClassIndex class_;
  Symbol class_name_;
};

}  // namespace psmsys::ops5
