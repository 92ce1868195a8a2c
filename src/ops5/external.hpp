#pragma once

// External (RHS) function registry.
//
// SPAM's RHS evaluation "is performed outside OPS5 using external processes"
// (Section 2.2) — geometric computations reached from rule actions. Here
// external functions are C++ callables registered by name and invoked from
// `(call name args...)` expressions; they charge their computational cost
// (geometry flops) to the engine's RHS cost, producing the paper's large
// non-match component.

#include <functional>
#include <span>
#include <string_view>
#include <unordered_map>

#include "ops5/value.hpp"
#include "util/counters.hpp"

namespace psmsys::ops5 {

/// Handed to external functions: cost charging plus an opaque pointer to the
/// domain store (e.g. the SPAM scene holding region polygons).
class ExternalContext {
 public:
  ExternalContext(util::WorkCounters& counters, void* user_data) noexcept
      : counters_(counters), user_data_(user_data) {}

  /// Charge `flops` elementary geometry operations to RHS cost.
  void charge_flops(std::uint64_t flops) noexcept {
    counters_.rhs_cost += flops * util::cost::kGeometryFlop;
  }

  [[nodiscard]] void* user_data() const noexcept { return user_data_; }

  template <typename T>
  [[nodiscard]] T& user_data_as() const {
    return *static_cast<T*>(user_data_);
  }

 private:
  util::WorkCounters& counters_;
  void* user_data_;
};

using ExternalFn = std::function<Value(std::span<const Value>, ExternalContext&)>;

class ExternalRegistry {
 public:
  /// Register `fn` under `name` (interned into `symbols`). Re-registration
  /// replaces the previous function.
  void register_function(SymbolTable& symbols, std::string_view name, ExternalFn fn);

  [[nodiscard]] const ExternalFn* find(Symbol name) const noexcept;

 private:
  std::unordered_map<std::uint32_t, ExternalFn> functions_;
};

}  // namespace psmsys::ops5
