#include "ops5/external.hpp"

namespace psmsys::ops5 {

void ExternalRegistry::register_function(SymbolTable& symbols, std::string_view name,
                                         ExternalFn fn) {
  const Symbol sym = symbols.intern(name);
  functions_[index_of(sym)] = std::move(fn);
}

const ExternalFn* ExternalRegistry::find(Symbol name) const noexcept {
  const auto it = functions_.find(index_of(name));
  return it != functions_.end() ? &it->second : nullptr;
}

}  // namespace psmsys::ops5
