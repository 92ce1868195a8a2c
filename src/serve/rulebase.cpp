#include "serve/rulebase.hpp"

#include <stdexcept>
#include <utility>

namespace psmsys::serve {

std::shared_ptr<const SharedRuleBase> SharedRuleBase::compile(
    std::shared_ptr<const ops5::Program> program, const ops5::ExternalRegistry* externals,
    ops5::EngineConfig engine_options) {
  if (program == nullptr) throw std::invalid_argument("rule base needs a program");
  auto rb = std::shared_ptr<SharedRuleBase>(new SharedRuleBase);
  rb->network_ = std::make_shared<const rete::CompiledNetwork>(*program);
  rb->program_ = std::move(program);
  rb->externals_ = externals;
  rb->engine_options_ = std::move(engine_options);
  return rb;
}

std::unique_ptr<ops5::Engine> SharedRuleBase::make_engine() const {
  return std::make_unique<ops5::Engine>(program_, network_, externals_, engine_options_);
}

}  // namespace psmsys::serve
