#include "serve/rulebase.hpp"

#include <stdexcept>
#include <utility>

namespace psmsys::serve {

namespace {

/// Topology export needs a compiled network but no conflict set.
class NullListener final : public rete::MatchListener {
 public:
  void on_activate(const ops5::Production&, std::span<const ops5::Wme* const>) override {}
  void on_deactivate(const ops5::Production&, std::span<const ops5::Wme* const>) override {}
};

}  // namespace

std::shared_ptr<const SharedRuleBase> SharedRuleBase::compile(
    std::shared_ptr<const ops5::Program> program, const ops5::ExternalRegistry* externals,
    ops5::EngineOptions engine_options) {
  if (program == nullptr) throw std::invalid_argument("rule base needs a program");
  auto rb = std::shared_ptr<SharedRuleBase>(new SharedRuleBase);
  rb->program_ = std::move(program);
  rb->externals_ = externals;
  rb->engine_options_ = std::move(engine_options);

  // The two compile-once artifacts: binding analyses, which sessions reuse,
  // and the topology, the read-only network shape the server publishes.
  rb->bindings_ = rete::analyze_all_bindings(*rb->program_);
  rb->engine_options_.rete.shared_bindings = &rb->bindings_;

  NullListener listener;
  util::WorkCounters scratch;
  rete::Network shape(*rb->program_, listener, scratch, rb->engine_options_.costs,
                      rb->engine_options_.rete);
  rb->topology_ = shape.topology();
  return rb;
}

std::unique_ptr<ops5::Engine> SharedRuleBase::make_engine() const {
  return std::make_unique<ops5::Engine>(program_, externals_, engine_options_);
}

}  // namespace psmsys::serve
