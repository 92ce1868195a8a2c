#include "spam/decomposition.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <stdexcept>

namespace psmsys::spam {

namespace {

using analysis::AbstractVal;
using ops5::ClassIndex;
using ops5::Engine;
using ops5::SlotIndex;
using ops5::Value;

// --- Spec-building helpers: class, slot and symbol lookups by name.

[[nodiscard]] ClassIndex spec_class(const ops5::Program& program, std::string_view name) {
  const auto sym = program.symbols().find(name);
  if (!sym) throw std::logic_error("class not in program: " + std::string(name));
  const auto idx = program.class_index(*sym);
  if (!idx) throw std::logic_error("not a WME class: " + std::string(name));
  return *idx;
}

[[nodiscard]] SlotIndex spec_slot(const ops5::Program& program, ClassIndex cls,
                                  std::string_view attr) {
  const auto sym = program.symbols().find(attr);
  if (!sym) throw std::logic_error("attribute not in program: " + std::string(attr));
  const auto slot = program.wme_class(cls).slot_of(*sym);
  if (slot == ops5::kInvalidSlot) throw std::logic_error("class lacks attribute: " + std::string(attr));
  return slot;
}

[[nodiscard]] Value spec_sym(const ops5::Program& program, std::string_view name) {
  const auto sym = program.symbols().find(name);
  if (!sym) throw std::logic_error("symbol not in program: " + std::string(name));
  return Value(*sym);
}

/// Factory for LCC task processes: each owns an engine with the fragment +
/// constraint base WM ("a copy of the initial working memory supplied by the
/// control process", Section 5.1).
[[nodiscard]] psm::TaskProcessFactory lcc_factory(std::shared_ptr<const PhaseProgram> phase,
                                                  const Scene& scene,
                                                  std::shared_ptr<const std::vector<Fragment>> fragments,
                                                  bool record_cycles) {
  psm::TaskProcessFactory factory;
  factory.make_engine = [phase, &scene, record_cycles] {
    ops5::EngineConfig options;
    options.record_cycles = record_cycles;
    return phase->make_engine(scene, options);
  };
  factory.base_init = [fragments](Engine& engine) {
    seed_fragment_wmes(engine, *fragments);
    seed_constraint_wmes(engine);
    seed_support_wmes(engine, *fragments);
  };
  return factory;
}

/// Append a task that injects one WME of `cls`, built once: the task's
/// TaskSpec holds it, and the runtime injection replays the same class and
/// slot values, so the spec the interference checker certifies and the
/// execution cannot drift.
void push_task(Decomposition& d, std::string label, ClassIndex cls,
               std::vector<std::pair<SlotIndex, Value>> slots) {
  psm::Task& task = d.tasks.emplace_back();
  task.id = d.tasks.size() - 1;
  task.label = label;
  task.inject = [cls, slots](Engine& e) { e.make_wme(cls, slots); };
  analysis::TaskSpec& spec = d.spec.tasks.emplace_back();
  spec.task_id = task.id;
  spec.label = std::move(label);
  spec.wmes.push_back(analysis::TaskWmeSpec{cls, std::move(slots)});
}

/// Class roles + scene facts of the LCC rule base. Base classes are seeded
/// by the control process and immutable during the run (support's ^count is
/// task-local bookkeeping that never reaches merged results); the merged
/// result is `consistency`, keyed by the (constraint, subject, object)
/// triple that extract_consistency dedups on. Facts: the seeded fragments
/// tie each ^class to the finite ^id and ^region sets of that class.
[[nodiscard]] analysis::DecompositionSpec lcc_spec(std::shared_ptr<const ops5::Program> program,
                                                   const std::vector<Fragment>& fragments) {
  analysis::DecompositionSpec spec;
  spec.program = program;
  const auto& p = *program;

  const ClassIndex fragment_cls = spec_class(p, "fragment");
  const ClassIndex consistency_cls = spec_class(p, "consistency");
  spec.base_classes = {fragment_cls, spec_class(p, "constraint"), spec_class(p, "support")};
  spec.result_classes = {{consistency_cls,
                          {spec_slot(p, consistency_cls, "constraint"),
                           spec_slot(p, consistency_cls, "subject"),
                           spec_slot(p, consistency_cls, "object")}}};
  spec.scratch_classes = {spec_class(p, "lcc-task"), spec_class(p, "relation"),
                          spec_class(p, "context")};

  const SlotIndex frag_class = spec_slot(p, fragment_cls, "class");
  const SlotIndex frag_id = spec_slot(p, fragment_cls, "id");
  const SlotIndex frag_region = spec_slot(p, fragment_cls, "region");
  for (std::size_t i = 0; i < kRegionClassCount; ++i) {
    const auto cls = static_cast<RegionClass>(i);
    std::vector<Value> ids;
    std::vector<Value> regions;
    for (const auto& f : fragments) {
      if (f.cls != cls) continue;
      ids.emplace_back(static_cast<double>(f.id));
      regions.emplace_back(static_cast<double>(f.region));
    }
    spec.facts.push_back(analysis::DataFact{
        fragment_cls,
        frag_class,
        spec_sym(p, class_name(cls)),
        {{frag_id, AbstractVal::finite(std::move(ids))},
         {frag_region, AbstractVal::finite(std::move(regions))}}});
  }
  return spec;
}

/// Class roles + scene facts of the RTF rule base. The merged result is
/// `fragment`, keyed by (id, region, class) — ids already encode
/// (region, class), so any one key being disjoint separates two writes.
/// Facts tie ^group and ^texture to the finite region-id sets of the scene,
/// mirroring seed_region_wmes.
[[nodiscard]] analysis::DecompositionSpec rtf_spec(std::shared_ptr<const ops5::Program> program,
                                                   const Scene& scene, int group_size) {
  analysis::DecompositionSpec spec;
  spec.program = program;
  const auto& p = *program;

  const ClassIndex region_cls = spec_class(p, "region");
  const ClassIndex fragment_cls = spec_class(p, "fragment");
  spec.base_classes = {region_cls};
  spec.result_classes = {{fragment_cls,
                          {spec_slot(p, fragment_cls, "id"),
                           spec_slot(p, fragment_cls, "region"),
                           spec_slot(p, fragment_cls, "class")}}};
  spec.scratch_classes = {spec_class(p, "rtf-task"), spec_class(p, "linear"),
                          spec_class(p, "blob"), spec_class(p, "building")};

  const SlotIndex region_group = spec_slot(p, region_cls, "group");
  const SlotIndex region_texture = spec_slot(p, region_cls, "texture");
  const SlotIndex region_id = spec_slot(p, region_cls, "id");
  std::map<double, std::vector<Value>> by_group;
  std::map<Texture, std::vector<Value>> by_texture;
  for (const auto& r : scene.regions()) {
    const double group = std::floor(static_cast<double>(r.id - 1) / group_size);
    by_group[group].emplace_back(static_cast<double>(r.id));
    by_texture[r.texture].emplace_back(static_cast<double>(r.id));
  }
  for (auto& [group, ids] : by_group) {
    spec.facts.push_back(analysis::DataFact{
        region_cls, region_group, Value(group), {{region_id, AbstractVal::finite(std::move(ids))}}});
  }
  for (const Texture texture : {Texture::Paved, Texture::Roofed, Texture::Grass, Texture::Mixed}) {
    auto it = by_texture.find(texture);
    std::vector<Value> ids = it != by_texture.end() ? std::move(it->second) : std::vector<Value>{};
    spec.facts.push_back(analysis::DataFact{
        region_cls, region_texture, spec_sym(p, texture_name(texture)),
        {{region_id, AbstractVal::finite(std::move(ids))}}});
  }
  return spec;
}

}  // namespace

Decomposition lcc_decomposition(int level, const Scene& scene,
                                std::vector<Fragment> best_fragments, bool record_cycles) {
  if (level < 1 || level > 4) throw std::invalid_argument("LCC level must be 1..4");

  // FIFO order: fragments by id (== region order; giants last).
  std::sort(best_fragments.begin(), best_fragments.end(),
            [](const Fragment& a, const Fragment& b) { return a.id < b.id; });
  auto fragments = std::make_shared<const std::vector<Fragment>>(std::move(best_fragments));

  // One shared compiled program bundle; engines are per process.
  auto phase = std::make_shared<const PhaseProgram>(build_lcc_program());

  Decomposition d;
  d.factory = lcc_factory(phase, scene, fragments, record_cycles);
  d.spec = lcc_spec(phase->program, *fragments);

  const auto num = [](auto v) { return Value(static_cast<double>(v)); };

  const ClassIndex task_cls = spec_class(*phase->program, "lcc-task");
  const SlotIndex s_level = spec_slot(*phase->program, task_cls, "level");
  const SlotIndex s_subject_class = spec_slot(*phase->program, task_cls, "subject-class");
  const SlotIndex s_subject = spec_slot(*phase->program, task_cls, "subject");
  const SlotIndex s_constraint = spec_slot(*phase->program, task_cls, "constraint");
  const SlotIndex s_object = spec_slot(*phase->program, task_cls, "object");

  switch (level) {
    case 4:
      for (std::size_t i = 0; i < kRegionClassCount; ++i) {
        const auto cls = static_cast<RegionClass>(i);
        push_task(d, "L4 " + std::string(class_name(cls)), task_cls,
                  {{s_level, Value(4.0)},
                   {s_subject_class, spec_sym(*phase->program, class_name(cls))}});
      }
      break;

    case 3:
      for (const auto& f : *fragments) {
        push_task(d, "L3 subj=" + std::to_string(f.id), task_cls,
                  {{s_level, Value(3.0)}, {s_subject, num(f.id)}});
      }
      break;

    case 2:
      for (const auto& f : *fragments) {
        for (const Constraint* c : constraints_for(f.cls)) {
          push_task(d, "L2 subj=" + std::to_string(f.id) + " k=" + c->name, task_cls,
                    {{s_level, Value(2.0)}, {s_subject, num(f.id)}, {s_constraint, num(c->id)}});
        }
      }
      break;

    case 1:
      for (const auto& f : *fragments) {
        for (const Constraint* c : constraints_for(f.cls)) {
          for (const auto& other : *fragments) {
            if (other.id == f.id || other.cls != c->object) continue;
            push_task(d,
                      "L1 subj=" + std::to_string(f.id) + " k=" + std::to_string(c->id) +
                          " obj=" + std::to_string(other.id),
                      task_cls,
                      {{s_level, Value(1.0)},
                       {s_subject, num(f.id)},
                       {s_constraint, num(c->id)},
                       {s_object, num(other.id)}});
          }
        }
      }
      break;

    default:
      break;
  }
  return d;
}

Decomposition rtf_decomposition(const Scene& scene, int group_size, bool record_cycles) {
  if (group_size < 1) throw std::invalid_argument("group_size must be >= 1");

  auto phase = std::make_shared<const PhaseProgram>(build_rtf_program());
  Decomposition d;
  d.factory.make_engine = [phase, &scene, record_cycles] {
    ops5::EngineConfig options;
    options.record_cycles = record_cycles;
    return phase->make_engine(scene, options);
  };
  d.factory.base_init = [&scene, group_size](Engine& engine) {
    seed_region_wmes(engine, scene, group_size);
  };

  d.spec = rtf_spec(phase->program, scene, group_size);
  const ClassIndex task_cls = spec_class(*phase->program, "rtf-task");
  const SlotIndex s_group = spec_slot(*phase->program, task_cls, "group");

  const std::size_t groups =
      (scene.size() + static_cast<std::size_t>(group_size) - 1) / group_size;
  for (std::size_t g = 0; g < groups; ++g) {
    push_task(d, "RTF group " + std::to_string(g), task_cls,
              {{s_group, Value(static_cast<double>(g))}});
  }
  return d;
}

std::vector<psm::TaskMeasurement> run_baseline(const Decomposition& decomposition) {
  psm::TaskRunner runner(decomposition.factory);
  std::vector<psm::TaskMeasurement> out;
  out.reserve(decomposition.tasks.size());
  for (const auto& task : decomposition.tasks) out.push_back(runner.run(task));
  return out;
}

}  // namespace psmsys::spam
