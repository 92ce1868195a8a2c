#include "spam/programs.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "spam/constraints.hpp"
#include "spam/fragment.hpp"

namespace psmsys::spam {

namespace {

using ops5::ExternalContext;
using ops5::Value;

/// Fragment-id arithmetic shared with fragment.hpp: id = region*16 + ord + 1.
[[nodiscard]] std::string frag_id_expr(RegionClass cls) {
  return "(compute <r> * 16 + " +
         std::to_string(static_cast<std::uint32_t>(cls) + 1) + ")";
}

/// One RTF classification rule from an abstraction CE to a fragment. Each
/// classification runs a geometric verification outside OPS5 (the paper's
/// "linear alignment in region-to-fragment (RTF) phase" top-down activity),
/// which contributes the RTF phase's ~40% non-match time.
void emit_classifier(std::ostream& os, std::string_view rule, std::string_view abstraction_ce,
                     RegionClass cls, std::string_view score_expr) {
  os << "(p rtf-" << rule << "\n"
     << "   " << abstraction_ce << "\n"
     << "   -(fragment ^region <r> ^class " << class_name(cls) << ")\n"
     << "   -->\n"
     << "   (make fragment ^id " << frag_id_expr(cls) << " ^region <r> ^class "
     << class_name(cls) << " ^score (compute " << score_expr
     << " + (call geom-rtf-verify <r>))))\n\n";
}

}  // namespace

// ---------------------------------------------------------------------------
// RTF: heuristic classification (region -> abstraction -> fragment).
// ---------------------------------------------------------------------------

std::string rtf_source() {
  std::ostringstream os;
  os << R"((literalize region id group texture area elong compact orient)
(literalize linear region elong area)
(literalize blob region area compact)
(literalize building region elong area)
(literalize fragment id region class score best)
(literalize rtf-task group)

; --- Abstraction rules: the first classification stage groups regions into
; --- shape categories, as SPAM's region-to-fragment mapping does.
(p rtf-abstract-linear
   (rtf-task ^group <g>)
   (region ^group <g> ^id <r> ^texture paved ^elong { > 15 <e> } ^area <a>)
   -(linear ^region <r>)
   -->
   (make linear ^region <r> ^elong <e> ^area <a>))

(p rtf-abstract-blob
   (rtf-task ^group <g>)
   (region ^group <g> ^id <r> ^texture paved ^elong { < 3 <e> } ^area <a> ^compact <c>)
   -(blob ^region <r>)
   -->
   (make blob ^region <r> ^area <a> ^compact <c>))

(p rtf-abstract-building
   (rtf-task ^group <g>)
   (region ^group <g> ^id <r> ^texture roofed ^elong <e> ^area <a>)
   -(building ^region <r>)
   -->
   (make building ^region <r> ^elong <e> ^area <a>))

)";

  // --- Linear classifiers.
  emit_classifier(os, "runway", "(linear ^region <r> ^elong <e> ^area > 100000)",
                  RegionClass::Runway, "(compute 50 + <e>)");
  emit_classifier(os, "taxiway",
                  "(linear ^region <r> ^elong <e> ^area { > 10000 < 100000 })",
                  RegionClass::Taxiway, "(compute 40 + <e>)");
  emit_classifier(os, "access-road", "(linear ^region <r> ^elong <e> ^area < 10000)",
                  RegionClass::AccessRoad, "55");

  // --- Building classifiers (ambiguous band: 2 < elong < 3, 8k < area < 14k).
  emit_classifier(os, "terminal", "(building ^region <r> ^elong { > 2 < 8 } ^area > 8000)",
                  RegionClass::TerminalBuilding, "60");
  emit_classifier(os, "hangar", "(building ^region <r> ^elong < 3 ^area < 14000)",
                  RegionClass::Hangar, "(compute 62 - (compute <r> mod 5))");

  // --- Blob classifiers (ambiguous band: 25k < area < 60k tarmac vs lot).
  emit_classifier(os, "apron", "(blob ^region <r> ^area > 150000)", RegionClass::ParkingApron,
                  "65");
  emit_classifier(os, "tarmac", "(blob ^region <r> ^area { > 25000 < 160000 <a> })",
                  RegionClass::Tarmac, "(compute 40 + (compute <a> // 4000))");
  emit_classifier(os, "parking-lot", "(blob ^region <r> ^area { > 4000 < 60000 <a> })",
                  RegionClass::ParkingLot, "(compute 70 - (compute <a> // 3000))");

  os << R"(
; --- Grass: texture is decisive.
(p rtf-grass
   (rtf-task ^group <g>)
   (region ^group <g> ^id <r> ^texture grass)
   -(fragment ^region <r> ^class grassy-area)
   -->
   (make fragment ^id (compute <r> * 16 + 7) ^region <r> ^class grassy-area
         ^score (compute 80 + (call geom-rtf-verify <r>))))

; --- Weak fallback for mixed-texture regions (possible tarmac).
(p rtf-tarmac-weak
   (rtf-task ^group <g>)
   (region ^group <g> ^id <r> ^texture mixed ^elong < 2 ^area > 20000)
   -(fragment ^region <r>)
   -->
   (make fragment ^id (compute <r> * 16 + 8) ^region <r> ^class tarmac
         ^score (compute 25 + (call geom-rtf-verify <r>))))

; --- Note: best-hypothesis disambiguation happens in the control process at
; --- result-collection time (extract_fragments): an in-engine winner rule
; --- would race classification under LEX recency, crowning a hypothesis
; --- before its rivals exist.
)";
  return os.str();
}

// ---------------------------------------------------------------------------
// LCC: constraint satisfaction with explicit task WMEs at 4 levels.
// ---------------------------------------------------------------------------

std::string lcc_source() {
  std::ostringstream os;
  os << R"((literalize fragment id region class score best)
(literalize constraint id name subject-class object-class)
(literalize lcc-task level subject-class subject constraint object)
(literalize consistency constraint subject object result counted)
(literalize relation name subject object weight)
(literalize support subject count)
(literalize context subject class strength)

)";

  // --- Constraint application. Real SPAM assembled "a large collection of
  // such consistency knowledge" as per-constraint productions; we generate
  // one production per (catalog constraint, decomposition level), with the
  // constraint's classes baked into the LHS, plus one relation-recording
  // production per constraint. The task WME is "just a working memory
  // element, which initializes the production system of the process"
  // (Section 5.1). Matched combinations are unique and immutable, so OPS5
  // refraction guarantees exactly one application per component.
  for (const auto& c : constraint_catalog()) {
    const std::string subject(class_name(c.subject));
    const std::string object(class_name(c.object));
    const std::string id = std::to_string(c.id);
    const std::string make_consistency =
        "   (make consistency ^constraint " + id +
        " ^subject <s> ^object <o>\n"
        "         ^result (call geom-check " + id + " <sr> <or>)))\n\n";
    const std::string object_ce =
        "   (fragment ^id { <o> <> <s> } ^class " + object + " ^region <or> ^best yes)\n";

    os << "(p lcc-l4-" << c.name << "\n"
       << "   (lcc-task ^level 4 ^subject-class " << subject << ")\n"
       << "   (fragment ^id <s> ^class " << subject << " ^region <sr> ^best yes)\n"
       << object_ce << "   -->\n" << make_consistency;

    os << "(p lcc-l3-" << c.name << "\n"
       << "   (lcc-task ^level 3 ^subject <s>)\n"
       << "   (fragment ^id <s> ^class " << subject << " ^region <sr>)\n"
       << object_ce << "   -->\n" << make_consistency;

    os << "(p lcc-l2-" << c.name << "\n"
       << "   (lcc-task ^level 2 ^subject <s> ^constraint " << id << ")\n"
       << "   (fragment ^id <s> ^class " << subject << " ^region <sr>)\n"
       << object_ce << "   -->\n" << make_consistency;

    os << "(p lcc-l1-" << c.name << "\n"
       << "   (lcc-task ^level 1 ^subject <s> ^constraint " << id << " ^object <o>)\n"
       << "   (fragment ^id <s> ^class " << subject << " ^region <sr>)\n"
       << "   (fragment ^id <o> ^class " << object << " ^region <or>)\n"
       << "   -->\n" << make_consistency;

    // Record the named spatial relation for positive results (consumed by
    // downstream interpretation; adds the constraint-specific depth real
    // SPAM's consistency knowledge had).
    os << "(p lcc-relate-" << c.name << "\n"
       << "   (consistency ^constraint " << id << " ^subject <s> ^object <o> ^result 1)\n"
       << "   (fragment ^id <s> ^score <ss>)\n"
       << "   (fragment ^id <o> ^score <os>)\n"
       << "   -->\n"
       << "   (make relation ^name " << c.name << " ^subject <s> ^object <o>\n"
       << "         ^weight (compute <ss> + <os>)))\n\n";
  }

  os << R"(

; --- Context formation: mutually consistent hypotheses accumulate support;
; --- sufficient support creates an interpretation context (Section 2.2).
; --- The control process seeds a zero-count support WME per fragment with
; --- the base working memory.
(p lcc-support-count
   (support ^subject <s> ^count <c>)
   (consistency ^subject <s> ^result 1 ^counted nil)
   -->
   (modify 2 ^counted yes)
   (modify 1 ^count (compute <c> + 1)))

(p lcc-context
   (support ^subject <s> ^count { <n> >= 2 })
   (fragment ^id <s> ^class <sc>)
   -(context ^subject <s>)
   -->
   (make context ^subject <s> ^class <sc> ^strength <n>))

(p lcc-context-strengthen
   (context ^subject <s> ^strength <old>)
   (support ^subject <s> ^count { <n> > <old> })
   -->
   (modify 1 ^strength <n>))
)";
  return os.str();
}

// ---------------------------------------------------------------------------
// FA: functional-area aggregation.
// ---------------------------------------------------------------------------

std::string fa_source() {
  // The functional-area WME is immutable; its mutable member count lives in
  // a separate fa-size WME. This keeps fa-probe instantiations stable (no
  // re-probing — and no re-charging of geometry — when an area grows).
  return R"((literalize fragment id region class score best)
(literalize context subject class strength)
(literalize fa-task class)
(literalize functional-area id region class)
(literalize fa-size fa count)
(literalize fa-near fa fragment result)
(literalize fa-member fa fragment)

; --- Seed one functional area per class from the strongest contexts.
(p fa-seed
   (fa-task ^class <c>)
   (context ^subject <s> ^class <c> ^strength > 2)
   (fragment ^id <s> ^region <r> ^best yes)
   -(functional-area ^class <c>)
   -->
   (make functional-area ^id <s> ^region <r> ^class <c>)
   (make fa-size ^fa <s> ^count 1)
   (make fa-member ^fa <s> ^fragment <s>))

; --- Probe spatial proximity of other contexts to the functional area. The
; --- geometry runs outside OPS5 (FA "spends much of its time doing RHS
; --- evaluation outside of OPS5", Section 2.2). All matched WMEs are
; --- immutable, so refraction gives exactly one probe per pair.
(p fa-probe
   (functional-area ^id <f> ^region <fr> ^class <c>)
   (context ^subject <s> ^class <c> ^strength > 2)
   (fragment ^id { <s> <> <f> } ^region <sr>)
   -(fa-member ^fragment <s>)
   -->
   (make fa-near ^fa <f> ^fragment <s> ^result (call geom-fa-near <fr> <sr>)))

(p fa-join
   (fa-near ^fa <f> ^fragment <s> ^result 1)
   (fa-size ^fa <f> ^count <z>)
   -(fa-member ^fragment <s>)
   -->
   (make fa-member ^fa <f> ^fragment <s>)
   (modify 2 ^count (compute <z> + 1)))

; --- Contexts rejected by every nearby area seed secondary areas.
(p fa-seed-secondary
   (fa-near ^fa <f> ^fragment <s> ^result 0)
   (context ^subject <s> ^class <c> ^strength > 2)
   (fragment ^id <s> ^region <r>)
   -(fa-member ^fragment <s>)
   -(functional-area ^id <s>)
   -->
   (make functional-area ^id <s> ^region <r> ^class <c>)
   (make fa-size ^fa <s> ^count 1)
   (make fa-member ^fa <s> ^fragment <s>))
)";
}

// ---------------------------------------------------------------------------
// MODEL: scene-model assembly over functional areas.
// ---------------------------------------------------------------------------

std::string model_source() {
  // The model WME is immutable (like functional-area in the FA phase); the
  // running score lives in a model-score WME and members carry a counted
  // flag, so admissions never re-instantiate and scoring is linear.
  return R"((literalize functional-area id region class size)
(literalize model-task go)
(literalize model id)
(literalize model-score model score areas)
(literalize model-member model fa verified counted)

(p model-init
   (model-task ^go yes)
   -(model)
   -->
   (make model ^id 1)
   (make model-score ^model 1 ^score 0 ^areas 0))

; --- Every sufficiently large functional area is admitted after (simulated)
; --- stereo verification, an external geometric computation.
(p model-admit
   (model ^id <m>)
   (functional-area ^id <f> ^region <r> ^size >= 1)
   -(model-member ^model <m> ^fa <f>)
   -->
   (make model-member ^model <m> ^fa <f> ^verified (call geom-verify <r>)))

(p model-score-verified
   (model-member ^model <m> ^fa <f> ^verified 1 ^counted nil)
   (functional-area ^id <f> ^region <r>)
   (model-score ^model <m> ^score <sc> ^areas <n>)
   -->
   (modify 1 ^counted yes)
   (modify 3 ^score (compute <sc> + (call geom-fa-score <r>)) ^areas (compute <n> + 1)))
)";
}

const std::vector<PhaseSpec>& phase_specs() {
  static const std::vector<PhaseSpec> phases = {
      {"rtf", rtf_source, {"region", "rtf-task"}, {"fragment"}},
      // relation WMEs are write-only inside LCC by design: they record the
      // named spatial relations for downstream interpretation, so they are
      // phase outputs even though only contexts/consistency are re-seeded.
      {"lcc",
       lcc_source,
       {"fragment", "constraint", "support", "lcc-task"},
       {"context", "consistency", "relation"}},
      {"fa", fa_source, {"fragment", "context", "fa-task"}, {"functional-area", "fa-size"}},
      {"model", model_source, {"functional-area", "model-task"}, {"model"}},
  };
  return phases;
}

const PhaseSpec* phase_spec(std::string_view name) {
  for (const PhaseSpec& phase : phase_specs()) {
    if (name == phase.name) return &phase;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// External registration and program construction
// ---------------------------------------------------------------------------

namespace {

[[nodiscard]] std::uint32_t arg_region(std::span<const Value> args, std::size_t i) {
  return static_cast<std::uint32_t>(args[i].number());
}

void register_geometry(ops5::ExternalRegistry& registry, ops5::SymbolTable& symbols) {
  registry.register_function(
      symbols, "geom-check", [](std::span<const Value> args, ExternalContext& ctx) {
        const auto& scene = ctx.user_data_as<const Scene>();
        const auto k = static_cast<std::uint32_t>(args[0].number());
        const auto catalog = constraint_catalog();
        const auto result =
            evaluate_constraint(catalog[k], scene, arg_region(args, 1), arg_region(args, 2));
        ctx.charge_flops(result.flops);
        return Value(result.value ? 1.0 : 0.0);
      });
  registry.register_function(
      symbols, "geom-fa-near", [](std::span<const Value> args, ExternalContext& ctx) {
        const auto& scene = ctx.user_data_as<const Scene>();
        const auto& a = scene.at(arg_region(args, 0));
        const auto& b = scene.at(arg_region(args, 1));
        const auto result = geom::near(a.polygon, b.polygon, 2800.0);
        // FA proximity is a composite check in SPAM: centroid distance plus
        // a boundary sweep over a bounded working resolution (oversized
        // regions are subsampled, so giants do not dominate the phase).
        const std::size_t verts = std::min<std::size_t>(a.polygon.size() + b.polygon.size(), 48);
        ctx.charge_flops(result.flops + 10 * verts);
        return Value(result.value ? 1.0 : 0.0);
      });
  registry.register_function(
      symbols, "geom-fa-score", [](std::span<const Value> args, ExternalContext& ctx) {
        const auto& scene = ctx.user_data_as<const Scene>();
        const auto& region = scene.at(arg_region(args, 0));
        ctx.charge_flops(6 * region.polygon.size());
        return Value(std::round(region.polygon.area() / 1000.0));
      });
  registry.register_function(
      symbols, "geom-rtf-verify", [](std::span<const Value> args, ExternalContext& ctx) {
        // Linear-alignment verification of a fresh hypothesis: a boundary
        // sweep over the region polygon; returns a small score bonus.
        const auto& scene = ctx.user_data_as<const Scene>();
        const auto& region = scene.at(arg_region(args, 0));
        ctx.charge_flops(12 * region.polygon.size());
        const double bonus = std::fmod(region.polygon.orientation_angle() * 10.0, 5.0);
        return Value(std::round(bonus));
      });
  registry.register_function(
      symbols, "geom-verify", [](std::span<const Value> args, ExternalContext& ctx) {
        // Stereo-verification stand-in: a second expensive pass over the
        // polygon (Section 2.2's top-down activity).
        const auto& scene = ctx.user_data_as<const Scene>();
        const auto& region = scene.at(arg_region(args, 0));
        ctx.charge_flops(40 * std::min<std::size_t>(region.polygon.size(), 64));
        return Value(region.polygon.area() > 500.0 ? 1.0 : 0.0);
      });
}

/// The seeding helpers (phases.cpp) reference domain symbols that may not
/// appear literally in a phase's rule text; intern them all up front so the
/// frozen symbol table is complete.
void intern_domain_symbols(ops5::SymbolTable& symbols) {
  for (std::size_t i = 0; i < kRegionClassCount; ++i) {
    symbols.intern(class_name(static_cast<RegionClass>(i)));
  }
  for (const auto t : {Texture::Paved, Texture::Roofed, Texture::Grass, Texture::Mixed}) {
    symbols.intern(texture_name(t));
  }
  for (const auto& c : constraint_catalog()) symbols.intern(c.name);
  symbols.intern("yes");
}

[[nodiscard]] PhaseProgram build_phase(const std::string& source) {
  auto program = std::make_shared<ops5::Program>();
  ops5::parse_into(*program, source);
  intern_domain_symbols(program->symbols());
  auto registry = std::make_shared<ops5::ExternalRegistry>();
  register_geometry(*registry, program->symbols());
  program->freeze();
  return PhaseProgram{program, registry, std::make_shared<const rete::CompiledNetwork>(*program)};
}

/// The phase's one bundle, built on first use.
template <std::string (*Source)()>
[[nodiscard]] const PhaseProgram& phase_bundle() {
  static const PhaseProgram phase = build_phase(Source());
  return phase;
}

}  // namespace

std::unique_ptr<ops5::Engine> PhaseProgram::make_engine(const Scene& scene,
                                                        ops5::EngineConfig options) const {
  auto engine = std::make_unique<ops5::Engine>(program, network, externals.get(), options);
  // Engines never mutate the scene; externals read polygons only.
  engine->set_user_data(const_cast<Scene*>(&scene));
  return engine;
}

PhaseProgram build_rtf_program() { return phase_bundle<rtf_source>(); }
PhaseProgram build_lcc_program() { return phase_bundle<lcc_source>(); }
PhaseProgram build_fa_program() { return phase_bundle<fa_source>(); }
PhaseProgram build_model_program() { return phase_bundle<model_source>(); }

}  // namespace psmsys::spam
