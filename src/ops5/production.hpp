#pragma once

// Productions: left-hand-side condition elements and right-hand-side actions,
// plus the Program container that holds a complete parsed OPS5 system.

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "ops5/value.hpp"
#include "ops5/wme.hpp"

namespace psmsys::ops5 {

/// Interned LHS variable (the `<x>` in OPS5 source), scoped to a production.
using VariableId = std::uint32_t;

/// 1-based source position recorded by the parser. Productions and condition
/// elements built programmatically (the SPAM generators construct source text
/// first, so they get real positions too) default to unknown.
struct SourceLoc {
  int line = 0;
  int column = 0;

  [[nodiscard]] bool known() const noexcept { return line > 0; }
};

/// One attribute test inside a condition element, e.g. `^elong > 6`,
/// `^region <r>`, or the OPS5 value disjunction `^class << runway taxiway >>`.
struct AttrTest {
  SlotIndex slot = 0;
  Predicate pred = Predicate::Eq;
  bool is_variable = false;
  Value constant;                  ///< valid when !is_variable and no disjunction
  VariableId var = 0;              ///< valid when is_variable
  std::vector<Value> disjunction;  ///< non-empty: slot must equal one of these

  [[nodiscard]] bool is_disjunction() const noexcept { return !disjunction.empty(); }
};

/// True iff `v` satisfies a (non-variable) test.
[[nodiscard]] inline bool constant_test_passes(const AttrTest& test, const Value& v) noexcept {
  if (test.is_disjunction()) {
    for (const auto& alt : test.disjunction) {
      if (v == alt) return true;
    }
    return false;
  }
  return apply_predicate(test.pred, v, test.constant);
}

/// A condition element: a pattern over one WME class, possibly negated.
struct ConditionElement {
  ClassIndex cls = 0;
  Symbol class_name = kNilSymbol;
  bool negated = false;
  std::vector<AttrTest> tests;
  SourceLoc loc;  ///< position of the CE's class symbol in the source
};

// ---------------------------------------------------------------------------
// RHS expressions and actions
// ---------------------------------------------------------------------------

struct Expr;

/// Call of a registered external function (SPAM's geometric computations are
/// reached this way, mirroring the paper's "RHS evaluation outside OPS5").
struct CallExpr {
  Symbol function = kNilSymbol;
  std::vector<Expr> args;
};

/// The arithmetic operators of `(compute ...)`. The parser makes each one a
/// CallExpr of the operator's symbol; the engine (unless an external of that
/// name is registered) and the interference checker evaluate it here.
enum class ArithOp : std::uint8_t { Add, Sub, Mul, Div, Mod };

/// The operator spelled `name` (`+ - * // mod`), or nullopt.
[[nodiscard]] std::optional<ArithOp> arith_op(std::string_view name) noexcept;

/// `a op b`, or nullopt for `//` or `mod` by zero. `//` truncates toward
/// zero (`-7 // 2` is -3) and `mod` takes the divisor's sign (`-7 mod 3`
/// is 2).
[[nodiscard]] std::optional<double> apply_arith(ArithOp op, double a, double b) noexcept;

struct VarRef {
  VariableId var = 0;
};

struct Expr {
  std::variant<Value, VarRef, CallExpr> node;

  Expr() : node(Value{}) {}
  explicit Expr(Value v) : node(v) {}
  explicit Expr(VarRef v) : node(v) {}
  explicit Expr(CallExpr c) : node(std::move(c)) {}
};

/// `(make class ^attr expr ...)`
struct MakeAction {
  ClassIndex cls = 0;
  std::vector<std::pair<SlotIndex, Expr>> sets;
};

/// `(modify <ce> ^attr expr ...)` — 1-based CE index into the LHS.
struct ModifyAction {
  std::uint32_t ce_index = 1;
  std::vector<std::pair<SlotIndex, Expr>> sets;
};

/// `(remove <ce>)`
struct RemoveAction {
  std::uint32_t ce_index = 1;
};

/// `(bind <var> expr)`
struct BindAction {
  VariableId var = 0;
  Expr expr;
};

/// `(write expr ...)`
struct WriteAction {
  std::vector<Expr> exprs;
};

/// `(halt)`
struct HaltAction {};

using Action =
    std::variant<MakeAction, ModifyAction, RemoveAction, BindAction, WriteAction, HaltAction>;

// ---------------------------------------------------------------------------
// Production and Program
// ---------------------------------------------------------------------------

class Production {
 public:
  Production(Symbol name, std::vector<ConditionElement> lhs, std::vector<Action> rhs);

  [[nodiscard]] Symbol name() const noexcept { return name_; }
  [[nodiscard]] std::span<const ConditionElement> lhs() const noexcept { return lhs_; }
  [[nodiscard]] std::span<const Action> rhs() const noexcept { return rhs_; }

  /// Number of positive (matchable) CEs; instantiations carry this many WMEs.
  [[nodiscard]] std::size_t positive_ce_count() const noexcept { return positive_ces_; }

  /// Total number of attribute tests — OPS5 LEX/MEA specificity measure.
  [[nodiscard]] std::size_t specificity() const noexcept { return specificity_; }

  /// Index assigned by the owning Program.
  [[nodiscard]] std::uint32_t id() const noexcept { return id_; }

  /// Source position of the production name (unknown when built in memory).
  [[nodiscard]] SourceLoc location() const noexcept { return loc_; }
  void set_location(SourceLoc loc) noexcept { loc_ = loc; }

 private:
  friend class Program;
  Symbol name_;
  std::vector<ConditionElement> lhs_;
  std::vector<Action> rhs_;
  std::size_t positive_ces_ = 0;
  std::size_t specificity_ = 0;
  std::uint32_t id_ = 0;
  SourceLoc loc_;
};

/// A complete OPS5 system: symbols, class declarations, productions, and the
/// names of the variables used (for tracing). Programs are immutable after
/// freeze() and shared (shared_ptr) across PSM task processes.
class Program {
 public:
  Program() = default;

  [[nodiscard]] SymbolTable& symbols() noexcept { return symbols_; }
  [[nodiscard]] const SymbolTable& symbols() const noexcept { return symbols_; }

  /// Declare a WME class. Throws on duplicate or if frozen.
  ClassIndex declare_class(std::string_view name, std::span<const std::string_view> attributes);

  [[nodiscard]] std::optional<ClassIndex> class_index(Symbol name) const noexcept;
  [[nodiscard]] const WmeClass& wme_class(ClassIndex i) const { return classes_.at(i); }
  [[nodiscard]] std::size_t class_count() const noexcept { return classes_.size(); }

  /// Intern a variable name (without angle brackets); per-program scope.
  VariableId intern_variable(std::string_view name);
  [[nodiscard]] const std::string& variable_name(VariableId v) const;
  [[nodiscard]] std::size_t variable_count() const noexcept { return variable_names_.size(); }

  void add_production(Production p);
  [[nodiscard]] std::span<const Production> productions() const noexcept { return productions_; }
  [[nodiscard]] const Production* find_production(Symbol name) const noexcept;

  /// Rule-pack identity for versioned loading (the `(pack name version)`
  /// source directive). Purely metadata: admission verdicts and the serve
  /// admin surface label packs with it. Throws if frozen.
  void set_pack(std::string name, std::string version);
  [[nodiscard]] const std::string& pack_name() const noexcept { return pack_name_; }
  [[nodiscard]] const std::string& pack_version() const noexcept { return pack_version_; }

  void freeze();
  [[nodiscard]] bool frozen() const noexcept { return frozen_; }

 private:
  SymbolTable symbols_;
  std::vector<WmeClass> classes_;
  std::vector<Production> productions_;
  std::vector<std::string> variable_names_;
  std::unordered_map<std::string, VariableId> variable_ids_;
  std::unordered_map<std::uint32_t, ClassIndex> class_by_symbol_;
  std::string pack_name_;
  std::string pack_version_;
  bool frozen_ = false;
};

}  // namespace psmsys::ops5
