#pragma once

// Static task-interference analysis — a machine-checked version of the
// paper's Section 5.1 independence claim ("tasks are independent OPS5 runs").
//
// A decomposition is described by a DecompositionSpec: the rule base, a
// classification of its WME classes (base = seeded read-only input; result =
// what the control process merges, with the key slots that give merged WMEs
// their identity; scratch = process-local intermediates that are never
// merged), per-class data facts mined from the actual scene, and the task
// WMEs each task injects.
//
// The checker abstractly interprets every production once globally (joining
// all task injections — the "any colocation" worst case, since task
// processes execute many tasks against one engine and WMEs persist between
// tasks) and once per task. Abstract values are finite value sets refined by
// constant tests, variable bindings, and data facts; binding sites on
// task-written classes use the *global* invariant, so cross-task leakage on
// a shared process is modeled, not assumed away. It then reports:
//
//   * write-write conflicts: two tasks can create/modify/remove result WMEs
//     whose key slots are not provably disjoint — the merge could see
//     schedule-dependent results;
//   * read-write conflicts: a production that writes results in task A
//     matches (positively or via a negation) WMEs another task writes — the
//     result content could depend on colocation.
//
// Guarded idempotent makes are forgiven: a make whose written class also
// appears as a negated CE keyed by the written slots produces at most one
// WME per key with content that is a pure function of the key (given pure
// external functions, see DecompositionSpec), so it is confluent across
// schedules.
//
// Independence is exactly the property that makes PR 1's per-attempt
// undo-log rollback sufficient for retry determinism: if no task reads
// another's writes, a rolled-back-and-retried task recomputes the same
// result WMEs on any process (DESIGN.md "Static analysis").

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ops5/production.hpp"

namespace psmsys::analysis {

// ---------------------------------------------------------------------------
// Abstract values
// ---------------------------------------------------------------------------

/// Over-approximation of the OPS5 values a slot or variable may hold:
/// Bottom (provably none — kills unsatisfiable productions), a finite value
/// set, or Top. Finite sets larger than kMaxFinite widen to Top.
class AbstractVal {
 public:
  enum class Kind : std::uint8_t { Bottom, Finite, Top };

  static constexpr std::size_t kMaxFinite = 4096;

  AbstractVal() : kind_(Kind::Top) {}

  [[nodiscard]] static AbstractVal top() { return AbstractVal(); }
  [[nodiscard]] static AbstractVal bottom();
  [[nodiscard]] static AbstractVal of(const ops5::Value& v);
  [[nodiscard]] static AbstractVal finite(std::vector<ops5::Value> values);

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] bool is_top() const noexcept { return kind_ == Kind::Top; }
  [[nodiscard]] bool is_bottom() const noexcept { return kind_ == Kind::Bottom; }
  [[nodiscard]] bool is_finite() const noexcept { return kind_ == Kind::Finite; }
  [[nodiscard]] const std::vector<ops5::Value>& values() const noexcept { return values_; }
  [[nodiscard]] std::optional<ops5::Value> singleton() const;
  [[nodiscard]] bool contains(const ops5::Value& v) const;

  [[nodiscard]] AbstractVal join(const AbstractVal& o) const;
  [[nodiscard]] AbstractVal meet(const AbstractVal& o) const;

  /// True when the two can share no concrete value (either is Bottom, or
  /// both are finite with empty intersection).
  [[nodiscard]] bool provably_disjoint(const AbstractVal& o) const;

  [[nodiscard]] bool operator==(const AbstractVal& o) const;

  [[nodiscard]] std::string to_string(const ops5::SymbolTable& symbols) const;

 private:
  Kind kind_;
  std::vector<ops5::Value> values_;  ///< sorted set when Finite
};

// ---------------------------------------------------------------------------
// Decomposition specification
// ---------------------------------------------------------------------------

/// One WME a task injects (unlisted slots are nil, as Engine::make_wme).
struct TaskWmeSpec {
  ops5::ClassIndex cls = 0;
  std::vector<std::pair<ops5::SlotIndex, ops5::Value>> slots;
};

struct TaskSpec {
  std::uint64_t task_id = 0;
  std::string label;
  std::vector<TaskWmeSpec> wmes;
};

/// A class the control process merges from task working memories. The key
/// slots give a merged WME its identity (what extract_* dedups/compares on).
struct ResultClassSpec {
  ops5::ClassIndex cls = 0;
  std::vector<ops5::SlotIndex> key_slots;
};

/// Scene-derived invariant: every WME of `cls` whose `guard_slot` equals
/// `guard_value` has each `implied` slot inside the given set. Example:
/// "regions with ^texture mixed have ^id in {7, 19, 44}".
struct DataFact {
  ops5::ClassIndex cls = 0;
  ops5::SlotIndex guard_slot = 0;
  ops5::Value guard_value;
  std::vector<std::pair<ops5::SlotIndex, AbstractVal>> implied;
};

struct DecompositionSpec {
  std::shared_ptr<const ops5::Program> program;
  std::vector<ops5::ClassIndex> base_classes;
  std::vector<ResultClassSpec> result_classes;
  std::vector<ops5::ClassIndex> scratch_classes;
  std::vector<DataFact> facts;
  std::vector<TaskSpec> tasks;
  // Assumed, not checked: external functions are pure (SPAM's geometry
  // externals are functions of the immutable scene and their arguments).

  [[nodiscard]] bool empty() const noexcept { return program == nullptr || tasks.empty(); }
};

// ---------------------------------------------------------------------------
// Interference report
// ---------------------------------------------------------------------------

enum class ConflictKind : std::uint8_t { WriteWrite, ReadWrite, RemoveWrite };

[[nodiscard]] std::string_view conflict_kind_name(ConflictKind k) noexcept;

struct Conflict {
  ConflictKind kind = ConflictKind::WriteWrite;
  ops5::ClassIndex cls = 0;
  std::uint64_t task_a = 0;
  std::uint64_t task_b = 0;
  ops5::Symbol production_a = ops5::kNilSymbol;  ///< kNilSymbol = task injection
  ops5::Symbol production_b = ops5::kNilSymbol;
  std::string detail;
};

struct TaskFootprintSummary {
  std::uint64_t task_id = 0;
  std::size_t activatable_productions = 0;
  std::size_t result_writes = 0;
  std::size_t tracked_reads = 0;
};

struct InterferenceReport {
  std::vector<Conflict> conflicts;
  bool conflicts_truncated = false;  ///< stopped collecting after kMaxConflicts
  std::vector<TaskFootprintSummary> tasks;
  std::size_t pairs_checked = 0;

  static constexpr std::size_t kMaxConflicts = 64;

  [[nodiscard]] bool independent() const noexcept { return conflicts.empty(); }
  [[nodiscard]] std::string summary(const ops5::Program& program) const;
};

/// Check a decomposition for task interference. Sound over-approximation:
/// an `independent()` report certifies that merged results are identical
/// for every assignment of tasks to processes; a conflict is a *possible*
/// interference, pinpointed to the productions involved.
[[nodiscard]] InterferenceReport check_interference(const DecompositionSpec& spec);

}  // namespace psmsys::analysis
