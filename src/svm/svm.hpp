#pragma once

// Shared-virtual-memory (network shared memory) cluster model — Section 7.
//
// The paper joined two 16-processor Encore Multimaxes with the MACH shared
// memory server: a page-granular shared virtual address space with ~50 ms
// network latency per remote fault. We model exactly the economics that
// produced Figure 9:
//
//  * Task processes on the first node touch only local memory.
//  * Task processes on the second node take network page faults on the
//    central task queue page and on every shared page their task's working
//    set churns (the paper's "translational effect ... equivalent to the
//    loss of about 1.5 processors").
//  * False contention (two nodes touching distinct objects on one page)
//    multiplies the fault count; with naive data-structure placement this
//    "brought our system to a halt just during the initialization".
//  * The netmemory server's diff-shipping optimization (ship modified
//    64-byte segments instead of full 8K pages) divides the per-fault cost.
//
// A task's working-set page count is estimated from its measured WME churn;
// everything else is scheduling, shared with the TLP simulator.
//
// Degraded-condition extensions (all default-off, reproducing the healthy
// cluster exactly):
//  * Fault storm — for a window of virtual time after start, remote faults
//    multiply by `storm_factor`: the paper's "brought our system to a halt
//    just during the initialization" as a transient rather than a constant.
//  * Node failure — the second Encore drops off the network at
//    `node1_fails_at`: its processors take no further tasks, the task each
//    one was running is lost mid-flight and re-executed on a survivor, and
//    the wasted partial work plus the re-execution are charged. This is the
//    cluster analog of the dead-worker recovery in robust psm::run.

#include <cstdint>
#include <span>
#include <vector>

#include "psm/task.hpp"
#include "util/work_units.hpp"

namespace psmsys::svm {

/// Cost of one remote page fault shipping a full 8K page (~50 ms network
/// latency, Forin et al.).
inline constexpr util::WorkUnits kFullPageFaultCost = 3200;
/// Cost when the server ships only modified 64-byte segments.
inline constexpr util::WorkUnits kDiffFaultCost = 900;

struct SvmConfig {
  /// Usable task processors per node. The paper could use 13 on the first
  /// Encore and 9 on the second (MACH + netmemory server occupy the rest).
  std::size_t node0_procs = 13;
  std::size_t node1_procs = 9;

  /// Ship modified segments (kDiffFaultCost) rather than full pages
  /// (kFullPageFaultCost) on a remote fault.
  bool diff_shipping = true;

  /// Multiplier on the remote fault count from false contention — distinct
  /// objects of different nodes sharing pages. 1.0 = data structures laid
  /// out per-node (the paper's fix); large values reproduce the initial
  /// behaviour where faulting halted the system.
  double false_sharing_factor = 1.0;

  /// Shared WME-sized records per 8K page (sets pages-per-task).
  std::size_t items_per_page = 32;

  /// Local queue-pop/task-init overhead (same as the TLP simulator).
  util::WorkUnits queue_overhead_per_task = 40;

  // ---- degraded-condition knobs (defaults = healthy cluster) ----

  /// Remote-fault multiplier during the storm window (>= 1).
  double storm_factor = 1.0;
  /// Virtual time (wu) at which the fault storm subsides; 0 = no storm.
  util::WorkUnits storm_until = 0;
  /// Virtual time (wu) at which node 1 fails; 0 = never. Tasks running on
  /// node 1 at that moment are lost and re-executed on node 0.
  util::WorkUnits node1_fails_at = 0;
};

struct SvmSimResult {
  util::WorkUnits makespan = 0;
  std::vector<util::WorkUnits> busy;     ///< per processor
  std::uint64_t remote_faults = 0;
  util::WorkUnits remote_fault_cost = 0; ///< total wu spent faulting
  std::uint64_t storm_extra_faults = 0;  ///< faults attributable to the storm window
  std::size_t failed_procs = 0;          ///< processors lost to node failure
  std::uint64_t reexecuted_tasks = 0;    ///< tasks lost mid-flight and rerun
  util::WorkUnits wasted_work = 0;       ///< partial work lost with the node
};

/// Estimated shared pages a task's execution churns (its WME adds/removes
/// plus the task-queue entry).
[[nodiscard]] std::uint64_t task_pages(const psm::TaskMeasurement& task, const SvmConfig& config);

/// Schedule tasks over `total_procs` processors spread over the two nodes
/// (first node0_procs on node 0, remainder on node 1; capped at
/// node0+node1). FIFO queue order, list scheduling.
[[nodiscard]] SvmSimResult simulate_svm(std::span<const psm::TaskMeasurement> tasks,
                                        std::size_t total_procs, const SvmConfig& config);

}  // namespace psmsys::svm
