#pragma once

// Message-passing execution model — the paper's Section 9 future work:
// "we are currently investigating implementations on message-passing
// computers [Acharya & Tambe 1989]".
//
// On a message-passing machine there is no central shared task queue. Two
// distribution strategies are modeled, both scheduling the same measured
// task costs the shared-memory models use:
//
//  * STATIC: the control node pre-assigns tasks round-robin; workers never
//    talk to the controller again until the final result message. No
//    per-task latency, but no load balancing — the outlier tasks (tail-end
//    effect) hurt whichever node drew them.
//  * DYNAMIC: workers request tasks one at a time (request + reply = one
//    round trip per task) and ship results back. Load balances like the
//    shared queue, but every task pays the network round trip — the
//    granularity question of Section 4 returns with a bigger overhead
//    constant.
//
// The crossover between the two as a function of message latency and task
// granularity is the design space of the cited follow-up work.
//
// Unlike the Encore's shared bus, a network drops messages. The model
// includes a deterministic, seeded loss process: each one-way message is
// lost with probability `loss_rate`; the sender notices after a timeout and
// retransmits, with the timeout doubling per consecutive loss (exponential
// backoff). Loss economics let the speedup-vs-loss-rate curves of
// bench_fault_tolerance show how much degradation the task granularity can
// absorb before the TLP argument collapses.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "psm/task.hpp"
#include "util/work_units.hpp"

namespace psmsys::psm {

enum class Distribution : std::uint8_t { Static, Dynamic };

struct MessagePassingConfig {
  std::size_t workers = 14;
  Distribution distribution = Distribution::Dynamic;
  /// One-way message latency (wu). The paper's SVM reports ~50 ms faults;
  /// message-passing machines of the era were an order of magnitude better
  /// per (small) message.
  util::WorkUnits message_latency = 120;
  /// Cost of serializing a task description / result, charged per message.
  util::WorkUnits marshal_cost = 20;
  /// The result message per task is sent asynchronously; only its sending
  /// cost stalls the worker, not the flight time.
  bool async_results = true;

  // ---- fault model (defaults reproduce the perfect-network behaviour) ----

  /// Probability a one-way message is lost in flight. Deterministic given
  /// `fault_seed`: the nth message of the run is lost iff its seeded draw
  /// falls below this rate.
  double loss_rate = 0.0;
  std::uint64_t fault_seed = 0x5eed5eedULL;
};

struct MessagePassingResult {
  util::WorkUnits makespan = 0;
  std::vector<util::WorkUnits> busy;   ///< per worker, excluding stalls
  std::uint64_t messages = 0;
  util::WorkUnits network_stall = 0;   ///< total worker time spent waiting
  std::uint64_t lost_messages = 0;     ///< messages the seeded loss process dropped
  std::uint64_t retransmits = 0;       ///< resends after timeout
  util::WorkUnits retransmit_stall = 0;  ///< stall attributable to loss recovery

  [[nodiscard]] double utilization() const noexcept;
};

/// Schedule measured task costs over `workers` message-passing nodes.
[[nodiscard]] MessagePassingResult simulate_message_passing(
    std::span<const util::WorkUnits> task_costs, const MessagePassingConfig& config);

}  // namespace psmsys::psm
