#include "psm/message_passing.hpp"

#include <algorithm>
#include <queue>
#include <stdexcept>

#include "util/rng.hpp"

namespace psmsys::psm {

namespace {

/// Sender-side retransmit timeout (wu) after a lost message.
constexpr double kRetransmitTimeout = 400.0;
/// The timeout multiplies by this per consecutive loss of one message.
constexpr double kRetransmitBackoff = 2.0;
/// A message lost this many times in a row is abandoned and charged one
/// final timeout (the peer is declared unreachable; scheduling proceeds).
constexpr std::size_t kMaxRetransmits = 16;

/// Deterministic message-loss process: whether the `index`th one-way message
/// of the run is lost is a pure function of (seed, index), so a loss
/// schedule replays identically regardless of scheduling order.
class LossProcess {
 public:
  explicit LossProcess(const MessagePassingConfig& config) : config_(config) {}

  [[nodiscard]] bool lost(std::uint64_t index) const noexcept {
    if (config_.loss_rate <= 0.0) return false;
    std::uint64_t state = config_.fault_seed;
    (void)util::splitmix64(state);
    state ^= index * 0x9e3779b97f4a7c15ULL;
    const std::uint64_t x = util::splitmix64(state);
    return static_cast<double>(x >> 11) * 0x1.0p-53 < config_.loss_rate;
  }

  /// Send one one-way message, retransmitting on loss. Returns the stall
  /// (wu) beyond a clean send, updates counters, and advances the global
  /// message index.
  [[nodiscard]] util::WorkUnits send(MessagePassingResult& result) {
    util::WorkUnits stall = 0;
    double timeout = kRetransmitTimeout;
    std::size_t resends = 0;
    while (lost(next_index_++)) {
      ++result.lost_messages;
      stall += static_cast<util::WorkUnits>(timeout);
      if (++resends > kMaxRetransmits) break;  // peer declared unreachable
      ++result.retransmits;
      ++result.messages;
      timeout *= kRetransmitBackoff;
    }
    ++result.messages;
    result.retransmit_stall += stall;
    return stall;
  }

 private:
  const MessagePassingConfig& config_;
  std::uint64_t next_index_ = 0;
};

}  // namespace

double MessagePassingResult::utilization() const noexcept {
  if (makespan == 0 || busy.empty()) return 0.0;
  double total = 0.0;
  for (auto b : busy) total += static_cast<double>(b);
  return total / (static_cast<double>(makespan) * static_cast<double>(busy.size()));
}

MessagePassingResult simulate_message_passing(std::span<const util::WorkUnits> task_costs,
                                              const MessagePassingConfig& config) {
  if (config.workers == 0) throw std::invalid_argument("need >= 1 worker");

  MessagePassingResult result;
  result.busy.assign(config.workers, 0);
  LossProcess loss(config);

  // Per-task fixed messaging work seen by the worker (marshal always; flight
  // time only when results are synchronous).
  const util::WorkUnits result_flight = config.async_results ? 0 : config.message_latency;

  if (config.distribution == Distribution::Static) {
    // Round-robin pre-assignment: one bulk task-list message per worker up
    // front (latency paid once, overlapped across workers), then each node
    // runs its share and sends results. A lost assignment message delays
    // that node's whole share; a lost (async) result message costs its
    // sender the retransmit stall when the timeout fires.
    std::vector<util::WorkUnits> finish(config.workers, 0);
    for (std::size_t w = 0; w < config.workers; ++w) {
      finish[w] = config.message_latency + config.marshal_cost + loss.send(result);
    }
    for (std::size_t i = 0; i < task_costs.size(); ++i) {
      const std::size_t w = i % config.workers;
      const util::WorkUnits send_stall = loss.send(result);
      const util::WorkUnits task_time =
          task_costs[i] + config.marshal_cost + result_flight + send_stall;
      finish[w] += task_time;
      result.busy[w] += task_costs[i] + config.marshal_cost;
      result.network_stall += result_flight + send_stall;
    }
    for (const auto f : finish) result.makespan = std::max(result.makespan, f);
    return result;
  }

  // Dynamic: a request/reply round trip fetches each task from the control
  // node. The worker stalls for 2 x latency + marshalling per fetch, plus
  // any loss-recovery timeouts on either leg, plus loss recovery on its
  // result send.
  using Slot = std::pair<util::WorkUnits, std::size_t>;
  std::priority_queue<Slot, std::vector<Slot>, std::greater<>> free_at;
  for (std::size_t w = 0; w < config.workers; ++w) free_at.emplace(0, w);

  for (const util::WorkUnits cost : task_costs) {
    auto [t, w] = free_at.top();
    free_at.pop();
    const util::WorkUnits request_stall = loss.send(result);  // request leg
    const util::WorkUnits reply_stall = loss.send(result);    // reply leg
    const util::WorkUnits result_stall = loss.send(result);   // result message
    const util::WorkUnits fetch_stall =
        2 * config.message_latency + 2 * config.marshal_cost + request_stall + reply_stall;
    const util::WorkUnits send_time =
        config.marshal_cost + result_flight + result_stall;
    result.busy[w] += cost + config.marshal_cost;
    result.network_stall += fetch_stall + result_flight + result_stall;
    free_at.emplace(t + fetch_stall + cost + send_time, w);
  }
  while (!free_at.empty()) {
    result.makespan = std::max(result.makespan, free_at.top().first);
    free_at.pop();
  }
  return result;
}

}  // namespace psmsys::psm
