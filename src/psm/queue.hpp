#pragma once

// The central task queue of SPAM/PSM (Figure 5). The control process loads
// every task up front and N task processes pop from it. Contention on this
// queue was measured to be "minimal" (Section 7, observation 4).
//
// Tasks are handed out by pointer into the caller's list — a pop must not
// copy the Task (its std::function inject closure allocates). Requeueing
// (fault recovery: a task stranded by a dead worker goes back on the queue)
// re-hands-out ids and never touches the list, so pointers stay valid for
// the queue's lifetime. Requeued tasks are handed out before fresh ones: a
// stranded task already waited a full scheduling round, so it must not queue
// again behind every untouched task.
//
// The queue blocks. A robust worker must not exit while another worker
// still holds a task: if that worker dies, its task is requeued and somebody
// has to be around to drain it. pop() therefore waits while work is in
// flight and returns nullptr only when every task is resolved (or no live
// worker can ever resolve the remainder).

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "psm/task.hpp"

namespace psmsys::psm {

class TaskQueue {
 public:
  /// Serve `tasks` (ids dense 0..n-1; must outlive the queue) to `workers`
  /// task processes.
  TaskQueue(const std::vector<Task>& tasks, std::size_t workers)
      : tasks_(tasks), live_workers_(workers) {}

  /// Next task to execute — requeued ones first, in requeue order, then fresh
  /// ones in list order — or nullptr when all work is provably done. The
  /// caller holds the task until it calls finish().
  [[nodiscard]] const Task* pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (true) {
      if (!requeued_.empty()) {
        const std::uint64_t id = requeued_.front();
        requeued_.pop_front();
        ++in_flight_;
        return &tasks_[id];
      }
      if (next_ < tasks_.size()) {
        ++in_flight_;
        return &tasks_[next_++];
      }
      if (in_flight_ == 0 || live_workers_ == 0) return nullptr;
      cv_.wait(lock);
    }
  }

  /// The held task is resolved (completed or quarantined), or — if
  /// `requeue_it` — stranded by the caller's death and back on the queue.
  void finish(std::uint64_t id, bool requeue_it) {
    const std::lock_guard<std::mutex> lock(mutex_);
    --in_flight_;
    if (requeue_it) requeued_.push_back(id);
    cv_.notify_all();
  }

  /// Results lost with a dead worker's WM: schedule re-execution.
  void requeue_lost(const std::vector<std::uint64_t>& ids) {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto id : ids) requeued_.push_back(id);
    cv_.notify_all();
  }

  void worker_exited() {
    const std::lock_guard<std::mutex> lock(mutex_);
    --live_workers_;
    cv_.notify_all();
  }

 private:
  const std::vector<Task>& tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::size_t next_ = 0;
  std::deque<std::uint64_t> requeued_;
  std::size_t in_flight_ = 0;
  std::size_t live_workers_ = 0;
};

}  // namespace psmsys::psm
