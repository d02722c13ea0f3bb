// LaneExecutor: runs independent bodies concurrently on disjoint worker
// teams of one shared NumaThreadPool (DESIGN.md Section 9.7).
//
// The executor owns persistent "lane" threads. Each lane runs one body at a
// time with a LaneBinding that scopes every pool dispatch the body makes to
// the lane's current team: a contiguous slice of the pool's workers, sized
// in proportion to the bodies' weights and widened -- never narrowed -- as
// co-running bodies finish. ShardedSimulation steps its local shards this
// way, one lane per shard.
#ifndef BDM_SCHED_LANE_EXECUTOR_H_
#define BDM_SCHED_LANE_EXECUTOR_H_

#include <condition_variable>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "sched/numa_thread_pool.h"

namespace bdm {

class LaneExecutor {
 public:
  /// `max_lanes` bounds concurrency; the effective lane count is further
  /// capped by the pool width and the thread-slot capacity (lane l uses
  /// thread slot slot_base + l for metrics/trace/deposits).
  /// `slot_base` picks where that slot range starts (default: right past
  /// the workers' slots, NumThreads() + 1). Lane l's trace track is named
  /// "shard lane l", after the executor's one use. Throws
  /// std::invalid_argument when `slot_base` leaves no slot below
  /// MetricsRegistry::kMaxSlots for even one lane.
  LaneExecutor(NumaThreadPool* pool, int max_lanes, int slot_base = -1);
  ~LaneExecutor();

  LaneExecutor(const LaneExecutor&) = delete;
  LaneExecutor& operator=(const LaneExecutor&) = delete;

  int NumLanes() const { return static_cast<int>(lanes_.size()); }
  int LaneThreadSlot(int lane) const { return slot_base_ + lane; }

  /// Runs `body(i)` once for every i in [0, count), each on a lane thread,
  /// in index order of start; bodies run concurrently on disjoint worker
  /// teams. `weights[i]` is body i's relative cost estimate (empty = all
  /// equal): free workers are split between the body being started and the
  /// not-yet-started ones in proportion, and a finishing body's workers
  /// grow the teams of adjacent still-running bodies. Blocks until all
  /// bodies completed; if a body threw, the bodies not yet started are
  /// skipped and the first exception is rethrown here.
  void Execute(int count, const std::function<void(int)>& body,
               const std::vector<double>& weights = {});

 private:
  struct Lane {
    std::thread thread;
    LaneBinding binding;
    NumaThreadPool::Team team;  // current grant; mirror of binding
    bool running = false;       // true while a body executes
  };

  void LaneLoop(int lane);
  /// Carves a contiguous worker team for body `index` out of the free
  /// workers (weight-proportional against the bodies not yet started) and
  /// binds it to `lane`. Requires at least one free worker. Called under
  /// mu_.
  void AcquireTeam(int lane, int index);
  /// Returns `lane`'s workers to the free set. Called under mu_.
  void ReleaseTeam(int lane);
  /// Grants free workers to adjacent running lanes (grow-only: a lane's
  /// team never shrinks while its body runs, so dispatch snapshots stay
  /// owned). Called under mu_ when no body is waiting for workers.
  void GrowRunningLanes();
  int FreeWorkers() const;

  NumaThreadPool* pool_;
  int slot_base_ = 0;
  std::vector<Lane> lanes_;

  std::mutex mu_;
  std::condition_variable cv_lane_;  // lanes: body to start / shutdown
  std::condition_variable cv_main_;  // Execute: all bodies completed

  // State of the in-flight Execute (null/empty between runs).
  const std::function<void(int)>* body_ = nullptr;
  int count_ = 0;
  int next_ = 0;  // next body index to start
  std::vector<double> weights_;
  std::vector<int> owner_;  // per worker: owning lane, or -1 when free
  int remaining_ = 0;
  bool cancel_ = false;
  std::exception_ptr error_;
  bool shutdown_ = false;
};

}  // namespace bdm

#endif  // BDM_SCHED_LANE_EXECUTOR_H_
