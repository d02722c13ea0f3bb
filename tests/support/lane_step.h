// Lane-stepped reference for the Scheduler.
//
// A Scheduler runs each iteration's due ops in pipeline order on the thread
// that calls Simulate, each op over that thread's team: the whole pool from
// the main thread, the lane's team on a lane thread -- how
// ShardedSimulation's shard lanes step their shards. This header drives a
// Simulation from a thread bound as a full-pool lane
// (NumaThreadPool::BindLane with every worker as its team, plus
// Simulation::SwapThreadActive) on shard lane 0's thread slot. Run against
// the same Simulation stepped from the main thread, it is the main-thread vs
// lane-thread reference of the SchedulerDagTest trajectory tests: the ops
// and their teams are the same, only the driving thread and its slot
// differ.
//
// Per iteration: Simulate(1) on the lane, then MetricsRegistry::FlushShards
// -- the lane's slot is not 0, so the scheduler leaves the flush to its
// driver, as it does for shard lanes.
#ifndef BDM_TESTS_SUPPORT_LANE_STEP_H_
#define BDM_TESTS_SUPPORT_LANE_STEP_H_

#include <cstdint>
#include <exception>
#include <thread>

#include "core/simulation.h"
#include "obs/metrics.h"
#include "sched/numa_thread_pool.h"

namespace bdm::test {

/// Runs `iterations` iterations of `sim` on a full-pool lane thread (see
/// the file comment). Rethrows the first exception an iteration threw.
inline void LaneStep(Simulation* sim, uint64_t iterations) {
  NumaThreadPool* pool = sim->GetThreadPool();
  // The slot shard lane 0 takes: right past the workers.
  const int slot = pool->NumThreads() + 1;
  MetricsRegistry::Get().ConfigureSlots(slot + 1);
  std::exception_ptr error;
  std::thread lane([&] {
    LaneBinding binding;
    binding.Store(0, pool->NumThreads());
    NumaThreadPool::BindLane(&binding, slot);
    Simulation::SwapThreadActive(sim);
    try {
      for (uint64_t i = 0; i < iterations; ++i) {
        sim->Simulate(1);
        if (MetricsRegistry::Enabled()) {
          MetricsRegistry::Get().FlushShards();
        }
      }
    } catch (...) {
      error = std::current_exception();
    }
  });
  lane.join();
  if (error) {
    std::rethrow_exception(error);
  }
}

}  // namespace bdm::test

#endif  // BDM_TESTS_SUPPORT_LANE_STEP_H_
