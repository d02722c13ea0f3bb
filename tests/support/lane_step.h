// Lane-stepped reference for the Scheduler.
//
// Stepped from the main thread, the scheduler runs each iteration's op plan
// on its DagExecutor: independent ops overlap on disjoint worker teams.
// Stepped from a lane thread -- how ShardedSimulation's shard lanes step
// their shards -- it runs the same plan inline in pipeline order, each op
// over the lane's team. This header drives a Simulation through that
// inline path from a thread bound as a full-pool lane
// (NumaThreadPool::BindLane with every worker as its team, plus
// Simulation::SwapThreadActive), so the ops run one after another, each
// over the whole pool. It is the reference the SchedulerDagTest trajectory
// tests and bench_dag's gates compare the executor against.
//
// Per iteration: Simulate(1) on the lane, then MetricsRegistry::FlushShards
// -- the lane's slot is not 0, so the scheduler leaves the flush to its
// driver, as it does for shard lanes.
#ifndef BDM_TESTS_SUPPORT_LANE_STEP_H_
#define BDM_TESTS_SUPPORT_LANE_STEP_H_

#include <cstdint>
#include <exception>
#include <thread>

#include "core/op_dag.h"
#include "core/simulation.h"
#include "obs/metrics.h"
#include "sched/numa_thread_pool.h"

namespace bdm::test {

/// Runs `iterations` iterations of `sim` on a full-pool lane thread (see
/// the file comment). Rethrows the first exception an iteration threw.
inline void LaneStep(Simulation* sim, uint64_t iterations) {
  NumaThreadPool* pool = sim->GetThreadPool();
  // The slot shard lane 0 takes: past the workers and the op-lane slots.
  const int slot = pool->NumThreads() + 1 + kOpLanes;
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
