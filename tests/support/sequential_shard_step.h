// Sequential reference stepper for ShardedSimulation.
//
// ShardedSimulation::Simulate steps two or more local shards concurrently
// on DagExecutor lanes. This header drives the same iteration through the
// public API with the shards stepped one after another on the calling
// thread, each with the whole pool and its own op DAG:
//
//   Exchange() -> per local shard: SetActive + Simulate(1) (+ a stale mark
//   while the process-global AoS-dirty flag is up) -> FieldExchange() +
//   StepFields() -> MetricsRegistry::FlushShards().
//
// Concurrency may only change WHEN shards step, never what they compute, so
// a run stepped here must be bitwise identical to the engine's run at the
// same thread count (test_shard_parallel, bench_shard gate 4). The shard
// audits are the engine's job and are not repeated here; they only read
// state.
#ifndef BDM_TESTS_SUPPORT_SEQUENTIAL_SHARD_STEP_H_
#define BDM_TESTS_SUPPORT_SEQUENTIAL_SHARD_STEP_H_

#include <atomic>
#include <cstdint>

#include "core/resource_manager.h"
#include "core/simulation.h"
#include "core/soa_dirty.h"
#include "obs/metrics.h"
#include "shard/sharded_simulation.h"

namespace bdm::test {

/// Runs `iterations` sharded iterations of `sim` with sequential shard
/// steps (see the file comment).
inline void SequentialShardStep(shard::ShardedSimulation* sim,
                                uint64_t iterations) {
  Simulation* previous = Simulation::GetActive();
  const bool sharded = sim->NumShards() > 1;
  const int end = sim->LocalBegin() + sim->NumLocalShards();
  for (uint64_t i = 0; i < iterations; ++i) {
    if (sharded) {
      sim->Exchange();
    }
    for (int s = sim->LocalBegin(); s < end; ++s) {
      Simulation* shard = sim->GetShard(s)->sim();
      Simulation::SetActive(shard);
      shard->Simulate(1);
      // The AoS-dirty flag is process-global: pin a raised flag to the
      // shard that raised it so a sibling's refresh cannot consume it.
      if (sharded &&
          soa::g_aos_geometry_dirty.load(std::memory_order_relaxed)) {
        shard->GetResourceManager()->GetSoaStore().MarkGeometryStale();
      }
    }
    if (sharded && sim->HasFields()) {
      sim->FieldExchange();
      sim->StepFields();
    }
    if (sharded) {
      MetricsRegistry::Get().FlushShards();
    }
  }
  Simulation::SetActive(previous);
}

}  // namespace bdm::test

#endif  // BDM_TESTS_SUPPORT_SEQUENTIAL_SHARD_STEP_H_
