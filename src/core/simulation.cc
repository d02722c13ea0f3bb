#include "core/simulation.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "continuum/diffusion_grid.h"
#include "core/resource_manager.h"
#include "core/scheduler.h"
#include "env/kd_tree.h"
#include "env/octree.h"
#include "env/uniform_grid.h"
#include "memory/memory_manager.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "physics/interaction_force.h"
#include "sched/numa_thread_pool.h"

namespace bdm {

Simulation* Simulation::active_ = nullptr;

namespace {

std::unique_ptr<Environment> MakeEnvironment(const Param& param) {
  switch (param.environment) {
    case EnvironmentType::kUniformGrid:
      return std::make_unique<UniformGridEnvironment>(param);
    case EnvironmentType::kKdTree:
      return std::make_unique<KdTreeEnvironment>(param);
    case EnvironmentType::kOctree:
      return std::make_unique<OctreeEnvironment>(param);
  }
  throw std::invalid_argument("unknown environment type");
}

}  // namespace

Simulation::Simulation(std::string name, const Param& param)
    : name_(std::move(name)),
      param_(param),
      topology_(param_.ResolveNumThreads(), param_.num_numa_domains) {
  assert(active_ == nullptr &&
         "only one Simulation may be active at a time (see class comment)");
  active_ = this;

  ApplyEnvOverrides(&param_);

  // Observability hooks (DESIGN.md Section 7). BDM_METRICS=0 forces the
  // counter layer off (overhead A/B runs); BDM_TRACE=<path> records every
  // operation span of this simulation as a chrome://tracing JSON written on
  // destruction. Metric totals reset per simulation so snapshots and the
  // end-of-run dump describe this run alone.
  auto& registry = MetricsRegistry::Get();
  registry.ConfigureSlots(topology_.NumThreads() + 1);
  registry.SetEnabled(param_.collect_metrics);
  registry.Reset();
  if (std::getenv("BDM_TRACE") != nullptr) {
    TraceRecorder::Get().Start(name_);
  }

  owned_pool_ = std::make_unique<NumaThreadPool>(topology_);
  pool_ = owned_pool_.get();
  if (param_.use_bdm_memory_manager) {
    owned_memory_manager_ =
        std::make_unique<MemoryManager>(topology_, param_.memory);
    memory_manager_ = owned_memory_manager_.get();
    MemoryManager::SetGlobal(memory_manager_);
  }
  owned_uid_generator_ = std::make_unique<AgentUidGenerator>();
  uid_generator_ = owned_uid_generator_.get();

  BuildComponents();
}

Simulation::Simulation(std::string name, const Param& param,
                       const SharedServices& services)
    : name_(std::move(name)),
      param_(param),
      topology_(param_.ResolveNumThreads(), param_.num_numa_domains),
      owns_services_(false),
      pool_(services.pool),
      memory_manager_(services.memory_manager),
      uid_generator_(services.uid_generator) {
  assert(pool_ != nullptr && uid_generator_ != nullptr &&
         "shared-service simulations need an external pool and uid generator");
  ApplyEnvOverrides(&param_);
  // No metrics slot reconfiguration / reset and no trace start here: the
  // owner of the shared services (ShardedSimulation) performs the
  // process-global observability setup exactly once -- a per-shard reset
  // would wipe the counters of every sibling shard.
  BuildComponents();
}

void Simulation::BuildComponents() {
  rm_ = std::make_unique<ResourceManager>(param_, pool_, uid_generator_);
  env_ = MakeEnvironment(param_);
  force_ = std::make_unique<InteractionForce>();

  // One context per worker thread plus one for the main thread (slot 0).
  const int num_contexts = topology_.NumThreads() + 1;
  contexts_.reserve(num_contexts);
  for (int slot = 0; slot < num_contexts; ++slot) {
    const int domain = slot == 0 ? 0 : topology_.DomainOfThread(slot - 1);
    contexts_.push_back(std::make_unique<ExecutionContext>(
        domain, param_.random_seed + static_cast<uint64_t>(slot) * 0x9E3779B9,
        uid_generator_));
    context_ptrs_.push_back(contexts_.back().get());
  }

  scheduler_ = std::make_unique<Scheduler>(this);
}

Simulation::~Simulation() {
  // End-of-run observability: the unified timing+counters JSON and the
  // chrome trace are written before any engine component is torn down.
  // With several sequential Simulations in one process, each run rewrites
  // the files -- the last simulation wins; point the env vars at a
  // one-simulation run (the examples) for a clean capture. Shared-service
  // simulations skip both: the service owner captures one unified view.
  if (owns_services_) {
    if (const char* path = std::getenv("BDM_OBS_JSON")) {
      if (!scheduler_->DumpObservability(std::string(path))) {
        std::fprintf(stderr, "BDM_OBS_JSON: cannot open %s for writing\n",
                     path);
      }
    }
    if (const char* path = std::getenv("BDM_TRACE")) {
      TraceRecorder::Get().Stop(path);
    }
  }

  // Destruction order matters: agents (and their behaviors) must be freed
  // while the memory manager that allocated them is still the global one.
  // (For shared services the owner keeps the global allocator installed
  // until after every shard simulation is gone.)
  scheduler_.reset();
  env_.reset();
  rm_.reset();
  diffusion_grids_.clear();
  contexts_.clear();
  force_.reset();
  owned_memory_manager_.reset();  // clears the global pointer (owning mode)
  owned_pool_.reset();
  if (active_ == this) {
    active_ = nullptr;
  }
}

void Simulation::SetInteractionForce(std::unique_ptr<InteractionForce> force) {
  force_ = std::move(force);
}

ExecutionContext* Simulation::GetExecutionContext(int tid) {
  return context_ptrs_[tid + 1];
}

ExecutionContext* Simulation::GetActiveExecutionContext() {
  return GetExecutionContext(NumaThreadPool::CurrentThreadId());
}

DiffusionGrid* Simulation::AddDiffusionGrid(std::unique_ptr<DiffusionGrid> grid,
                                            const Real3& lower,
                                            const Real3& upper) {
  // The pool drives first-touch placement: each worker zeroes the z-slab
  // it will later step.
  grid->Initialize(lower, upper, pool_);
  diffusion_grids_.push_back(std::move(grid));
  diffusion_ptrs_.push_back(diffusion_grids_.back().get());
  return diffusion_ptrs_.back();
}

DiffusionGrid* Simulation::AdoptDiffusionGrid(
    std::unique_ptr<DiffusionGrid> grid) {
  diffusion_grids_.push_back(std::move(grid));
  diffusion_ptrs_.push_back(diffusion_grids_.back().get());
  return diffusion_ptrs_.back();
}

DiffusionGrid* Simulation::GetDiffusionGrid(const std::string& substance) const {
  for (DiffusionGrid* grid : diffusion_ptrs_) {
    if (grid->GetName() == substance) {
      return grid;
    }
  }
  return nullptr;
}

void Simulation::Simulate(uint64_t iterations) {
  scheduler_->Simulate(iterations);
}

}  // namespace bdm
