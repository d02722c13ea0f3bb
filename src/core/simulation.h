// Simulation: the top-level context object.
//
// Owns every engine component -- topology, thread pool, memory manager,
// resource manager, environment, scheduler, per-thread execution contexts,
// diffusion grids -- wired together according to the Param toggles. Exactly
// one Simulation is active per process at a time (the pool allocator's
// headerless deallocation scheme relies on allocation and deallocation
// happening under the same allocator configuration; see
// memory/memory_manager.h).
#ifndef BDM_CORE_SIMULATION_H_
#define BDM_CORE_SIMULATION_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/agent_uid.h"
#include "core/execution_context.h"
#include "core/param.h"
#include "core/timing.h"
#include "numa/topology.h"
#include "sched/numa_thread_pool.h"

namespace bdm {

class ResourceManager;
class Environment;
class Scheduler;
class NumaThreadPool;
class MemoryManager;
class InteractionForce;
class DiffusionGrid;

class Simulation {
 public:
  /// Externally owned engine services injected into a non-owning Simulation.
  /// The shard layer (src/shard/sharded_simulation.h) shares one thread
  /// pool, one memory manager, and one uid generator across all shards so
  /// cross-shard agent hand-over is safe (allocations stay under one
  /// allocator, uids stay globally unique).
  struct SharedServices {
    NumaThreadPool* pool = nullptr;
    MemoryManager* memory_manager = nullptr;  // null = none installed
    AgentUidGenerator* uid_generator = nullptr;
  };

  explicit Simulation(std::string name, const Param& param = {});
  /// Non-owning variant for multi-Simulation processes: runs on the given
  /// services, skips the process-global observability setup (metrics slot
  /// configuration, trace start -- the owner of the services does that
  /// once), and does not claim the active slot exclusively. Callers must
  /// bracket every phase that touches this instance with SetActive().
  Simulation(std::string name, const Param& param,
             const SharedServices& services);
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// The active simulation as seen by the CALLING THREAD: the thread-scoped
  /// override when one is installed (parallel shard stepping -- each lane
  /// thread, and transitively every pool worker executing its dispatches,
  /// resolves to that lane's shard), otherwise the process-wide slot.
  static Simulation* GetActive() {
    void* ctx = internal::t_dispatch_context;
    return ctx != nullptr ? static_cast<Simulation*>(ctx) : active_;
  }

  /// Switches the process-wide active simulation and returns the previous
  /// one. Only meaningful for service-sharing simulations (the owning
  /// constructor claims the slot for its whole lifetime); the shard layer
  /// switches before stepping or mutating each shard.
  static Simulation* SetActive(Simulation* sim) {
    Simulation* previous = active_;
    active_ = sim;
    return previous;
  }

  /// Installs `sim` as the calling thread's active simulation and returns
  /// the previous thread-scoped value (nullptr = no override). Pool workers
  /// inherit the value of whichever thread dispatched to them, so a lane
  /// thread that installs its shard here scopes every GetActive below its
  /// dispatches -- S lanes can step S different simulations concurrently.
  /// Restore the returned value when done; nullptr falls back to SetActive's
  /// process-wide slot.
  static Simulation* SwapThreadActive(Simulation* sim) {
    auto* previous = static_cast<Simulation*>(internal::t_dispatch_context);
    internal::t_dispatch_context = sim;
    return previous;
  }

  const std::string& GetName() const { return name_; }
  const Param& GetParam() const { return param_; }
  ResourceManager* GetResourceManager() { return rm_.get(); }
  Environment* GetEnvironment() { return env_.get(); }
  Scheduler* GetScheduler() { return scheduler_.get(); }
  NumaThreadPool* GetThreadPool() { return pool_; }
  AgentUidGenerator* GetAgentUidGenerator() { return uid_generator_; }
  TimingAggregator* GetTiming() { return &timing_; }
  MemoryManager* GetMemoryManager() { return memory_manager_; }

  InteractionForce* GetInteractionForce() { return force_.get(); }
  void SetInteractionForce(std::unique_ptr<InteractionForce> force);

  /// Execution context of worker `tid` (pass -1 or omit for the calling
  /// thread; the main thread maps to slot 0).
  ExecutionContext* GetExecutionContext(int tid);
  ExecutionContext* GetActiveExecutionContext();
  const std::vector<ExecutionContext*>& GetAllExecutionContexts() const {
    return context_ptrs_;
  }

  /// Registers a substance field. The grid is initialized over the given
  /// bounds immediately.
  DiffusionGrid* AddDiffusionGrid(std::unique_ptr<DiffusionGrid> grid,
                                  const Real3& lower, const Real3& upper);
  /// Registers an already-initialized grid as-is (the shard layer hands in
  /// shard-view windows it initialized with InitializeShardView).
  DiffusionGrid* AdoptDiffusionGrid(std::unique_ptr<DiffusionGrid> grid);
  DiffusionGrid* GetDiffusionGrid(const std::string& substance) const;
  const std::vector<DiffusionGrid*>& GetAllDiffusionGrids() const {
    return diffusion_ptrs_;
  }

  /// Convenience: run `iterations` simulation steps.
  void Simulate(uint64_t iterations);

 private:
  void BuildComponents();

  static Simulation* active_;

  std::string name_;
  Param param_;
  Topology topology_;
  /// True when this simulation constructed (and must tear down) the pool,
  /// memory manager, and uid generator itself; false when they were
  /// injected via SharedServices.
  bool owns_services_ = true;
  std::unique_ptr<NumaThreadPool> owned_pool_;
  std::unique_ptr<MemoryManager> owned_memory_manager_;
  std::unique_ptr<AgentUidGenerator> owned_uid_generator_;
  NumaThreadPool* pool_ = nullptr;
  MemoryManager* memory_manager_ = nullptr;
  AgentUidGenerator* uid_generator_ = nullptr;
  std::unique_ptr<ResourceManager> rm_;
  std::unique_ptr<Environment> env_;
  std::unique_ptr<InteractionForce> force_;
  std::vector<std::unique_ptr<ExecutionContext>> contexts_;
  std::vector<ExecutionContext*> context_ptrs_;
  std::vector<std::unique_ptr<DiffusionGrid>> diffusion_grids_;
  std::vector<DiffusionGrid*> diffusion_ptrs_;
  std::unique_ptr<Scheduler> scheduler_;
  TimingAggregator timing_;
};

}  // namespace bdm

#endif  // BDM_CORE_SIMULATION_H_
