// Scheduler: the simulation main loop (paper Algorithm 1).
//
// Each iteration executes the pre-standalone operations, the fused parallel
// agent loop (every due agent operation applied per agent), and the
// post-standalone operations. Wall time per operation is recorded in the
// simulation's TimingAggregator, which feeds the Figure 5 runtime breakdown.
//
// Every iteration compiles its due ops into one plan: their declared
// resource footprints (core/operation.h) become a dependency DAG (OpDag)
// over the pipeline order. From the main thread the plan
// runs on the scheduler's DagExecutor: independent ops -- diffusion vs. the
// mechanics pipeline -- run concurrently on disjoint worker teams, sized by
// an exponential moving average of each op's measured cost. From a lane
// thread (a shard lane stepping its shard), the same plan runs inline in
// pipeline order, each op over the lane's team. CommitOp declares
// read/write-all, making it the sink barrier by construction.
#ifndef BDM_CORE_SCHEDULER_H_
#define BDM_CORE_SCHEDULER_H_

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/op_dag.h"
#include "core/operation.h"
#include "obs/metrics.h"

namespace bdm {

class Simulation;
class TimingAggregator;

class Scheduler {
 public:
  explicit Scheduler(Simulation* sim);
  ~Scheduler();

  /// Runs `iterations` simulation steps.
  void Simulate(uint64_t iterations);

  /// Runs until `stop(sim)` returns true (checked after every iteration) or
  /// `max_iterations` elapsed. Returns the number of iterations executed.
  /// Supports steady-state studies where the horizon is unknown a priori.
  uint64_t SimulateUntil(const std::function<bool(Simulation*)>& stop,
                         uint64_t max_iterations = ~uint64_t{0});

  uint64_t GetSimulatedIterations() const { return iteration_; }

  // --- pipeline customization ------------------------------------------------
  // The plan is rebuilt from the op lists every iteration, so mutations
  // (and changes to an op GetOp handed out) take effect at the next one.
  void AppendPreOp(std::unique_ptr<StandaloneOperation> op);
  void AppendAgentOp(std::unique_ptr<AgentOperation> op);
  void AppendPostOp(std::unique_ptr<StandaloneOperation> op);
  /// Removes the first operation with the given name from any stage.
  /// Returns true when an operation was removed.
  bool RemoveOp(const std::string& name);
  /// Returns the first operation with the given name, or nullptr.
  OperationBase* GetOp(const std::string& name);

  /// The dependency DAG the next iteration's due ops compile to
  /// (test/analysis hook; builds the plan without running anything). The
  /// reference stays valid until the next iteration or call.
  const OpDag& GetIterationDag();

  // --- observability ---------------------------------------------------------
  /// Everything the engine knows about itself at the end of one iteration:
  /// the iteration index, its wall time, and the flushed metric totals
  /// (cumulative since simulation start).
  struct IterationSnapshot {
    uint64_t iteration = 0;
    double seconds = 0;  // wall time of this iteration
    MetricsSnapshot metrics;
  };
  using SnapshotFn = std::function<void(const IterationSnapshot&)>;

  /// Invokes `fn` at the end of every `interval`-th iteration, right after
  /// the metric shards were flushed -- the per-iteration window a
  /// time-series consumer (or a test asserting determinism) hooks into.
  /// Pass a null fn to uninstall.
  void SetSnapshotCallback(SnapshotFn fn, int interval = 1);

  /// Snapshot of the current cumulative state (outside the iteration loop;
  /// seconds is 0 because no iteration is in flight).
  IterationSnapshot TakeSnapshot() const;

  /// Writes the end-of-run observability document as JSON: per-operation
  /// timing (the TimingAggregator the Figure 5 breakdown uses), counter
  /// totals, and gauge values, in one machine-readable unit.
  void DumpObservability(std::ostream& out) const;
  /// Same, to a file. Returns false when the file could not be opened.
  bool DumpObservability(const std::string& path) const;

  /// The timing members of that document -- simulation name, iterations,
  /// grand total and per-op timing -- each line prefixed by `indent`, no
  /// enclosing braces and no trailing comma. A sharded run writes one such
  /// section per shard.
  void WriteTimingJson(std::ostream& out, const std::string& indent) const;
  /// The process-global "counters" and "gauges" members of that document,
  /// indented by two spaces, no enclosing braces and no trailing comma.
  static void WriteMetricsJson(std::ostream& out);

 private:
  /// One iteration's compiled due ops: the DAG plus each node's op binding.
  /// Node i is either standalone[i] or (when i == agent_node) the fused
  /// agent loop over due_agent_ops.
  struct Plan {
    OpDag dag;
    std::vector<StandaloneOperation*> standalone;  // null at agent_node
    int agent_node = -1;
    std::vector<AgentOperation*> due_agent_ops;
  };

  void ExecuteIteration();
  /// Compiles the ops due at iteration_ into plan_.
  void BuildPlan();
  /// Runs plan_: on dag_exec_'s lanes, or inline in pipeline order when the
  /// caller is a lane thread or the pool leaves no slot for op lanes.
  void RunPlan(TimingAggregator* timing);
  /// The fused agent loop (Algorithm 1, L7-11) over the given due ops.
  void RunAgentStage(const std::vector<AgentOperation*>& due);

  /// Applies `fn` to pre_ops_, agent_ops_, post_ops_ in pipeline order until
  /// `fn` returns true. The op lists have different element types, hence the
  /// generic callback.
  template <typename Fn>
  void ForEachOpList(Fn&& fn) {
    if (fn(pre_ops_)) {
      return;
    }
    if (fn(agent_ops_)) {
      return;
    }
    fn(post_ops_);
  }

  Simulation* sim_;
  uint64_t iteration_ = 0;
  std::vector<std::unique_ptr<StandaloneOperation>> pre_ops_;
  std::vector<std::unique_ptr<AgentOperation>> agent_ops_;
  std::vector<std::unique_ptr<StandaloneOperation>> post_ops_;
  SnapshotFn snapshot_fn_;
  int snapshot_interval_ = 1;

  // --- op DAG state ----------------------------------------------------------
  Plan plan_;                              // the current iteration's plan
  std::unique_ptr<DagExecutor> dag_exec_;  // created on the first lane run
  /// Per-op wall-time EMA (seconds), keyed by op name; feeds the executor's
  /// weight-proportional worker-team split.
  std::map<std::string, double> op_cost_ema_;
};

}  // namespace bdm

#endif  // BDM_CORE_SCHEDULER_H_
