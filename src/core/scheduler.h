// Scheduler: the simulation main loop (paper Algorithm 1).
//
// Each iteration executes the pre-standalone operations, the fused parallel
// agent loop (every due agent operation applied per agent), and the
// post-standalone operations, one after another in pipeline order on the
// calling thread. Each op is parallel inside, over the calling thread's
// team: the whole pool from the main thread, or the lane's team when a
// shard lane steps its shard (shard/sharded_simulation.h). Wall time per
// operation is recorded in the simulation's TimingAggregator, which feeds
// the Figure 5 runtime breakdown.
#ifndef BDM_CORE_SCHEDULER_H_
#define BDM_CORE_SCHEDULER_H_

#include <cstdint>
#include <functional>
#include <iosfwd>
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

  /// The dependency DAG of the next iteration's due ops, derived from their
  /// declared resource footprints (analysis hook: the scheduler runs the
  /// ops in pipeline order regardless; nothing runs here). The reference
  /// stays valid until the next call.
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
  /// One iteration's due ops in pipeline order; the fused agent loop over
  /// `agent` runs between `pre` and `post` when any agent op is due.
  struct Plan {
    std::vector<StandaloneOperation*> pre;
    std::vector<AgentOperation*> agent;
    std::vector<StandaloneOperation*> post;
  };

  void ExecuteIteration();
  /// Collects the ops due at iteration_ into plan_.
  void BuildPlan();
  /// Runs plan_ in pipeline order on the calling thread.
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

  Plan plan_;            // the current iteration's due ops
  OpDag iteration_dag_;  // built by GetIterationDag only
};

}  // namespace bdm

#endif  // BDM_CORE_SCHEDULER_H_
