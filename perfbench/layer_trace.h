// Per-layer tracing for the benchmark's traced run.
//
// Spans are recorded from the benchmark's own code, around its calls into
// each layer's public entry points; nothing inside the engine changes:
//  * InstallTracedPipeline swaps a Simulation's default scheduler ops for
//    wrappers around fresh instances of the same public op classes. Each
//    wrapper keeps its op's name, frequency and resource footprint, so the
//    scheduler compiles the same op DAG, and records a span around Run.
//  * The behaviour op runs once per agent, so its wrapper keeps per-thread
//    first-entry / last-exit / busy-time accumulators instead of one span per
//    agent; FoldAgentStages turns them into one "behaviors" stage span per
//    scheduler iteration.
//  * The workload driver records the iteration, scheduler-iteration and
//    shard-exchange spans itself (workloads.cc).
//
// Spans stay in memory and are written once, at the end, in the Trace Event
// Format (Perfetto / chrome://tracing).
#ifndef BDM_PERFBENCH_LAYER_TRACE_H_
#define BDM_PERFBENCH_LAYER_TRACE_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace bdm {
class Simulation;
}

namespace bdm::perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;
  Clock::time_point start;
  Clock::time_point end;
  int slot = 0;            // thread slot: 0 = main, t+1 = pool worker t
  uint64_t iteration = 0;  // benchmark iteration the span belongs to
  std::string parent;      // name of the enclosing span kind

  double Seconds() const {
    return std::chrono::duration<double>(end - start).count();
  }
};

class TracedAgentOp;

class LayerTrace {
 public:
  /// Records one span; callable from any thread.
  void Record(const std::string& name, Clock::time_point start,
              Clock::time_point end, const std::string& parent);
  /// Iteration index attached to spans recorded from now on.
  void SetIteration(uint64_t iteration) { iteration_ = iteration; }

  /// Folds every registered agent-op wrapper's per-thread accumulators into
  /// one stage span each (for the scheduler iteration that just ended).
  void FoldAgentStages();

  const std::vector<Span>& spans() const { return spans_; }
  double behavior_busy_ns() const { return behavior_busy_ns_; }
  uint64_t behavior_agent_runs() const { return behavior_agent_runs_; }
  /// Drops spans and behaviour totals recorded so far (the warm-up).
  void Clear();

  /// Writes every span as a Trace Event Format document. Returns false when
  /// the file cannot be written.
  bool WriteTraceEvents(const std::string& path,
                        const std::string& process_name) const;

 private:
  friend class TracedAgentOp;

  std::mutex mutex_;
  std::vector<Span> spans_;
  uint64_t iteration_ = 0;
  std::vector<TracedAgentOp*> agent_ops_;
  double behavior_busy_ns_ = 0;
  uint64_t behavior_agent_runs_ = 0;
};

/// Replaces the default pipeline of `sim` (load balancing, environment
/// update, behaviours, mechanics, diffusion, commit) with traced wrappers
/// around fresh op instances, in the same stages and order. Throws when the
/// op DAG compiled afterwards differs from the one before (for example when
/// the scheduler held an op this benchmark does not know).
void InstallTracedPipeline(Simulation* sim, LayerTrace* trace);

}  // namespace bdm::perfbench

#endif  // BDM_PERFBENCH_LAYER_TRACE_H_
