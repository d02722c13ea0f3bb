#include "layer_trace.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "core/default_ops.h"
#include "core/load_balance_op.h"
#include "core/op_dag.h"
#include "core/scheduler.h"
#include "core/simulation.h"
#include "obs/metrics.h"
#include "physics/mechanics_fused_op.h"
#include "sched/numa_thread_pool.h"

namespace bdm::perfbench {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

Clock::time_point FromNs(int64_t ns) {
  return Clock::time_point(std::chrono::nanoseconds(ns));
}

// Both wrappers take the wrapped op's name, frequency and resource
// footprint, so the scheduler derives the same DAG node from them.
class TracedStandaloneOp : public StandaloneOperation {
 public:
  TracedStandaloneOp(std::unique_ptr<StandaloneOperation> inner,
                     LayerTrace* trace)
      : StandaloneOperation(inner->GetName(), inner->GetFrequency()),
        inner_(std::move(inner)),
        trace_(trace) {
    DeclareResources(inner_->Reads(), inner_->Writes());
  }

  void Run(Simulation* sim) override {
    const auto start = Clock::now();
    inner_->Run(sim);
    trace_->Record(GetName(), start, Clock::now(), "scheduler_iteration");
  }

 private:
  std::unique_ptr<StandaloneOperation> inner_;
  LayerTrace* trace_;
};

/// Node names, footprints and edges of a DAG, for shape comparison.
std::string DescribeDag(const OpDag& dag) {
  std::ostringstream os;
  for (int i = 0; i < dag.size(); ++i) {
    const OpDagNode& node = dag.node(i);
    os << node.name << "(r" << int{node.reads} << ",w" << int{node.writes}
       << ")";
    for (const int j : dag.successors(i)) {
      os << "->" << j;
    }
    os << ";";
  }
  return os.str();
}

}  // namespace

/// Agent-op wrapper: per-thread accumulators (indexed by thread slot, one
/// writer each) instead of a span per agent.
class TracedAgentOp : public AgentOperation {
 public:
  TracedAgentOp(std::unique_ptr<AgentOperation> inner, LayerTrace* trace)
      : AgentOperation(inner->GetName(), inner->GetFrequency()),
        inner_(std::move(inner)),
        trace_(trace),
        slots_(std::make_unique<Slot[]>(MetricsRegistry::kMaxSlots)) {
    DeclareResources(inner_->Reads(), inner_->Writes());
    std::lock_guard<std::mutex> lock(trace_->mutex_);
    trace_->agent_ops_.push_back(this);
  }

  ~TracedAgentOp() override {
    std::lock_guard<std::mutex> lock(trace_->mutex_);
    auto& ops = trace_->agent_ops_;
    ops.erase(std::remove(ops.begin(), ops.end(), this), ops.end());
  }

  TracedAgentOp(const TracedAgentOp&) = delete;
  TracedAgentOp& operator=(const TracedAgentOp&) = delete;

  void Run(Agent* agent, AgentHandle handle, int tid,
           Simulation* sim) override {
    const int64_t start = NowNs();
    inner_->Run(agent, handle, tid, sim);
    const int64_t end = NowNs();
    Slot& slot = slots_[NumaThreadPool::CurrentThreadSlot()];
    slot.first = std::min(slot.first, start);
    slot.last = std::max(slot.last, end);
    slot.busy += end - start;
    ++slot.runs;
  }

  /// Folds and resets the accumulators. Call between parallel regions.
  void Fold() {
    int64_t first = std::numeric_limits<int64_t>::max();
    int64_t last = std::numeric_limits<int64_t>::min();
    int64_t busy = 0;
    uint64_t runs = 0;
    for (int s = 0; s < MetricsRegistry::kMaxSlots; ++s) {
      Slot& slot = slots_[s];
      if (slot.runs == 0) {
        continue;
      }
      first = std::min(first, slot.first);
      last = std::max(last, slot.last);
      busy += slot.busy;
      runs += slot.runs;
      slot = Slot{};
    }
    if (runs == 0) {
      return;
    }
    trace_->Record(GetName(), FromNs(first), FromNs(last),
                   "scheduler_iteration");
    trace_->behavior_busy_ns_ += static_cast<double>(busy);
    trace_->behavior_agent_runs_ += runs;
  }

 private:
  struct alignas(64) Slot {
    int64_t first = std::numeric_limits<int64_t>::max();
    int64_t last = std::numeric_limits<int64_t>::min();
    int64_t busy = 0;
    uint64_t runs = 0;
  };

  std::unique_ptr<AgentOperation> inner_;
  LayerTrace* trace_;
  std::unique_ptr<Slot[]> slots_;
};

void LayerTrace::Record(const std::string& name, Clock::time_point start,
                        Clock::time_point end, const std::string& parent) {
  Span span{name, start, end, NumaThreadPool::CurrentThreadSlot(), 0, parent};
  std::lock_guard<std::mutex> lock(mutex_);
  span.iteration = iteration_;
  spans_.push_back(std::move(span));
}

void LayerTrace::FoldAgentStages() {
  std::vector<TracedAgentOp*> ops;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ops = agent_ops_;
  }
  for (TracedAgentOp* op : ops) {
    op->Fold();
  }
}

void LayerTrace::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.clear();
  behavior_busy_ns_ = 0;
  behavior_agent_runs_ = 0;
}

bool LayerTrace::WriteTraceEvents(const std::string& path,
                                  const std::string& process_name) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  Clock::time_point origin = Clock::time_point::max();
  for (const Span& span : spans_) {
    origin = std::min(origin, span.start);
  }
  const auto micros = [](Clock::duration d) {
    return std::chrono::duration<double, std::micro>(d).count();
  };
  std::fprintf(out,
               "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n"
               "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
               "\"args\": {\"name\": \"%s\"}}",
               process_name.c_str());
  for (const Span& span : spans_) {
    std::fprintf(out,
                 ",\n{\"name\": \"%s\", \"cat\": \"perfbench\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %d, "
                 "\"args\": {\"iteration\": %llu, \"parent\": \"%s\"}}",
                 span.name.c_str(), micros(span.start - origin),
                 micros(span.end - span.start), span.slot,
                 static_cast<unsigned long long>(span.iteration),
                 span.parent.c_str());
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

void InstallTracedPipeline(Simulation* sim, LayerTrace* trace) {
  const Param& param = sim->GetParam();
  if (!param.pair_symmetric_forces || !param.soa_primary) {
    throw std::invalid_argument(
        "traced pipeline expects the fused mechanics engine");
  }
  Scheduler* scheduler = sim->GetScheduler();
  const std::string before = DescribeDag(scheduler->GetIterationDag());

  // Remove every default op first, then append the wrappers in pipeline
  // order: appending right after each removal would reorder the stages.
  const auto take = [&](const char* name) {
    OperationBase* op = scheduler->GetOp(name);
    if (op == nullptr) {
      return 0;
    }
    const int frequency = op->GetFrequency();
    scheduler->RemoveOp(name);
    return frequency;
  };
  const int load_balancing = take("load_balancing");
  const int environment_update = take("environment_update");
  const int behaviors = take("behaviors");
  const int mechanics = take("mechanical_forces");
  const int diffusion = take("diffusion");
  const int commit = take("commit");

  const auto standalone = [&](std::unique_ptr<StandaloneOperation> op,
                              int frequency) {
    op->SetFrequency(frequency);
    return std::make_unique<TracedStandaloneOp>(std::move(op), trace);
  };
  if (load_balancing != 0) {
    scheduler->AppendPreOp(standalone(
        std::make_unique<LoadBalanceOp>(load_balancing), load_balancing));
  }
  if (environment_update != 0) {
    scheduler->AppendPreOp(standalone(std::make_unique<UpdateEnvironmentOp>(),
                                      environment_update));
  }
  if (behaviors != 0) {
    auto op = std::make_unique<BehaviorOp>();
    op->SetFrequency(behaviors);
    scheduler->AppendAgentOp(
        std::make_unique<TracedAgentOp>(std::move(op), trace));
  }
  if (mechanics != 0) {
    scheduler->AppendPostOp(
        standalone(std::make_unique<MechanicsFusedOp>(), mechanics));
  }
  if (diffusion != 0) {
    scheduler->AppendPostOp(
        standalone(std::make_unique<DiffusionOp>(), diffusion));
  }
  if (commit != 0) {
    scheduler->AppendPostOp(standalone(std::make_unique<CommitOp>(), commit));
  }

  const std::string after = DescribeDag(scheduler->GetIterationDag());
  if (after != before) {
    throw std::logic_error("traced pipeline changed the op DAG:\n  before " +
                           before + "\n  after  " + after);
  }
}

}  // namespace bdm::perfbench
