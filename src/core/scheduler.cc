#include "core/scheduler.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <ostream>

#include "core/consistency_audit.h"
#include "core/default_ops.h"
#include "core/load_balance_op.h"
#include "core/resource_manager.h"
#include "core/simulation.h"
#include "core/timing.h"
#include "physics/mechanics_fused_op.h"
#include "sched/numa_thread_pool.h"

namespace bdm {

Scheduler::Scheduler(Simulation* sim) : sim_(sim) {
  const Param& param = sim_->GetParam();
  // Pre-standalone: sorting must precede the environment update so the
  // index that agent operations use is built over the *new* agent objects.
  if (param.agent_sort_frequency > 0) {
    pre_ops_.push_back(std::make_unique<LoadBalanceOp>(param.agent_sort_frequency));
  }
  pre_ops_.push_back(std::make_unique<UpdateEnvironmentOp>());
  if (param.audit_interval > 0) {
    // Right after the environment update: the audit compares the freshly
    // built index against the agent store, before behaviors move anything.
    pre_ops_.push_back(std::make_unique<ConsistencyAuditOp>(param.audit_interval));
  }
  if (param.detect_static_agents) {
    pre_ops_.push_back(std::make_unique<StaticnessOp>());
  }
  agent_ops_.push_back(std::make_unique<BehaviorOp>());
  if (param.pair_symmetric_forces) {
    // The pair engine needs the whole agent population at once (it walks
    // pairs, not agents), so it runs as a standalone right after the fused
    // agent loop -- the pipeline order behaviors -> mechanics -> diffusion
    // -> commit is unchanged. It covers every environment and force itself
    // (see physics/mechanics_fused_op.h).
    post_ops_.push_back(std::make_unique<MechanicsFusedOp>());
  } else {
    agent_ops_.push_back(std::make_unique<MechanicalForcesOp>());
  }
  post_ops_.push_back(std::make_unique<DiffusionOp>());
  post_ops_.push_back(std::make_unique<CommitOp>());
}

Scheduler::~Scheduler() = default;

void Scheduler::AppendPreOp(std::unique_ptr<StandaloneOperation> op) {
  pre_ops_.push_back(std::move(op));
}

void Scheduler::AppendAgentOp(std::unique_ptr<AgentOperation> op) {
  agent_ops_.push_back(std::move(op));
}

void Scheduler::AppendPostOp(std::unique_ptr<StandaloneOperation> op) {
  post_ops_.push_back(std::move(op));
}

bool Scheduler::RemoveOp(const std::string& name) {
  bool removed = false;
  ForEachOpList([&](auto& ops) {
    auto it = std::find_if(ops.begin(), ops.end(),
                           [&](const auto& op) { return op->GetName() == name; });
    if (it == ops.end()) {
      return false;
    }
    ops.erase(it);
    removed = true;
    return true;  // stop: remove only the first match across all stages
  });
  return removed;
}

OperationBase* Scheduler::GetOp(const std::string& name) {
  OperationBase* found = nullptr;
  ForEachOpList([&](auto& ops) {
    for (auto& op : ops) {
      if (op->GetName() == name) {
        found = op.get();
        return true;
      }
    }
    return false;
  });
  return found;
}

void Scheduler::Simulate(uint64_t iterations) {
  for (uint64_t i = 0; i < iterations; ++i) {
    ExecuteIteration();
  }
}

uint64_t Scheduler::SimulateUntil(const std::function<bool(Simulation*)>& stop,
                                  uint64_t max_iterations) {
  uint64_t executed = 0;
  while (executed < max_iterations && !stop(sim_)) {
    ExecuteIteration();
    ++executed;
  }
  return executed;
}

void Scheduler::BuildPlan() {
  plan_.pre.clear();
  plan_.agent.clear();
  plan_.post.clear();
  for (auto& op : pre_ops_) {
    if (op->IsDue(iteration_)) {
      plan_.pre.push_back(op.get());
    }
  }
  for (auto& op : agent_ops_) {
    if (op->IsDue(iteration_)) {
      plan_.agent.push_back(op.get());
    }
  }
  for (auto& op : post_ops_) {
    if (op->IsDue(iteration_)) {
      plan_.post.push_back(op.get());
    }
  }
}

const OpDag& Scheduler::GetIterationDag() {
  BuildPlan();
  std::vector<OpDagNode> nodes;
  for (const StandaloneOperation* op : plan_.pre) {
    nodes.push_back({op->GetName(), op->Reads(), op->Writes()});
  }
  // The fused agent loop is ONE node -- its ops interleave per agent, so
  // the node's footprint is the union of the due agent ops' footprints.
  if (!plan_.agent.empty()) {
    OpDagNode agent_node{"agent_ops", 0, 0};
    for (const AgentOperation* op : plan_.agent) {
      agent_node.reads |= op->Reads();
      agent_node.writes |= op->Writes();
    }
    nodes.push_back(std::move(agent_node));
  }
  for (const StandaloneOperation* op : plan_.post) {
    nodes.push_back({op->GetName(), op->Reads(), op->Writes()});
  }
  iteration_dag_ = OpDag::FromPipeline(std::move(nodes));
  return iteration_dag_;
}

void Scheduler::RunAgentStage(const std::vector<AgentOperation*>& due) {
  sim_->GetResourceManager()->ForEachAgentParallel(
      [&](Agent* agent, AgentHandle handle, int tid) {
        for (AgentOperation* op : due) {
          op->Run(agent, handle, tid, sim_);
        }
      });
}

void Scheduler::RunPlan(TimingAggregator* timing) {
  const auto run = [&](StandaloneOperation* op) {
    ScopedTimer timer(timing, op->GetName(), iteration_);
    op->Run(sim_);
  };
  for (StandaloneOperation* op : plan_.pre) {
    run(op);
  }
  if (!plan_.agent.empty()) {
    // Fused agent loop (Algorithm 1, L7-11): all due agent operations are
    // applied to an agent before moving to the next, maximizing data reuse
    // while the agent is cache-hot.
    ScopedTimer timer(timing, "agent_ops", iteration_);
    RunAgentStage(plan_.agent);
  }
  for (StandaloneOperation* op : plan_.post) {
    run(op);
  }
}

void Scheduler::ExecuteIteration() {
  const auto iteration_start = std::chrono::steady_clock::now();
  {
    // Trace-only envelope around the whole step (a TimingAggregator bucket
    // here would double-count every op in GrandTotalSeconds).
    TraceSpan iteration_span("iteration", iteration_);
    BuildPlan();
    RunPlan(sim_->GetTiming());
  }

  // Fold every worker's counter shard into the global totals. This runs
  // strictly between parallel regions -- the pool's dispatch barrier orders
  // all shard writes of this iteration's ops before the fold. The metrics
  // registry is process-global; when S lane threads step S shards
  // concurrently, flushing here would race with ops on other lanes still
  // writing their shards. The shard driver flushes once after its
  // iteration barrier instead; only slot-0 (main-thread) iterations flush
  // inline.
  if (MetricsRegistry::Enabled() && NumaThreadPool::CurrentThreadSlot() == 0) {
    MetricsRegistry::Get().FlushShards();
  }

  if (snapshot_fn_ && iteration_ % snapshot_interval_ == 0) {
    IterationSnapshot snapshot;
    snapshot.iteration = iteration_;
    snapshot.seconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - iteration_start)
                           .count();
    snapshot.metrics = MetricsRegistry::Get().Snapshot();
    snapshot_fn_(snapshot);
  }

  ++iteration_;
}

void Scheduler::SetSnapshotCallback(SnapshotFn fn, int interval) {
  snapshot_fn_ = std::move(fn);
  snapshot_interval_ = interval < 1 ? 1 : interval;
}

void Scheduler::WriteTimingJson(std::ostream& out,
                                const std::string& indent) const {
  const TimingAggregator* timing = sim_->GetTiming();
  out << indent << "\"simulation\": \"" << sim_->GetName() << "\",\n"
      << indent << "\"iterations\": " << iteration_ << ",\n"
      << indent << "\"grand_total_seconds\": " << timing->GrandTotalSeconds()
      << ",\n"
      << indent << "\"timing\": {";
  bool first = true;
  for (const auto& [name, entry] : timing->raw()) {
    out << (first ? "\n" : ",\n") << indent << "  \"" << name
        << "\": {\"seconds\": " << entry.seconds
        << ", \"count\": " << entry.count << "}";
    first = false;
  }
  out << "\n" << indent << "}";
}

void Scheduler::WriteMetricsJson(std::ostream& out) {
  const MetricsSnapshot metrics = MetricsRegistry::Get().Snapshot();
  out << "  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : metrics.counters) {
    out << (first ? "\n" : ",\n") << "    \"" << name << "\": " << value;
    first = false;
  }
  out << "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : metrics.gauges) {
    out << (first ? "\n" : ",\n") << "    \"" << name << "\": " << value;
    first = false;
  }
  out << "\n  }";
}

void Scheduler::DumpObservability(std::ostream& out) const {
  out << "{\n";
  WriteTimingJson(out, "  ");
  out << ",\n";
  WriteMetricsJson(out);
  out << "\n}\n";
}

bool Scheduler::DumpObservability(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  DumpObservability(out);
  return true;
}

}  // namespace bdm
