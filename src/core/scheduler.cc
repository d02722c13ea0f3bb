#include "core/scheduler.h"

#include <algorithm>
#include <cassert>
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
  plan_.standalone.clear();
  plan_.agent_node = -1;
  plan_.due_agent_ops.clear();
  std::vector<OpDagNode> nodes;
  for (auto& op : pre_ops_) {
    if (op->IsDue(iteration_)) {
      nodes.push_back({op->GetName(), op->Reads(), op->Writes()});
      plan_.standalone.push_back(op.get());
    }
  }
  // The fused agent loop is ONE node -- its ops interleave per agent, so
  // the node's footprint is the union of the due agent ops' footprints.
  uint8_t agent_reads = 0;
  uint8_t agent_writes = 0;
  for (auto& op : agent_ops_) {
    if (op->IsDue(iteration_)) {
      plan_.due_agent_ops.push_back(op.get());
      agent_reads |= op->Reads();
      agent_writes |= op->Writes();
    }
  }
  if (!plan_.due_agent_ops.empty()) {
    plan_.agent_node = static_cast<int>(nodes.size());
    nodes.push_back({"agent_ops", agent_reads, agent_writes});
    plan_.standalone.push_back(nullptr);
  }
  for (auto& op : post_ops_) {
    if (op->IsDue(iteration_)) {
      nodes.push_back({op->GetName(), op->Reads(), op->Writes()});
      plan_.standalone.push_back(op.get());
    }
  }
  plan_.dag = OpDag::FromPipeline(std::move(nodes));
}

const OpDag& Scheduler::GetIterationDag() {
  BuildPlan();
  return plan_.dag;
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
  const int n = plan_.dag.size();
  // Per-node wall times, one writer each (the thread running the node);
  // folded into the EMA after the last node.
  std::vector<double> seconds(n, 0);
  const auto body = [&](int i) {
    const auto start = std::chrono::steady_clock::now();
    if (i == plan_.agent_node) {
      // Fused agent loop (Algorithm 1, L7-11): all due agent operations are
      // applied to an agent before moving to the next, maximizing data
      // reuse while the agent is cache-hot.
      ScopedTimer timer(timing, "agent_ops", iteration_);
      RunAgentStage(plan_.due_agent_ops);
    } else {
      StandaloneOperation* op = plan_.standalone[i];
      ScopedTimer timer(timing, op->GetName(), iteration_);
      op->Run(sim_);
    }
    seconds[i] = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  };
  NumaThreadPool* pool = sim_->GetThreadPool();
  // Inline on a lane thread (a shard lane stepping its shard): a nested
  // executor would carve worker teams overlapping the outer executor's
  // grants, while the calling lane's team already scopes every pool
  // dispatch. Inline too when no thread slot is left past the workers for
  // an op lane (the shared shard spaces are kMaxSlots-capped).
  if (NumaThreadPool::OnLaneThread() ||
      pool->NumThreads() + 2 > MetricsRegistry::kMaxSlots) {
    for (const int i : plan_.dag.TopologicalOrder()) {
      body(i);
    }
  } else {
    if (dag_exec_ == nullptr) {
      dag_exec_ = std::make_unique<DagExecutor>(pool, kOpLanes);
    }
    std::vector<double> weights(n, 0);
    for (int i = 0; i < n; ++i) {
      auto it = op_cost_ema_.find(plan_.dag.node(i).name);
      weights[i] = it != op_cost_ema_.end() ? it->second : 0;
    }
    dag_exec_->Execute(plan_.dag, body, weights);
    // DAG sink: every node completed and every lane's pool dispatch
    // returned, so the "strictly between parallel regions" precondition of
    // the shard folds in ExecuteIteration (timing Fold, metric FlushShards)
    // holds here.
    assert(pool->Quiescent() && "op DAG sink reached with pool jobs in flight");
  }
  for (int i = 0; i < n; ++i) {
    double& ema = op_cost_ema_[plan_.dag.node(i).name];
    ema = ema == 0 ? seconds[i] : 0.7 * ema + 0.3 * seconds[i];
  }
}

void Scheduler::ExecuteIteration() {
  TimingAggregator* timing = sim_->GetTiming();
  const auto iteration_start = std::chrono::steady_clock::now();
  {
    // Trace-only envelope around the whole step (a TimingAggregator bucket
    // here would double-count every op in GrandTotalSeconds).
    TraceSpan iteration_span("iteration", iteration_);
    BuildPlan();
    RunPlan(timing);
  }

  // Fold every worker's counter shard into the global totals. This runs
  // strictly between parallel regions -- the pool's dispatch barrier (and on
  // the executor the DAG sink, asserted in RunPlan) orders all shard writes
  // of this iteration before the folds.
  timing->Fold();
  // The metrics registry is process-global; when S lane threads step S
  // shards concurrently, flushing here would race with ops on other lanes
  // still writing their shards. The shard driver flushes once after its
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

Scheduler::IterationSnapshot Scheduler::TakeSnapshot() const {
  IterationSnapshot snapshot;
  snapshot.iteration = iteration_;
  snapshot.metrics = MetricsRegistry::Get().Snapshot();
  return snapshot;
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
