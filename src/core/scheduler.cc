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
  InvalidatePlans();
}

void Scheduler::AppendAgentOp(std::unique_ptr<AgentOperation> op) {
  agent_ops_.push_back(std::move(op));
  InvalidatePlans();
}

void Scheduler::AppendPostOp(std::unique_ptr<StandaloneOperation> op) {
  post_ops_.push_back(std::move(op));
  InvalidatePlans();
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
  if (removed) {
    // Cached plans hold raw pointers into the op lists and a DAG shape that
    // assumed the removed op's presence -- rebuild lazily next iteration.
    InvalidatePlans();
  }
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
  if (found != nullptr) {
    // The caller holds a mutable op and may change its frequency or
    // resource declaration; any cached DAG derived from the old footprint
    // would silently keep stale edges.
    InvalidatePlans();
  }
  return found;
}

bool Scheduler::UsesOpDag() const {
  if (!sim_->GetParam().op_dag) {
    return false;
  }
  // A lane-driven iteration (parallel shard stepping) stays sequential: a
  // nested DagExecutor would spawn its own lanes and carve worker teams
  // overlapping the outer executor's grants. The sequential op loop already
  // scopes every pool dispatch to the calling lane's team.
  if (NumaThreadPool::OnLaneThread()) {
    return false;
  }
  NumaThreadPool* pool = sim_->GetThreadPool();
  // Each executor lane needs a thread slot past the workers in the shared
  // shard spaces (metrics/timing/trace/deposit logs, all kMaxSlots-capped).
  return pool != nullptr &&
         pool->NumThreads() + 2 <= MetricsRegistry::kMaxSlots;
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

bool Scheduler::ComputeDueMask(uint64_t* mask) const {
  const size_t total = pre_ops_.size() + agent_ops_.size() + post_ops_.size();
  if (total > 64) {
    return false;
  }
  uint64_t m = 0;
  int bit = 0;
  for (const auto& op : pre_ops_) {
    m |= op->IsDue(iteration_) ? uint64_t{1} << bit : 0;
    ++bit;
  }
  for (const auto& op : agent_ops_) {
    m |= op->IsDue(iteration_) ? uint64_t{1} << bit : 0;
    ++bit;
  }
  for (const auto& op : post_ops_) {
    m |= op->IsDue(iteration_) ? uint64_t{1} << bit : 0;
    ++bit;
  }
  *mask = m;
  return true;
}

Scheduler::DagPlan& Scheduler::GetOrBuildPlan(uint64_t mask) {
  auto it = dag_plans_.find(mask);
  if (it != dag_plans_.end()) {
    return it->second;
  }
  DagPlan plan;
  std::vector<OpDagNode> nodes;
  int bit = 0;
  const auto due = [&] { return ((mask >> bit++) & 1) != 0; };
  for (auto& op : pre_ops_) {
    if (due()) {
      nodes.push_back({op->GetName(), op->Reads(), op->Writes()});
      plan.standalone.push_back(op.get());
    }
  }
  // The fused agent loop is ONE node -- its ops interleave per agent, so
  // the node's footprint is the union of the due agent ops' footprints.
  uint8_t agent_reads = 0;
  uint8_t agent_writes = 0;
  for (auto& op : agent_ops_) {
    if (due()) {
      plan.due_agent_ops.push_back(op.get());
      agent_reads |= op->Reads();
      agent_writes |= op->Writes();
    }
  }
  if (!plan.due_agent_ops.empty()) {
    plan.agent_node = static_cast<int>(nodes.size());
    nodes.push_back({"agent_ops", agent_reads, agent_writes});
    plan.standalone.push_back(nullptr);
  }
  for (auto& op : post_ops_) {
    if (due()) {
      nodes.push_back({op->GetName(), op->Reads(), op->Writes()});
      plan.standalone.push_back(op.get());
    }
  }
  plan.dag = OpDag::FromPipeline(std::move(nodes));
  return dag_plans_.emplace(mask, std::move(plan)).first->second;
}

const OpDag& Scheduler::GetIterationDag() {
  uint64_t mask = 0;
  const bool ok = ComputeDueMask(&mask);
  assert(ok && "pipeline exceeds 64 ops");
  (void)ok;
  return GetOrBuildPlan(mask).dag;
}

void Scheduler::RunAgentStage(const std::vector<AgentOperation*>& due) {
  if (due.empty()) {
    return;
  }
  sim_->GetResourceManager()->ForEachAgentParallel(
      [&](Agent* agent, AgentHandle handle, int tid) {
        for (AgentOperation* op : due) {
          op->Run(agent, handle, tid, sim_);
        }
      });
}

void Scheduler::RunIterationSequential(TimingAggregator* timing) {
  for (auto& op : pre_ops_) {
    if (!op->IsDue(iteration_)) {
      continue;
    }
    ScopedTimer timer(timing, op->GetName(), iteration_);
    op->Run(sim_);
  }

  // Fused agent loop (Algorithm 1, L7-11): all due agent operations are
  // applied to an agent before moving to the next, maximizing data reuse
  // while the agent is cache-hot.
  {
    ScopedTimer timer(timing, "agent_ops", iteration_);
    std::vector<AgentOperation*> due;
    for (auto& op : agent_ops_) {
      if (op->IsDue(iteration_)) {
        due.push_back(op.get());
      }
    }
    RunAgentStage(due);
  }

  for (auto& op : post_ops_) {
    if (!op->IsDue(iteration_)) {
      continue;
    }
    ScopedTimer timer(timing, op->GetName(), iteration_);
    op->Run(sim_);
  }
}

void Scheduler::RunIterationDag(TimingAggregator* timing) {
  uint64_t mask = 0;
  if (!ComputeDueMask(&mask)) {
    RunIterationSequential(timing);  // >64 ops: no mask key, stay sequential
    return;
  }
  DagPlan& plan = GetOrBuildPlan(mask);
  const int n = plan.dag.size();
  if (n == 0) {
    return;
  }
  NumaThreadPool* pool = sim_->GetThreadPool();
  if (dag_exec_ == nullptr) {
    // Up to 4 ops in flight covers the widest antichain the default
    // pipeline plus a few user ops produce; the executor further clamps to
    // the pool width and the shard-slot budget.
    dag_exec_ = std::make_unique<DagExecutor>(pool, 4);
  }
  std::vector<double> weights(n, 0);
  for (int i = 0; i < n; ++i) {
    const std::string& name =
        i == plan.agent_node ? plan.dag.node(i).name : plan.standalone[i]->GetName();
    auto it = op_cost_ema_.find(name);
    weights[i] = it != op_cost_ema_.end() ? it->second : 0;
  }
  // Per-node wall times, one writer each (the lane running the node);
  // folded into the EMA after the barrier below.
  std::vector<double> seconds(n, 0);
  dag_exec_->Execute(
      plan.dag,
      [&](int i) {
        const auto start = std::chrono::steady_clock::now();
        if (i == plan.agent_node) {
          ScopedTimer timer(timing, "agent_ops", iteration_);
          RunAgentStage(plan.due_agent_ops);
        } else {
          StandaloneOperation* op = plan.standalone[i];
          ScopedTimer timer(timing, op->GetName(), iteration_);
          op->Run(sim_);
        }
        seconds[i] = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
      },
      weights);
  // DAG sink: every node completed and every lane's pool dispatch returned,
  // so the "strictly between parallel regions" precondition of the shard
  // folds below (timing Fold, metric FlushShards) holds here.
  assert(pool->Quiescent() && "op DAG sink reached with pool jobs in flight");
  (void)pool;
  for (int i = 0; i < n; ++i) {
    const std::string& name = plan.dag.node(i).name;
    double& ema = op_cost_ema_[name];
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
    if (UsesOpDag()) {
      RunIterationDag(timing);
    } else {
      RunIterationSequential(timing);
    }
  }

  // Fold every worker's counter shard into the global totals. This runs
  // strictly between parallel regions -- the pool's dispatch barrier (and in
  // DAG mode the executor's sink, asserted above) orders all shard writes of
  // this iteration before the folds.
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

void Scheduler::DumpObservability(std::ostream& out) const {
  const TimingAggregator* timing = sim_->GetTiming();
  out << "{\n  \"simulation\": \"" << sim_->GetName() << "\",\n"
      << "  \"iterations\": " << iteration_ << ",\n"
      << "  \"grand_total_seconds\": " << timing->GrandTotalSeconds() << ",\n";
  out << "  \"timing\": {";
  bool first = true;
  for (const auto& [name, entry] : timing->raw()) {
    out << (first ? "\n" : ",\n") << "    \"" << name
        << "\": {\"seconds\": " << entry.seconds
        << ", \"count\": " << entry.count << "}";
    first = false;
  }
  out << "\n  },\n";
  const MetricsSnapshot metrics = MetricsRegistry::Get().Snapshot();
  out << "  \"counters\": {";
  first = true;
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
  out << "\n  }\n}\n";
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
