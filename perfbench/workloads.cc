#include "workloads.h"

#include <cmath>
#include <stdexcept>

#include "continuum/diffusion_grid.h"
#include "core/agent.h"
#include "core/cell.h"
#include "core/consistency_audit.h"
#include "core/resource_manager.h"
#include "core/scheduler.h"
#include "core/simulation.h"
#include "core/soa_dirty.h"
#include "math/random.h"
#include "models/common_behaviors.h"
#include "models/registry.h"
#include "obs/metrics.h"
#include "shard/sharded_simulation.h"

namespace bdm::perfbench {

namespace {

// Sizes come from sizing runs at 4 threads (see workload_set.json); the
// iteration rates make a timed run last about --seconds on that host.
const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> specs = {
      {.name = "clustering",
       .agents = 100'000,
       .iterations_per_second = 18,
       .trace_iterations_per_second = 6,
       .single_thread_iterations = 20},
      {.name = "oncology",
       .agents = 100'000,
       .iterations_per_second = 8,
       .trace_iterations_per_second = 3,
       .single_thread_iterations = 10},
      {.name = "shard4",
       .agents = 50'000,
       .iterations_per_second = 15,
       .trace_iterations_per_second = 5,
       .single_thread_iterations = 20},
  };
  return specs;
}

std::string FirstOf(const std::vector<std::string>& violations) {
  return violations.empty() ? std::string() : violations.front();
}

bool PositionsFinite(ResourceManager* rm) {
  bool finite = true;
  rm->ForEachAgent([&](Agent* agent, AgentHandle) {
    const Real3& p = agent->GetPosition();
    finite = finite && std::isfinite(p.x) && std::isfinite(p.y) &&
             std::isfinite(p.z);
  });
  return finite;
}

double VoxelUpdates(Simulation* sim) {
  double updates = 0;
  for (DiffusionGrid* grid : sim->GetAllDiffusionGrids()) {
    updates += static_cast<double>(grid->GetNumVolumes()) *
               grid->SubstepsFor(sim->GetParam().dt);
  }
  return updates;
}

/// A Table-1 model from the registry on a plain Simulation.
class ModelInstance : public Instance {
 public:
  ModelInstance(const WorkloadSpec& spec, uint64_t seed, int threads)
      : info_(models::FindModel(spec.name)),
        sim_(spec.name, MakeParam(info_, seed, threads)) {
    info_->build(&sim_, spec.agents);
    initial_ = Population();
  }

  uint64_t Population() override {
    return sim_.GetResourceManager()->GetNumAgents();
  }

  void Step() override { sim_.Simulate(1); }

  void EnableTrace(LayerTrace* trace) override {
    InstallTracedPipeline(&sim_, trace);
  }

  void TracedStep(LayerTrace* trace) override {
    const auto start = Clock::now();
    sim_.Simulate(1);
    trace->Record("scheduler_iteration", start, Clock::now(), "iteration");
    trace->FoldAgentStages();
  }

  void Check(Checks* checks) override {
    const auto violations = ConsistencyAudit::CheckAll(&sim_);
    checks->Expect(violations.empty(),
                   "consistency audit: " + FirstOf(violations));
    checks->Expect(PositionsFinite(sim_.GetResourceManager()),
                   "non-finite agent position");
    const uint64_t population = Population();
    if (!info_->creates_agents && !info_->deletes_agents) {
      checks->Expect(population == initial_,
                     "population changed: " + std::to_string(initial_) +
                         " -> " + std::to_string(population));
    } else {
      const auto& registry = MetricsRegistry::Get();
      const int64_t net =
          static_cast<int64_t>(registry.CounterTotal("commit.agents_added")) -
          static_cast<int64_t>(registry.CounterTotal("commit.agents_removed"));
      checks->Expect(
          net == static_cast<int64_t>(population) -
                     static_cast<int64_t>(initial_),
          "commit counters (net " + std::to_string(net) +
              ") disagree with the population change " +
              std::to_string(initial_) + " -> " + std::to_string(population));
    }
  }

  int NumChecks() const override { return 3; }

  std::vector<std::pair<std::string, uint64_t>> ExactCounts() override {
    // Births and deaths draw from per-thread RNG streams, so only a model
    // with a constant population repeats its count exactly at 4 threads.
    if (info_->creates_agents || info_->deletes_agents) {
      return {};
    }
    return {{"population", Population()}};
  }

  double VoxelUpdatesPerIteration() override { return VoxelUpdates(&sim_); }
  bool Sharded() const override { return false; }

 private:
  static Param MakeParam(const models::ModelInfo* info, uint64_t seed,
                         int threads) {
    if (info == nullptr) {
      throw std::invalid_argument("unknown model");
    }
    Param param;
    if (info->configure != nullptr) {
      info->configure(&param);
    }
    param.num_threads = threads;
    param.num_numa_domains = 1;
    param.random_seed = seed;
    return param;
  }

  const models::ModelInfo* info_;
  Simulation sim_;
  uint64_t initial_ = 0;
};

/// bench_shard's secreting relaxation on S = 4 in-process shards over the
/// mailbox transport, shards stepping sequentially (the default).
class ShardInstance : public Instance {
 public:
  static constexpr int kShards = 4;
  static constexpr int kResolution = 32;
  /// Deposit per unit time of every agent (0.1 per iteration at dt = 0.01).
  static constexpr real_t kSecretionRate = 10;

  ShardInstance(const WorkloadSpec& spec, uint64_t seed, int threads)
      : n_(spec.agents),
        space_(static_cast<real_t>(8.2 * std::cbrt(static_cast<double>(n_)))),
        sim_("shard4", MakeParam(seed, threads), {0, 0, 0},
             {space_, space_, space_}, kShards) {
    sim_.AddDiffusionGrid([] {
      auto grid = std::make_unique<DiffusionGrid>(
          "oxygen", /*diffusion_coefficient=*/40, /*decay=*/0, kResolution);
      grid->SetBoundaryCondition(DiffusionGrid::BoundaryCondition::kClosed);
      return grid;
    });
    std::vector<DiffusionGrid*> grids;
    const real_t mid = space_ / 2;
    for (int s = 0; s < kShards; ++s) {
      Simulation* shard = sim_.GetShard(s)->sim();
      Simulation* previous = Simulation::SetActive(shard);
      grids.push_back(shard->GetAllDiffusionGrids()[0]);
      grids.back()->SetInitialValue([mid](const Real3& p) {
        return 1 + (p - Real3{mid, mid, mid}).Norm() * real_t{0.01};
      });
      Simulation::SetActive(previous);
    }
    initial_mass_ = FieldMass();
    Random random(seed);
    for (uint64_t i = 0; i < n_; ++i) {
      sim_.AddAgent(new Cell(random.UniformPoint(0, space_), 8));
    }
    for (int s = 0; s < kShards; ++s) {
      sim_.GetShard(s)->sim()->GetResourceManager()->ForEachAgent(
          [&](Agent* agent, AgentHandle) {
            agent->AddBehavior(new models::Secretion(grids[s], kSecretionRate));
          });
    }
  }

  uint64_t Population() override { return sim_.TotalOwned(); }

  void Step() override {
    sim_.Simulate(1);
    ++iterations_;
  }

  void EnableTrace(LayerTrace* trace) override {
    for (int s = 0; s < kShards; ++s) {
      Simulation* shard = sim_.GetShard(s)->sim();
      Simulation* previous = Simulation::SetActive(shard);
      InstallTracedPipeline(shard, trace);
      Simulation::SetActive(previous);
    }
    traced_ = true;
  }

  // ShardedSimulation::Simulate's iteration (S > 1, sequential stepping,
  // audits off) through its public calls, with a span around each.
  void TracedStep(LayerTrace* trace) override {
    auto start = Clock::now();
    sim_.Exchange();
    trace->Record("exchange", start, Clock::now(), "iteration");
    Simulation* previous = Simulation::GetActive();
    for (int s = 0; s < kShards; ++s) {
      Simulation* shard = sim_.GetShard(s)->sim();
      Simulation::SetActive(shard);
      start = Clock::now();
      shard->Simulate(1);
      trace->Record("scheduler_iteration", start, Clock::now(), "iteration");
      trace->FoldAgentStages();
      if (soa::g_aos_geometry_dirty.load(std::memory_order_relaxed)) {
        shard->GetResourceManager()->GetSoaStore().MarkGeometryStale();
      }
    }
    Simulation::SetActive(previous);
    if (sim_.HasFields()) {
      start = Clock::now();
      sim_.FieldExchange();
      trace->Record("field_exchange", start, Clock::now(), "iteration");
      start = Clock::now();
      sim_.StepFields();
      trace->Record("field_step", start, Clock::now(), "iteration");
    }
    MetricsRegistry::Get().FlushShards();
    ++iterations_;
  }

  void Check(Checks* checks) override {
    std::vector<std::string> violations;
    bool finite = true;
    for (int s = 0; s < kShards; ++s) {
      Simulation* shard = sim_.GetShard(s)->sim();
      Simulation* previous = Simulation::SetActive(shard);
      for (const std::string& v : ConsistencyAudit::CheckAll(shard)) {
        violations.push_back("shard " + std::to_string(s) + ": " + v);
      }
      finite = finite && PositionsFinite(shard->GetResourceManager());
      Simulation::SetActive(previous);
    }
    checks->Expect(violations.empty(),
                   "consistency audit: " + FirstOf(violations));
    checks->Expect(finite, "non-finite agent position");
    checks->Expect(sim_.TotalOwned() == n_,
                   "owned agents " + std::to_string(sim_.TotalOwned()) +
                       " != " + std::to_string(n_));
    // Closed boundary and zero decay: the field gains exactly the deposits.
    const double expected =
        initial_mass_ + static_cast<double>(n_) * kSecretionRate *
                            sim_.GetParam().dt *
                            static_cast<double>(iterations_);
    const double mass = FieldMass();
    const double error = std::fabs(mass - expected) / std::fabs(expected);
    checks->Expect(error <= 1e-9, "field mass " + std::to_string(mass) +
                                      " vs expected " +
                                      std::to_string(expected));
    if (traced_) {
      sim_.Exchange();
      const auto shard_violations = ConsistencyAudit::CheckShards(&sim_);
      checks->Expect(shard_violations.empty(),
                     "CheckShards: " + FirstOf(shard_violations));
    }
  }

  int NumChecks() const override { return traced_ ? 5 : 4; }

  std::vector<std::pair<std::string, uint64_t>> ExactCounts() override {
    const auto& registry = MetricsRegistry::Get();
    return {{"halo_records", registry.CounterTotal("shard/halo_agents_sent")},
            {"exchange_bytes", registry.CounterTotal("shard/exchange_bytes")},
            {"migrations", registry.CounterTotal("shard/migrations")},
            {"field_halo_bytes",
             registry.CounterTotal("shard/field_halo_bytes")}};
  }

  double VoxelUpdatesPerIteration() override {
    double updates = 0;
    for (int s = 0; s < kShards; ++s) {
      updates += VoxelUpdates(sim_.GetShard(s)->sim());
    }
    return updates;
  }

  bool Sharded() const override { return true; }

 private:
  static Param MakeParam(uint64_t seed, int threads) {
    Param param;
    param.num_threads = threads;
    param.num_numa_domains = 1;
    param.random_seed = seed;
    // bench_shard's settings: one neighbour-search radius for every shard
    // (the halo width must cover it exactly) and no force/displacement
    // cutoffs, which would break the pairwise antisymmetry across shards.
    param.fixed_box_length = 10;
    param.force_threshold_squared = 0;
    param.max_displacement = 1e9;
    return param;
  }

  double FieldMass() {
    double mass = 0;
    for (int s = 0; s < kShards; ++s) {
      Simulation* shard = sim_.GetShard(s)->sim();
      Simulation* previous = Simulation::SetActive(shard);
      for (DiffusionGrid* grid : shard->GetAllDiffusionGrids()) {
        mass += grid->OwnedMass();
      }
      Simulation::SetActive(previous);
    }
    return mass;
  }

  uint64_t n_;
  real_t space_;
  shard::ShardedSimulation sim_;
  double initial_mass_ = 0;
  uint64_t iterations_ = 0;
  bool traced_ = false;
};

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) {
      return &spec;
    }
  }
  return nullptr;
}

std::unique_ptr<Instance> MakeInstance(const WorkloadSpec& spec, uint64_t seed,
                                       int threads) {
  if (spec.name == "shard4") {
    return std::make_unique<ShardInstance>(spec, seed, threads);
  }
  return std::make_unique<ModelInstance>(spec, seed, threads);
}

}  // namespace bdm::perfbench
