#include "shard/sharded_simulation.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "continuum/diffusion_grid.h"
#include "core/consistency_audit.h"
#include "core/resource_manager.h"
#include "core/scheduler.h"
#include "core/soa_dirty.h"
#include "core/timing.h"
#include "memory/memory_manager.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sched/numa_thread_pool.h"

namespace bdm::shard {

namespace {

// Trace thread-slot base for per-shard tracks: far past the pool workers
// and the op-DAG lane slots, so shard tracks never collide with either.
constexpr int kShardTraceSlotBase = 4096;

}  // namespace

ShardedSimulation::ShardedSimulation(const std::string& name,
                                     const Param& param, const Real3& lower,
                                     const Real3& upper, int num_shards)
    : ShardedSimulation(name, param, lower, upper, num_shards, nullptr, 0,
                        num_shards) {}

ShardedSimulation::ShardedSimulation(const std::string& name,
                                     const Param& param, const Real3& lower,
                                     const Real3& upper, int num_shards,
                                     std::unique_ptr<ShardTransport> transport,
                                     int local_begin, int local_end)
    : name_(name),
      param_(param),
      global_lower_(lower),
      global_upper_(upper),
      topology_(param_.ResolveNumThreads(), param_.num_numa_domains),
      num_shards_(num_shards),
      local_begin_(local_begin) {
  if (local_begin < 0 || local_end > num_shards || local_begin >= local_end) {
    throw std::invalid_argument(
        "ShardedSimulation: local shard range [" + std::to_string(local_begin) +
        ", " + std::to_string(local_end) + ") out of bounds");
  }
  // The per-shard simulations re-apply the overrides for their own
  // schedulers; this copy feeds the knobs the shard layer itself consumes.
  ApplyEnvOverrides(&param_);

  // Process-global observability setup, done exactly once for all shards
  // (the shards' service-sharing constructors skip it; see simulation.cc).
  auto& registry = MetricsRegistry::Get();
  registry.ConfigureSlots(topology_.NumThreads() + 1);
  registry.SetEnabled(param_.collect_metrics);
  registry.Reset();
  if (std::getenv("BDM_TRACE") != nullptr) {
    TraceRecorder::Get().Start(name_);
  }
  halo_sent_id_ = registry.RegisterCounter("shard/halo_agents_sent");
  migrations_id_ = registry.RegisterCounter("shard/migrations");
  exchange_bytes_id_ = registry.RegisterCounter("shard/exchange_bytes");
  ghost_gauge_id_ = registry.RegisterGauge("shard/ghost_count");
  field_halo_bytes_id_ = registry.RegisterCounter("shard/field_halo_bytes");
  field_halo_planes_id_ = registry.RegisterCounter("shard/field_halo_planes");
  field_deposits_id_ =
      registry.RegisterCounter("shard/field_deposits_forwarded");

  pool_ = std::make_unique<NumaThreadPool>(topology_);
  const int num_local = local_end - local_begin;
  if (num_local > 1) {
    // Shard lanes live in the thread-slot range past the workers AND past
    // the 4 op-DAG lane slots a shard stepped on the main thread uses, so
    // the two executor kinds never share a metrics/timing/allocator slot.
    // The executor throws std::invalid_argument when the pool is too wide
    // to leave a slot for even one lane.
    shard_exec_ = std::make_unique<DagExecutor>(
        pool_.get(), num_local, pool_->NumThreads() + 1 + 4, "shard lane");
    // Edgeless DAG: the exchange barrier (Exchange/FieldExchange run before
    // and after on the main thread) is the only ordering the shards need
    // within an iteration -- every node is immediately ready.
    std::vector<OpDagNode> nodes(static_cast<size_t>(num_local));
    for (int s = 0; s < num_local; ++s) {
      nodes[static_cast<size_t>(s)].name =
          "shard" + std::to_string(local_begin + s);
      nodes[static_cast<size_t>(s)].reads = 0;
      nodes[static_cast<size_t>(s)].writes = 0;
    }
    shard_dag_ = OpDag::FromEdges(std::move(nodes), {});
  }
  if (param_.use_bdm_memory_manager) {
    memory_manager_ = std::make_unique<MemoryManager>(topology_, param_.memory);
    MemoryManager::SetGlobal(memory_manager_.get());
  }
  uid_generator_ = std::make_unique<AgentUidGenerator>();

  extents_ = spatial::UniformShardExtents(lower, upper, num_shards);
  transport_ = transport != nullptr
                   ? std::move(transport)
                   : std::make_unique<MailboxTransport>(num_shards);

  Simulation::SharedServices services;
  services.pool = pool_.get();
  services.memory_manager = memory_manager_.get();
  services.uid_generator = uid_generator_.get();
  Simulation* previous = Simulation::GetActive();
  shards_.reserve(static_cast<size_t>(num_local));
  for (int s = local_begin; s < local_end; ++s) {
    auto shard = std::make_unique<Shard>(s, num_shards, extents_[s],
                                         name_ + "_shard" + std::to_string(s),
                                         param_, services);
    Simulation::SetActive(shard->sim());
    if (num_shards > 1) {
      // The field step moves to the shard layer (StepFields, after the
      // field halo exchange): a per-shard DiffusionOp would sweep the
      // stencil BEFORE neighbor deposits and ghost planes arrive.
      shard->sim()->GetScheduler()->RemoveOp("diffusion");
    }
    shards_.push_back(std::move(shard));
    TraceRecorder::Get().SetThreadName(kShardTraceSlotBase + s,
                                       "shard " + std::to_string(s));
  }
  Simulation::SetActive(previous);
}

ShardedSimulation::~ShardedSimulation() {
  // End-of-run observability for the whole shard set. The metrics registry
  // is process-global (all shards share the counters); the timing tree is
  // per-shard, so the dump reports shard 0's -- point BDM_OBS_JSON at an
  // unsharded run for a per-op timing capture.
  if (const char* path = std::getenv("BDM_OBS_JSON")) {
    if (!shards_.empty() &&
        !shards_.front()->sim()->GetScheduler()->DumpObservability(
            std::string(path))) {
      std::fprintf(stderr, "BDM_OBS_JSON: cannot open %s for writing\n", path);
    }
  }
  if (const char* path = std::getenv("BDM_TRACE")) {
    TraceRecorder::Get().Stop(path);
  }
  // Members tear down in reverse declaration order: shards (agents,
  // schedulers) first, then the shared uid generator, memory manager
  // (clears the global allocator pointer), and pool.
}

void ShardedSimulation::AddAgent(Agent* agent) {
  const int s = spatial::LocateShard(extents_, agent->GetPosition());
  if (!IsLocal(s)) {
    // Multi-process run: every rank feeds the same global initial
    // population, each keeps only its own block. Dropping (instead of
    // shipping) keeps the per-rank uid streams equal to what a migration-
    // free single-process run assigns per shard.
    delete agent;
    return;
  }
  Simulation* previous = Simulation::SetActive(GetShard(s)->sim());
  GetShard(s)->sim()->GetResourceManager()->AddAgent(agent);
  Simulation::SetActive(previous);
}

void ShardedSimulation::AddDiffusionGrid(
    const std::function<std::unique_ptr<DiffusionGrid>()>& factory) {
  Simulation* previous = Simulation::GetActive();
  if (num_shards_ == 1) {
    // Unsharded degenerate case: one grid over the whole volume, stepped by
    // the shard's own DiffusionOp -- bitwise identical to a plain Simulation.
    Simulation::SetActive(shards_[0]->sim());
    shards_[0]->sim()->AddDiffusionGrid(factory(), global_lower_,
                                        global_upper_);
    Simulation::SetActive(previous);
    return;
  }

  // Probe grid over the GLOBAL box: the authoritative voxel length and
  // substep count come from the exact arithmetic an unsharded grid runs, so
  // the shard views (which recompute the same frame) cannot drift from it.
  std::unique_ptr<DiffusionGrid> probe = factory();
  const int64_t res = probe->GetResolution();
  probe->Initialize(global_lower_, global_upper_);
  const real_t h = probe->GetVoxelLength();
  const int substeps = probe->SubstepsFor(param_.dt);
  // Ghost width: the stencil invalidates one ghost plane per substep from
  // every non-global window edge (sacrificial stepping), so after k
  // substeps planes at depth >= k are still exact. Owned voxels need
  // depth >= k; post-step concentration reads touch one ghost plane and
  // gradient reads touch two, so k + 2 keeps both bitwise.
  const int64_t ghost_width = substeps + 2;

  // Voxel ownership: the shard whose extent contains the voxel center,
  // decided by the SAME LocateShard the agent layer uses (centers computed
  // bitwise as the grid computes them). Owned voxel sets must come out as
  // one box per shard -- guaranteed for the uniform power-of-two bisection
  // -- and tile the lattice exactly.
  const int num_shards = num_shards_;
  struct OwnedBox {
    int64_t lo[3] = {0, 0, 0};
    int64_t hi[3] = {0, 0, 0};
    int64_t count = 0;
  };
  std::vector<OwnedBox> owned(num_shards);
  for (OwnedBox& box : owned) {
    for (int c = 0; c < 3; ++c) {
      box.lo[c] = res;
      box.hi[c] = 0;
    }
  }
  for (int64_t z = 0; z < res; ++z) {
    for (int64_t y = 0; y < res; ++y) {
      for (int64_t x = 0; x < res; ++x) {
        const Real3 center = {global_lower_.x + x * h,
                              global_lower_.y + y * h,
                              global_lower_.z + z * h};
        const int s = spatial::LocateShard(extents_, center);
        OwnedBox& box = owned[s];
        const int64_t v[3] = {x, y, z};
        for (int c = 0; c < 3; ++c) {
          box.lo[c] = std::min(box.lo[c], v[c]);
          box.hi[c] = std::max(box.hi[c], v[c] + 1);
        }
        ++box.count;
      }
    }
  }
  int64_t total = 0;
  for (const OwnedBox& box : owned) {
    if (box.count == 0) {
      throw std::logic_error(
          "AddDiffusionGrid: a shard owns no voxel plane; raise the grid "
          "resolution above the shard count per axis");
    }
    const int64_t volume = (box.hi[0] - box.lo[0]) * (box.hi[1] - box.lo[1]) *
                           (box.hi[2] - box.lo[2]);
    if (volume != box.count) {
      throw std::logic_error(
          "AddDiffusionGrid: a shard's owned voxel set is not a box");
    }
    total += box.count;
  }
  if (total != res * res * res) {
    throw std::logic_error(
        "AddDiffusionGrid: voxel ownership does not tile the lattice");
  }

  // Every shard's view window is pure arithmetic over its owned box -- the
  // same formula InitializeShardView evaluates -- so a rank can compute a
  // REMOTE shard's window without materializing its grid.
  const auto window_lo = [&](int s, int c) {
    return owned[s].lo[c] - std::min<int64_t>(ghost_width, owned[s].lo[c]);
  };
  const auto window_hi = [&](int s, int c) {
    return owned[s].hi[c] + std::min<int64_t>(ghost_width, res - owned[s].hi[c]);
  };

  // Build one shard-view grid per LOCAL shard: owned box plus ghost planes,
  // clipped at global faces (where the window edge coincides with the real
  // boundary and the BoundaryCondition applies exactly).
  const uint32_t grid_index = static_cast<uint32_t>(
      shards_.front()->sim()->GetAllDiffusionGrids().size());
  std::vector<DiffusionGrid*> views(num_shards, nullptr);
  for (int s = local_begin_; s < local_begin_ + NumLocalShards(); ++s) {
    std::unique_ptr<DiffusionGrid> view = factory();
    if (view->GetResolution() != res) {
      throw std::logic_error(
          "AddDiffusionGrid: factory returned grids of differing resolution");
    }
    int64_t ghost_lo[3], ghost_hi[3];
    for (int c = 0; c < 3; ++c) {
      ghost_lo[c] = std::min<int64_t>(ghost_width, owned[s].lo[c]);
      ghost_hi[c] = std::min<int64_t>(ghost_width, res - owned[s].hi[c]);
    }
    view->InitializeShardView(global_lower_, global_upper_, owned[s].lo,
                              owned[s].hi, ghost_lo, ghost_hi, pool_.get());
    Simulation::SetActive(GetShard(s)->sim());
    views[s] = GetShard(s)->sim()->AdoptDiffusionGrid(std::move(view));
    for (int c = 0; c < 3; ++c) {
      if (views[s]->WindowLo(c) != window_lo(s, c) ||
          views[s]->WindowHi(c) != window_hi(s, c)) {
        throw std::logic_error(
            "AddDiffusionGrid: arithmetic window disagrees with the "
            "initialized shard view");
      }
    }
  }
  Simulation::SetActive(previous);

  // Boundary slab geometry: for each ordered pair (a, b) the voxels shard a
  // must send shard b are intersect(a.owned, b.window) -- one rectangular
  // box per pair per grid that automatically covers face, edge, and corner
  // adjacency. The same box is registered as b's receive slab from a, so
  // the delta codec state stays symmetric by construction (also across
  // ranks: both endpoints derive it from the same arithmetic windows).
  for (int a = local_begin_; a < local_begin_ + NumLocalShards(); ++a) {
    std::vector<Shard::FieldSlab> send;
    std::vector<Shard::FieldSlab> recv;
    for (int b = 0; b < num_shards; ++b) {
      if (b == a) {
        continue;
      }
      Shard::FieldSlab slab;
      slab.grid_index = grid_index;
      bool empty = false;
      for (int c = 0; c < 3; ++c) {
        slab.lo[c] = std::max(owned[a].lo[c], window_lo(b, c));
        slab.hi[c] = std::min(owned[a].hi[c], window_hi(b, c));
        empty = empty || slab.lo[c] >= slab.hi[c];
      }
      if (!empty) {
        slab.peer = b;
        slab.grid = views[a];
        send.push_back(slab);
      }
      Shard::FieldSlab rslab;
      rslab.grid_index = grid_index;
      empty = false;
      for (int c = 0; c < 3; ++c) {
        rslab.lo[c] = std::max(owned[b].lo[c], window_lo(a, c));
        rslab.hi[c] = std::min(owned[b].hi[c], window_hi(a, c));
        empty = empty || rslab.lo[c] >= rslab.hi[c];
      }
      if (!empty) {
        rslab.peer = b;
        rslab.grid = views[a];
        recv.push_back(rslab);
      }
    }
    GetShard(a)->ConfigureFieldExchange(std::move(send), std::move(recv));
  }
}

uint64_t ShardedSimulation::TotalOwned() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->NumOwned();
  }
  return total;
}

uint64_t ShardedSimulation::TotalGhosts() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->NumGhosts();
  }
  return total;
}

real_t ShardedSimulation::HaloWidth() {
  // The fixed box length alone is NOT a cap: an agent whose diameter
  // exceeds it interacts across more than one box, so a boundary agent
  // bigger than the box length must still be published to the neighbor
  // shard -- take the max of both radii. The transport max-reduces the
  // local result so every rank's halo zones agree (identity in-process).
  real_t local = param_.fixed_box_length;
  for (const auto& shard : shards_) {
    local = std::max(local, shard->MaxOwnedDiameter());
  }
  return static_cast<real_t>(
      transport_->AllReduceMax(static_cast<double>(local)));
}

void ShardedSimulation::Exchange() {
  // Conservation snapshot: the exchange moves and mirrors agents but must
  // never create or destroy them; CheckShards compares against this.
  expected_owned_ = TotalOwned();
  const auto start = TraceRecorder::Clock::now();
  const real_t halo_width = HaloWidth();
  Shard::ExchangeStats stats;
  Simulation* previous = Simulation::GetActive();
  // Strict phase lockstep: every migration is delivered before any halo is
  // scanned, so the new owner (not the old one) publishes a just-migrated
  // agent and boundary pair forces stay exactly antisymmetric.
  for (auto& shard : shards_) {
    Simulation::SetActive(shard->sim());
    shard->CollectMigrations(extents_, transport_.get(), &stats);
  }
  transport_->FinishPhase();
  for (auto& shard : shards_) {
    Simulation::SetActive(shard->sim());
    shard->ReceiveMigrations(transport_.get(), &stats);
  }
  for (auto& shard : shards_) {
    Simulation::SetActive(shard->sim());
    shard->SendHalos(extents_, halo_width, transport_.get(), &stats);
  }
  transport_->FinishPhase();
  for (auto& shard : shards_) {
    Simulation::SetActive(shard->sim());
    shard->ReceiveHalos(transport_.get());
  }
  Simulation::SetActive(previous);

  auto& registry = MetricsRegistry::Get();
  registry.Add(halo_sent_id_, stats.halo_records_sent);
  registry.Add(migrations_id_, stats.migrations_out);
  const uint64_t total_bytes = transport_->TotalBytesSent();
  registry.Add(exchange_bytes_id_, total_bytes - reported_exchange_bytes_);
  reported_exchange_bytes_ = total_bytes;
  registry.SetGauge(ghost_gauge_id_, static_cast<double>(TotalGhosts()));
  if (TraceRecorder::Active()) {
    TraceRecorder::Get().RecordSpan("halo_exchange", start,
                                    TraceRecorder::Clock::now(), 0,
                                    iteration_);
  }
}

bool ShardedSimulation::HasFields() const {
  return !shards_.front()->sim()->GetAllDiffusionGrids().empty();
}

void ShardedSimulation::FieldExchange() {
  const auto start = TraceRecorder::Clock::now();
  const size_t num_grids =
      shards_.front()->sim()->GetAllDiffusionGrids().size();

  // Mass snapshot BEFORE anything moves: owned voxels (flushing pending
  // deposit logs first) plus the captured-but-not-yet-forwarded ghost
  // deposits. The exchange must conserve this sum to round-off --
  // CheckShardFields compares against it after the halos are applied.
  expected_field_mass_.assign(num_grids, 0.0);
  for (auto& shard : shards_) {
    const auto& grids = shard->sim()->GetAllDiffusionGrids();
    for (size_t g = 0; g < grids.size(); ++g) {
      expected_field_mass_[g] +=
          grids[g]->OwnedMass() + grids[g]->ForwardableDepositTotal();
    }
  }

  // Same strict phase lockstep as the agent exchange: every forwarded
  // deposit lands in its owner's voxels BEFORE any boundary slab is
  // encoded, so the halos already carry the deposits and the neighbors'
  // ghost planes come out bitwise equal to the owners.
  Shard::FieldStats stats;
  Simulation* previous = Simulation::GetActive();
  for (auto& shard : shards_) {
    Simulation::SetActive(shard->sim());
    shard->CollectFieldDeposits(transport_.get(), &stats);
  }
  transport_->FinishPhase();
  for (auto& shard : shards_) {
    Simulation::SetActive(shard->sim());
    shard->ReceiveFieldDeposits(transport_.get());
  }
  for (auto& shard : shards_) {
    Simulation::SetActive(shard->sim());
    shard->SendFieldHalos(transport_.get(), &stats);
  }
  transport_->FinishPhase();
  for (auto& shard : shards_) {
    Simulation::SetActive(shard->sim());
    shard->ReceiveFieldHalos(transport_.get());
  }
  Simulation::SetActive(previous);
  fields_fresh_ = true;

  auto& registry = MetricsRegistry::Get();
  registry.Add(field_halo_planes_id_, stats.halo_slabs_sent);
  registry.Add(field_deposits_id_, stats.deposits_forwarded);
  const uint64_t total_bytes = transport_->TotalBytesSent();
  registry.Add(field_halo_bytes_id_, total_bytes - reported_exchange_bytes_);
  reported_exchange_bytes_ = total_bytes;
  if (TraceRecorder::Active()) {
    TraceRecorder::Get().RecordSpan("field_halo", start,
                                    TraceRecorder::Clock::now(), 0,
                                    iteration_);
  }
}

void ShardedSimulation::StepFields() {
  const auto start = TraceRecorder::Clock::now();
  Simulation* previous = Simulation::GetActive();
  for (auto& shard : shards_) {
    Simulation::SetActive(shard->sim());
    for (DiffusionGrid* grid : shard->sim()->GetAllDiffusionGrids()) {
      // Same per-substance timing bucket DiffusionOp uses, so sharded and
      // unsharded runs report the stencil cost under the same name.
      ScopedTimer timer(shard->sim()->GetTiming(),
                        "diffusion/" + grid->GetName());
      grid->Step(param_.dt, pool_.get());
    }
  }
  Simulation::SetActive(previous);
  fields_fresh_ = false;  // the sweep consumed (and staled) the ghost planes
  if (TraceRecorder::Active()) {
    TraceRecorder::Get().RecordSpan("field_step", start,
                                    TraceRecorder::Clock::now(), 0,
                                    iteration_);
  }
}

void ShardedSimulation::RunFieldAudit(Simulation* previous) {
  auto violations = ConsistencyAudit::CheckShardFields(this);
  if (!violations.empty()) {
    std::ostringstream os;
    os << "CheckShardFields failed at iteration " << iteration_ << ":";
    for (const auto& v : violations) {
      os << "\n  " << v;
    }
    Simulation::SetActive(previous);
    throw std::runtime_error(os.str());
  }
}

void ShardedSimulation::StepShards() {
  const int num_local = static_cast<int>(shards_.size());
  // Steps local shard `s` on the calling thread, which must already resolve
  // GetActive() to that shard's simulation.
  const auto step = [this](int s) {
    const auto step_start = TraceRecorder::Clock::now();
    shards_[static_cast<size_t>(s)]->sim()->Simulate(1);
    if (TraceRecorder::Active()) {
      TraceRecorder::Get().RecordSpan(
          "step", step_start, TraceRecorder::Clock::now(),
          kShardTraceSlotBase + local_begin_ + s, iteration_);
    }
  };
  if (num_local == 1) {
    // One local shard: step it inline with the whole pool (and its op
    // DAG) -- S=1 stays bitwise a plain Simulation.
    Simulation::SetActive(shards_.front()->sim());
    step(0);
  } else {
    // Population-proportional team shares (+1 keeps empty shards
    // schedulable); a shard finishing early donates its workers to the
    // still-running lanes (grow-only widening inside the executor).
    std::vector<double> weights(static_cast<size_t>(num_local));
    for (int s = 0; s < num_local; ++s) {
      weights[static_cast<size_t>(s)] =
          static_cast<double>(shards_[static_cast<size_t>(s)]->NumOwned()) +
          1.0;
    }
    // Sticky dirty mode for the whole parallel region: shard A's behaviors
    // raise the process-global AoS-dirty flag, and without stickiness
    // shard B's EnsureCurrent could consume (clear) it before A's own
    // mechanics read it. While sticky, every EnsureCurrent refreshes
    // conservatively -- bitwise-identical, merely not skipping clean
    // refreshes.
    const bool sticky_previous =
        soa::g_dirty_sticky.exchange(true, std::memory_order_relaxed);
    try {
      shard_exec_->Execute(
          shard_dag_,
          [&](int s) {
            // Thread-scoped activation: this lane (and every pool worker it
            // dispatches to) resolves GetActive() to this shard.
            Simulation* lane_previous = Simulation::SwapThreadActive(
                shards_[static_cast<size_t>(s)]->sim());
            try {
              step(s);
            } catch (...) {
              Simulation::SwapThreadActive(lane_previous);
              throw;
            }
            Simulation::SwapThreadActive(lane_previous);
          },
          weights);
    } catch (...) {
      soa::g_dirty_sticky.store(sticky_previous, std::memory_order_relaxed);
      throw;
    }
    soa::g_dirty_sticky.store(sticky_previous, std::memory_order_relaxed);
  }
  if (num_shards_ > 1 &&
      soa::g_aos_geometry_dirty.load(std::memory_order_relaxed)) {
    // Some shard's behaviors moved agents but the process-global flag
    // cannot say whose; pin the stale mark to every local store so no
    // shard's refresh is starved by a sibling (or the exchange) consuming
    // the flag first next iteration.
    for (auto& shard : shards_) {
      shard->sim()->GetResourceManager()->GetSoaStore().MarkGeometryStale();
    }
  }
}

void ShardedSimulation::Simulate(uint64_t iterations) {
  Simulation* previous = Simulation::GetActive();
  const bool sharded = num_shards_ > 1;
  for (uint64_t i = 0; i < iterations; ++i) {
    // Global audits need every shard in-process; a multi-process rank skips
    // them (the workers' stitched-output comparison is the cross-rank
    // equivalent).
    const bool audit_due =
        sharded && AllLocal() && param_.audit_interval > 0 &&
        iteration_ % static_cast<uint64_t>(param_.audit_interval) == 0;
    if (sharded) {
      Exchange();
      if (audit_due) {
        auto violations = ConsistencyAudit::CheckShards(this);
        if (!violations.empty()) {
          std::ostringstream os;
          os << "CheckShards failed at iteration " << iteration_ << ":";
          for (const auto& v : violations) {
            os << "\n  " << v;
          }
          Simulation::SetActive(previous);
          throw std::runtime_error(os.str());
        }
      }
    }
    try {
      StepShards();
    } catch (...) {
      Simulation::SetActive(previous);
      throw;
    }
    // Field tail of the iteration (the shards stepped without their
    // DiffusionOp): forward deposits + refresh ghost planes, audit the
    // fresh planes, then run the stencil sweep -- the same "behaviors
    // deposit, then diffusion folds them in" order as unsharded.
    if (sharded && HasFields()) {
      FieldExchange();
      if (audit_due) {
        RunFieldAudit(previous);
      }
      StepFields();
    }
    if (sharded) {
      // The shard schedulers folded the per-thread metric shards before the
      // exchange tail ran; fold once more so end-of-iteration readers see
      // this iteration's exchange counters without a one-iteration lag.
      MetricsRegistry::Get().FlushShards();
    }
    ++iteration_;
  }
  Simulation::SetActive(previous);
}

}  // namespace bdm::shard
