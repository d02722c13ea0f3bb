#include "continuum/diffusion_grid.h"

#include <algorithm>
#include <barrier>
#include <cassert>
#include <cmath>

#include "continuum/diffusion_kernels.h"
#include "obs/metrics.h"
#include "sched/numa_thread_pool.h"

namespace bdm {

/// std::barrier completion functor for the parallel Step (must be noexcept).
struct DiffusionStepBarrierAction {
  DiffusionGrid* grid;
  void operator()() noexcept { grid->OnStepBarrier(); }
};

DiffusionGrid::DiffusionGrid(std::string name, real_t diffusion_coefficient,
                             real_t decay, int resolution)
    : name_(std::move(name)),
      diffusion_coefficient_(diffusion_coefficient),
      decay_(decay),
      resolution_(std::max(resolution, 2)),
      deposit_logs_(MetricsRegistry::kMaxSlots) {}

void DiffusionGrid::Initialize(const Real3& lower, const Real3& upper,
                               NumaThreadPool* pool) {
  global_lower_ = lower;
  real_t extent = 0;
  for (int c = 0; c < 3; ++c) {
    extent = std::max(extent, upper[c] - lower[c]);
  }
  voxel_length_ = std::max<real_t>(extent / (resolution_ - 1), 1e-6);
  inv_voxel_length_ = 1 / voxel_length_;
  for (int c = 0; c < 3; ++c) {
    global_upper_[c] = global_lower_[c] + voxel_length_ * (resolution_ - 1);
    dims_[c] = resolution_;
    offset_[c] = 0;
    owned_lo_[c] = 0;
    owned_hi_[c] = resolution_;
  }
  shard_view_ = false;
  AllocateAndZero(pool);
}

void DiffusionGrid::InitializeShardView(const Real3& global_lower,
                                        const Real3& global_upper,
                                        const int64_t owned_lo[3],
                                        const int64_t owned_hi[3],
                                        const int64_t ghost_lo[3],
                                        const int64_t ghost_hi[3],
                                        NumaThreadPool* pool) {
  // Global frame: the EXACT arithmetic Initialize runs over the same box,
  // so voxel rounding and voxel-center positions agree bitwise with the
  // unsharded grid (and with every sibling shard view).
  global_lower_ = global_lower;
  real_t extent = 0;
  for (int c = 0; c < 3; ++c) {
    extent = std::max(extent, global_upper[c] - global_lower[c]);
  }
  voxel_length_ = std::max<real_t>(extent / (resolution_ - 1), 1e-6);
  inv_voxel_length_ = 1 / voxel_length_;
  for (int c = 0; c < 3; ++c) {
    global_upper_[c] = global_lower_[c] + voxel_length_ * (resolution_ - 1);
    assert(owned_lo[c] >= 0 && owned_lo[c] < owned_hi[c] &&
           owned_hi[c] <= resolution_);
    assert(ghost_lo[c] >= 0 && ghost_lo[c] <= owned_lo[c]);
    assert(ghost_hi[c] >= 0 && owned_hi[c] + ghost_hi[c] <= resolution_);
    owned_lo_[c] = owned_lo[c];
    owned_hi_[c] = owned_hi[c];
    offset_[c] = owned_lo[c] - ghost_lo[c];
    dims_[c] = (owned_hi[c] - owned_lo[c]) + ghost_lo[c] + ghost_hi[c];
  }
  shard_view_ = true;
  AllocateAndZero(pool);
}

void DiffusionGrid::AllocateAndZero(NumaThreadPool* pool) {
  const int64_t plane = dims_[0] * dims_[1];
  c1_.Reset(plane * dims_[2]);
  c2_.Reset(plane * dims_[2]);
  ClearDepositLogs();
  outbound_deposits_.clear();
  slab_threads_ = 0;  // dims may have changed; force partition recompute
  EnsureSlabPartition(pool != nullptr ? pool->NumThreads() : 1);
  // First touch: each worker zeroes the z-slab it will later flush and
  // step, so field pages are materialized on the domain that computes on
  // them. The serial path simply zeroes everything from the caller.
  auto zero_slab = [&](int64_t z_lo, int64_t z_hi) {
    std::fill(c1_.data() + z_lo * plane, c1_.data() + z_hi * plane, real_t{0});
    std::fill(c2_.data() + z_lo * plane, c2_.data() + z_hi * plane, real_t{0});
  };
  if (pool != nullptr && pool->NumThreads() > 1) {
    pool->RunSlots(slab_threads_, [&](int slab) {
      zero_slab(slab_bounds_[slab], slab_bounds_[slab + 1]);
    });
  } else {
    zero_slab(0, dims_[2]);
  }
  initialized_ = true;
}

void DiffusionGrid::SetInitialValue(
    const std::function<real_t(const Real3&)>& value, NumaThreadPool* pool) {
  assert(initialized_);
  // Deposits logged before this call would otherwise survive the overwrite
  // and be (incorrectly) added on the next flush.
  FlushDeposits();
  outbound_deposits_.clear();
  EnsureSlabPartition(pool != nullptr ? pool->NumThreads() : 1);
  // Voxel centers are computed from the GLOBAL index (offset_ + local), so a
  // shard view evaluates the initializer at exactly the positions the
  // unsharded grid would -- including in its ghost planes, which therefore
  // start out bitwise-consistent with their owners.
  auto fill_slab = [&](int64_t z_lo, int64_t z_hi) {
    for (int64_t z = z_lo; z < z_hi; ++z) {
      for (int64_t y = 0; y < dims_[1]; ++y) {
        for (int64_t x = 0; x < dims_[0]; ++x) {
          const Real3 center = {
              global_lower_.x + (offset_[0] + x) * voxel_length_,
              global_lower_.y + (offset_[1] + y) * voxel_length_,
              global_lower_.z + (offset_[2] + z) * voxel_length_};
          c1_[Flat(x, y, z)] = value(center);
        }
      }
    }
  };
  if (pool != nullptr && pool->NumThreads() > 1) {
    pool->RunSlots(slab_threads_, [&](int slab) {
      fill_slab(slab_bounds_[slab], slab_bounds_[slab + 1]);
    });
  } else {
    fill_slab(0, dims_[2]);
  }
}

int64_t DiffusionGrid::VoxelIndex(const Real3& position) const {
  // Round in GLOBAL index space first (bitwise-identical across shard views
  // and the unsharded grid), then translate into the window. The local
  // clamp only engages for positions outside this shard's window, which
  // owned agents never produce; it keeps stray reads memory-safe.
  int64_t coords[3];
  for (int c = 0; c < 3; ++c) {
    const int64_t v = static_cast<int64_t>(std::floor(
        (position[c] - global_lower_[c]) * inv_voxel_length_ + real_t{0.5}));
    const int64_t g = std::clamp<int64_t>(v, 0, resolution_ - 1);
    coords[c] = std::clamp<int64_t>(g - offset_[c], 0, dims_[c] - 1);
  }
  return Flat(coords[0], coords[1], coords[2]);
}

real_t DiffusionGrid::GetConcentration(const Real3& position) const {
  assert(initialized_);
  MaybeFlushForRead();
  return c1_[VoxelIndex(position)];
}

void DiffusionGrid::IncreaseConcentrationBy(const Real3& position,
                                            real_t amount) {
  assert(initialized_);
  const int64_t index = VoxelIndex(position);
  // Per-thread append log: no atomics on grid memory, and the pool lock only
  // once per kDepositChunk deposits. Slot 0 is the main thread; shard lane
  // threads carry their own slots past the workers, so two
  // concurrently-stepping shards never share a log.
  const int slot = NumaThreadPool::CurrentThreadSlot();
  assert(slot >= 0 && slot < MetricsRegistry::kMaxSlots);
  DepositLog& log = deposit_logs_[slot];
  const uint64_t key = NumaThreadPool::CurrentDepositKey();
  if (log.runs.empty() || log.runs.back().key != key) {
    if (log.runs.empty()) {
      // Once per thread per flush cycle: publish "something is pending".
      // Publishing once instead of per deposit keeps the shared flag from
      // ping-ponging between the depositing cores.
      deposits_pending_.store(true, std::memory_order_relaxed);
    }
    log.runs.push_back({key, log.size});
  }
  if (log.size == log.chunks.size() * kDepositChunk) {
    // Lend the log a pooled chunk, allocating one if every chunk is lent.
    std::lock_guard<std::mutex> lock(chunk_mutex_);
    if (chunks_lent_ == chunk_pool_.size()) {
      chunk_pool_.push_back(std::make_unique<DepositEntry[]>(kDepositChunk));
    }
    log.chunks.push_back(chunk_pool_[chunks_lent_++].get());
  }
  log.chunks.back()[log.size++ % kDepositChunk] = {index, amount};
}

bool DiffusionGrid::IsGhostLocal(int64_t flat) const {
  if (!shard_view_) {
    return false;
  }
  const int64_t x = flat % dims_[0];
  const int64_t y = (flat / dims_[0]) % dims_[1];
  const int64_t z = flat / (dims_[0] * dims_[1]);
  return x + offset_[0] < owned_lo_[0] || x + offset_[0] >= owned_hi_[0] ||
         y + offset_[1] < owned_lo_[1] || y + offset_[1] >= owned_hi_[1] ||
         z + offset_[2] < owned_lo_[2] || z + offset_[2] >= owned_hi_[2];
}

void DiffusionGrid::BuildFoldOrder() const {
  fold_order_.clear();
  for (int slot = 0; slot < MetricsRegistry::kMaxSlots; ++slot) {
    const DepositLog& log = deposit_logs_[slot];
    for (size_t r = 0; r < log.runs.size(); ++r) {
      const size_t last =
          r + 1 < log.runs.size() ? log.runs[r + 1].first : log.size;
      fold_order_.push_back({log.runs[r].key, slot, log.runs[r].first, last});
    }
  }
  // Spans were appended in (slot, position) order; a stable sort by key
  // alone completes the (key, slot, position) order. A block runs on one
  // thread, so each key > 0 of one agent loop maps to a single run.
  std::stable_sort(fold_order_.begin(), fold_order_.end(),
                   [](const DepositSpan& a, const DepositSpan& b) {
                     return a.key < b.key;
                   });
}

void DiffusionGrid::ApplyDepositsInRange(int64_t lo, int64_t hi,
                                         bool capture_ghosts) const {
  real_t* field = c1_.data();
  const int64_t plane = dims_[0] * dims_[1];
  for (const DepositSpan& span : fold_order_) {
    const DepositLog& log = deposit_logs_[span.slot];
    for (size_t i = span.first; i < span.last; ++i) {
      const auto& [index, amount] =
          log.chunks[i / kDepositChunk][i % kDepositChunk];
      if (index < lo || index >= hi) {
        continue;
      }
      field[index] += amount;
      if (capture_ghosts && IsGhostLocal(index)) {
        const int64_t x = index % dims_[0];
        const int64_t y = (index / dims_[0]) % dims_[1];
        outbound_deposits_.push_back({x + offset_[0], y + offset_[1],
                                      index / plane + offset_[2], amount});
      }
    }
  }
}

void DiffusionGrid::ClearDepositLogs() const {
  for (DepositLog& log : deposit_logs_) {
    log.chunks.clear();
    log.size = 0;
    log.runs.clear();
  }
  chunks_lent_ = 0;
  fold_order_.clear();
  deposits_pending_.store(false, std::memory_order_relaxed);
}

void DiffusionGrid::FlushDeposits() const {
  if (!deposits_pending_.load(std::memory_order_relaxed)) {
    return;
  }
  BuildFoldOrder();
  // A shard view applies deposits into ghost voxels locally too, preserving
  // read-your-write for agents secreting right at a shard face, but ALSO
  // captures those ghost amounts for the field exchange to forward to the
  // owner shard. The local copy is overwritten by the next halo apply, so
  // the forwarded one is the only one that survives: mass is counted
  // exactly once globally. The fold order makes the outbound list's order
  // schedule-independent too.
  ApplyDepositsInRange(0, GetNumVolumes(), /*capture_ghosts=*/shard_view_);
  ClearDepositLogs();
}

void DiffusionGrid::MaybeFlushForRead() const {
  // Inside a pool worker a parallel phase may be running: other threads
  // could be appending to their logs, so flushing would race. Workers read
  // the deterministic end-of-previous-step field instead; the logs are
  // retired at the next Step.
  if (deposits_pending_.load(std::memory_order_relaxed) &&
      NumaThreadPool::CurrentThreadId() < 0) {
    FlushDeposits();
  }
}

Real3 DiffusionGrid::GetGradient(const Real3& position) const {
  assert(initialized_);
  MaybeFlushForRead();
  // No field information outside the grid domain: report a zero gradient
  // instead of extrapolating from clamped voxels (an agent just past the
  // boundary would otherwise chase its own edge deposit outward forever).
  // The bounds are the GLOBAL ones even on a shard view -- an internal
  // shard face is not a field boundary.
  const real_t margin = voxel_length_ * real_t{0.5};
  for (int c = 0; c < 3; ++c) {
    if (position[c] < global_lower_[c] - margin ||
        position[c] > global_upper_[c] + margin) {
      return {0, 0, 0};
    }
  }
  int64_t coords[3];
  for (int c = 0; c < 3; ++c) {
    const int64_t v = static_cast<int64_t>(std::floor(
        (position[c] - global_lower_[c]) * inv_voxel_length_ + real_t{0.5}));
    // Clamp one voxel off the GLOBAL rim, exactly like the unsharded grid;
    // an owned voxel next to an internal face then reads the ghost plane
    // for its centered difference instead of degrading to one-sided. The
    // local clamp again only guards out-of-window stray reads.
    const int64_t g = std::clamp<int64_t>(v, 1, resolution_ - 2);
    coords[c] = std::clamp<int64_t>(g - offset_[c], 1, dims_[c] - 2);
  }
  const real_t inv2h = real_t{0.5} / voxel_length_;
  Real3 gradient;
  gradient.x = (c1_[Flat(coords[0] + 1, coords[1], coords[2])] -
                c1_[Flat(coords[0] - 1, coords[1], coords[2])]) *
               inv2h;
  gradient.y = (c1_[Flat(coords[0], coords[1] + 1, coords[2])] -
                c1_[Flat(coords[0], coords[1] - 1, coords[2])]) *
               inv2h;
  gradient.z = (c1_[Flat(coords[0], coords[1], coords[2] + 1)] -
                c1_[Flat(coords[0], coords[1], coords[2] - 1)]) *
               inv2h;
  return gradient;
}

real_t DiffusionGrid::AtGlobal(int64_t gx, int64_t gy, int64_t gz) const {
  assert(initialized_);
  MaybeFlushForRead();
  const int64_t x = gx - offset_[0];
  const int64_t y = gy - offset_[1];
  const int64_t z = gz - offset_[2];
  assert(x >= 0 && x < dims_[0] && y >= 0 && y < dims_[1] && z >= 0 &&
         z < dims_[2]);
  return c1_[Flat(x, y, z)];
}

void DiffusionGrid::SetAtGlobal(int64_t gx, int64_t gy, int64_t gz,
                                real_t value) {
  assert(initialized_);
  MaybeFlushForRead();  // a later flush must not add on top of the overwrite
  const int64_t x = gx - offset_[0];
  const int64_t y = gy - offset_[1];
  const int64_t z = gz - offset_[2];
  assert(x >= 0 && x < dims_[0] && y >= 0 && y < dims_[1] && z >= 0 &&
         z < dims_[2]);
  c1_[Flat(x, y, z)] = value;
}

double DiffusionGrid::OwnedMass() const {
  assert(initialized_);
  FlushDeposits();
  double mass = 0;
  for (int64_t z = owned_lo_[2] - offset_[2]; z < owned_hi_[2] - offset_[2];
       ++z) {
    for (int64_t y = owned_lo_[1] - offset_[1]; y < owned_hi_[1] - offset_[1];
         ++y) {
      const real_t* row = c1_.data() + Flat(owned_lo_[0] - offset_[0], y, z);
      const int64_t nx = owned_hi_[0] - owned_lo_[0];
      for (int64_t x = 0; x < nx; ++x) {
        mass += row[x];
      }
    }
  }
  return mass;
}

double DiffusionGrid::ForwardableDepositTotal() const {
  double total = 0;
  for (const OutboundDeposit& d : outbound_deposits_) {
    total += d.amount;
  }
  return total;
}

std::vector<DiffusionGrid::OutboundDeposit>
DiffusionGrid::DrainOutboundDeposits() {
  std::vector<OutboundDeposit> drained = std::move(outbound_deposits_);
  outbound_deposits_.clear();
  return drained;
}

void DiffusionGrid::ApplyForwardedDeposit(int64_t gx, int64_t gy, int64_t gz,
                                          real_t amount) {
  assert(gx >= owned_lo_[0] && gx < owned_hi_[0] && gy >= owned_lo_[1] &&
         gy < owned_hi_[1] && gz >= owned_lo_[2] && gz < owned_hi_[2]);
  c1_[Flat(gx - offset_[0], gy - offset_[1], gz - offset_[2])] += amount;
}

void DiffusionGrid::EnsureSlabPartition(int participants) {
  participants = std::max(participants, 1);
  if (slab_threads_ == participants && !slab_bounds_.empty()) {
    return;
  }
  // Even z-plane split with the remainder on the first participants, sized
  // to the participant count: the full pool during setup, the lane's worker
  // TEAM during a Step on a shard lane. Setup dispatches slab t through
  // RunSlots, which on the full team runs it on worker t -- the worker that
  // steps it later -- so pages are first touched by the domain that
  // computes on them. Per-voxel stencil results do not depend on the
  // partition, only the page first-touch placement does.
  slab_bounds_.resize(participants + 1);
  const int64_t base = dims_[2] / participants;
  const int64_t extra = dims_[2] % participants;
  int64_t offset = 0;
  for (int t = 0; t < participants; ++t) {
    slab_bounds_[t] = offset;
    offset += base + (t < extra ? 1 : 0);
  }
  slab_bounds_[participants] = offset;
  slab_threads_ = participants;
}

void DiffusionGrid::OnStepBarrier() {
  // Runs on exactly one thread while every worker waits at the barrier.
  if (!step_flush_done_) {
    // The deposit logs were applied (range-partitioned) by the workers.
    ClearDepositLogs();
    step_flush_done_ = true;
  } else {
    swap(c1_, c2_);  // publish the substep result
  }
}

int DiffusionGrid::SubstepsFor(real_t dt) const {
  // Substep bound: explicit-Euler diffusion stability dt <= h^2 / (6 D) and
  // decay positivity dt <= 1 / lambda (a larger dt would make the decay
  // factor 1 - lambda dt negative -> unphysical sign oscillation).
  const real_t h2 = voxel_length_ * voxel_length_;
  real_t max_dt = dt;
  if (diffusion_coefficient_ > 0) {
    max_dt = std::min(max_dt, h2 / (6 * diffusion_coefficient_));
  }
  if (decay_ > 0) {
    max_dt = std::min<real_t>(max_dt, 1 / decay_);
  }
  return std::max(1, static_cast<int>(std::ceil(dt / max_dt)));
}

void DiffusionGrid::Step(real_t dt, NumaThreadPool* pool) {
  assert(initialized_);
  const int substeps = SubstepsFor(dt);
  const real_t sub_dt = dt / substeps;
  const real_t h2 = voxel_length_ * voxel_length_;

  continuum::StencilParams params;
  params.nx = dims_[0];
  params.ny = dims_[1];
  params.nz = dims_[2];
  params.alpha = diffusion_coefficient_ * sub_dt / h2;
  params.decay_factor = std::max<real_t>(0, 1 - decay_ * sub_dt);
  params.closed = boundary_ == BoundaryCondition::kClosed;
  auto* kernel = kernel_mode_ == KernelMode::kPeeledVectorized
                     ? continuum::StepPlanesPeeled
                     : continuum::StepPlanesBranchy;

  // A shard view flushes up front on the calling thread: the flush captures
  // ghost-voxel deposits into the outbound list, which must not happen
  // concurrently from several slab workers. (In the sharded engine the
  // field exchange already flushed and drained, so this is a no-op there.)
  if (shard_view_) {
    FlushDeposits();
  }

  // Team snapshot: on a shard lane this Step runs on a thread that owns
  // only a slice of the pool while other shards step on the rest. The
  // barrier MUST be sized to the team (a pool-wide barrier would wait for
  // workers that belong to a co-running lane), and the slab partition is
  // recomputed per team size. A nested call from inside a pool worker
  // cannot dispatch (the team is busy in the outer job), so it steps
  // serially like the single-thread path.
  const NumaThreadPool::Team team =
      pool != nullptr ? pool->CurrentTeam() : NumaThreadPool::Team{0, 1};
  if (pool == nullptr || pool->NumThreads() == 1 || team.size() <= 1 ||
      NumaThreadPool::CurrentThreadId() >= 0) {
    FlushDeposits();
    for (int s = 0; s < substeps; ++s) {
      kernel(c1_.data(), c2_.data(), params, 0, dims_[2]);
      swap(c1_, c2_);
    }
    return;
  }

  // Parallel path: ONE pool dispatch for the whole Step. Each team worker
  // keeps its z-slab across the deposit flush and all substeps (NUMA
  // placement matches the first touch done in Initialize when the team is
  // the full pool); a barrier separates the substeps, and its completion
  // hook swaps the buffers.
  EnsureSlabPartition(team.size());
  const int64_t plane = dims_[0] * dims_[1];
  const bool flush = deposits_pending_.load(std::memory_order_relaxed);
  if (flush) {
    BuildFoldOrder();
  }
  step_flush_done_ = !flush;
  std::barrier sync(team.size(), DiffusionStepBarrierAction{this});
  pool->RunOn(team, [&](int tid) {
    const int rank = tid - team.begin;
    const int64_t z_lo = slab_bounds_[rank];
    const int64_t z_hi = slab_bounds_[rank + 1];
    if (flush) {
      // Parallel reduction of the per-thread logs: every worker walks the
      // whole fold order but applies only the deposits landing in its own
      // slab, so no two threads ever write the same voxel and every voxel
      // sums in fold order.
      ApplyDepositsInRange(z_lo * plane, z_hi * plane,
                           /*capture_ghosts=*/false);
      sync.arrive_and_wait();
    }
    for (int s = 0; s < substeps; ++s) {
      if (z_lo < z_hi) {
        kernel(c1_.data(), c2_.data(), params, z_lo, z_hi);
      }
      sync.arrive_and_wait();
    }
  });
}

}  // namespace bdm
