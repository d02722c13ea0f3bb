// Finite-difference diffusion of extracellular substances.
//
// The clustering and neuroscience benchmark simulations couple agents to
// continuum substance fields (Table 1, "diffusion volumes"). The solver is
// an explicit-Euler 7-point stencil with exponential decay on a regular
// grid over the simulation space; it substeps automatically to respect both
// the diffusion stability bound dt <= h^2 / (6 D) and the decay positivity
// bound dt <= 1 / lambda. Boundary condition is closed (zero-flux Neumann)
// or absorbing (Dirichlet c = 0 at the rim).
//
// Performance architecture (see DESIGN.md "Diffusion stencil engine"):
//  - The sweep is split into a branch-free vectorizable interior kernel and
//    peeled boundary loops (continuum/diffusion_kernels.*). The seed's
//    branchy kernel is retained as a bitwise-identical reference.
//  - Agent deposits (IncreaseConcentrationBy) append to per-thread logs
//    instead of writing grid memory; the logs are flushed by a parallel
//    slab-partitioned reduction at the start of Step. During a parallel
//    phase, readers therefore see the deterministic end-of-previous-step
//    field; reads from outside a pool (tests, analysis code) flush lazily
//    and keep the historical read-your-write semantics.
//  - The fold order does not depend on the schedule. Each deposit is keyed
//    by the agent iteration block that issued it, and every flush applies
//    the logs in (block, thread slot) order: per voxel that is the serial
//    dense-order sum, bitwise the same at any thread count, team size, DAG
//    lane or shard lane, as long as one agent loop deposits between two
//    flushes (the scheduler's fused agent stage is that loop). Deposits
//    from pool workers outside an agent loop (key 0) come first and fold
//    by slot.
//  - Parallel stepping uses NumaThreadPool's static z-slab partition: each
//    worker first-touches, flushes and steps the same contiguous run of
//    planes every substep (one pool dispatch per Step, with a barrier
//    between substeps instead of per-substep re-dispatch).
//
// Shard views (DESIGN.md Section 9 "field halo"): a grid can be initialized
// as a *window* onto the global voxel lattice instead of the whole cube --
// the planes its shard owns plus a few ghost planes past every internal
// shard face (InitializeShardView). All addressing (voxel rounding, gradient
// clamping, initial-value evaluation) is computed in GLOBAL index space and
// translated into the window, so a shard view produces bit-identical values
// to the unsharded grid at every lattice point it covers. Ghost planes are
// refreshed each iteration by the shard layer's field halo exchange; the
// stencil steps them sacrificially (their values are overwritten before any
// owned voxel could be contaminated -- the ghost width covers the substep
// count plus the gradient read depth). Deposits that round into a ghost
// voxel are applied locally for read-your-write AND captured in an outbound
// list the exchange forwards to the owning shard, so global mass is
// conserved exactly.
#ifndef BDM_CONTINUUM_DIFFUSION_GRID_H_
#define BDM_CONTINUUM_DIFFUSION_GRID_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "math/real3.h"
#include "memory/aligned_buffer.h"

namespace bdm {

class NumaThreadPool;

class DiffusionGrid {
 public:
  enum class BoundaryCondition {
    kClosed,     // zero-flux Neumann: substance is conserved
    kAbsorbing,  // Dirichlet c=0 at the boundary: substance leaks out
  };

  /// Stencil implementation used by Step. The branchy reference exists for
  /// tests and the bench_diffusion A/B; both produce bitwise-equal fields.
  enum class KernelMode {
    kPeeledVectorized,  // default: peeled boundaries, vectorized interior
    kBranchyReference,  // seed kernel: per-voxel boundary branches
  };

  /// `resolution` is the number of grid points per axis of the GLOBAL
  /// lattice (a shard view covers a sub-box of it).
  DiffusionGrid(std::string name, real_t diffusion_coefficient, real_t decay,
                int resolution);

  /// (Re)initializes the grid over the axis-aligned box [lower, upper].
  /// When a pool is given, each worker zeroes (first-touches) the z-slab it
  /// will later step, so field pages land on the NUMA domain that computes
  /// on them.
  void Initialize(const Real3& lower, const Real3& upper,
                  NumaThreadPool* pool = nullptr);

  /// Initializes the grid as a shard-local window of the global lattice
  /// over [global_lower, global_upper]: global planes
  /// [owned_lo[c], owned_hi[c]) per axis are owned by this shard, extended
  /// by ghost_lo/hi[c] ghost planes (0 on global faces). The voxel length
  /// and every voxel-center position are computed exactly as an unsharded
  /// grid over the same global box would, so values agree bitwise.
  void InitializeShardView(const Real3& global_lower,
                           const Real3& global_upper,
                           const int64_t owned_lo[3],
                           const int64_t owned_hi[3],
                           const int64_t ghost_lo[3],
                           const int64_t ghost_hi[3],
                           NumaThreadPool* pool = nullptr);

  /// Fills the field from an initializer evaluated at every voxel center.
  /// Must be called after Initialize. Parallelized over the same z-slab
  /// partition as the solver when a pool is given.
  void SetInitialValue(const std::function<real_t(const Real3&)>& value,
                       NumaThreadPool* pool = nullptr);

  void SetBoundaryCondition(BoundaryCondition bc) { boundary_ = bc; }
  BoundaryCondition GetBoundaryCondition() const { return boundary_; }

  void SetKernelMode(KernelMode mode) { kernel_mode_ = mode; }
  KernelMode GetKernelMode() const { return kernel_mode_; }

  /// Advances the field by `dt` (internally substepped for stability).
  /// Pending deposits are folded in first.
  void Step(real_t dt, NumaThreadPool* pool);

  /// Substeps one Step(dt) call performs, from the same stability bounds
  /// Step applies. The shard layer sizes ghost layers with this.
  int SubstepsFor(real_t dt) const;

  // --- agent coupling --------------------------------------------------------
  real_t GetConcentration(const Real3& position) const;
  /// Central-difference gradient at `position` (zero at boundaries' rim).
  /// Coordinates are clamped in global index space, so a shard view returns
  /// the same centered difference the unsharded grid would -- internal shard
  /// faces read the ghost plane instead of degrading to one-sided.
  Real3 GetGradient(const Real3& position) const;
  /// Thread-safe deposit used by secretion behaviors running in parallel.
  /// Logged, and folded at the next flush in deposit-key order.
  void IncreaseConcentrationBy(const Real3& position, real_t amount);

  /// Applies all buffered deposits to the field. Must not be called while
  /// other threads are depositing; Step and out-of-pool reads call it
  /// automatically. On a shard view, deposits landing in ghost voxels are
  /// also recorded for forwarding (DrainOutboundDeposits).
  void FlushDeposits() const;

  // --- shard-view accessors --------------------------------------------------
  bool IsShardView() const { return shard_view_; }
  /// Global index range of the planes this grid owns ([lo, hi) per axis).
  /// For an unsharded grid this is the whole lattice.
  int64_t OwnedLo(int axis) const { return owned_lo_[axis]; }
  int64_t OwnedHi(int axis) const { return owned_hi_[axis]; }
  /// Global index range the local window covers (owned plus ghosts).
  int64_t WindowLo(int axis) const { return offset_[axis]; }
  int64_t WindowHi(int axis) const { return offset_[axis] + dims_[axis]; }

  /// Concentration at the global lattice point (gx, gy, gz); must lie
  /// inside this grid's window.
  real_t AtGlobal(int64_t gx, int64_t gy, int64_t gz) const;
  /// Overwrites the value at a global lattice point (field seeding in tests
  /// and the halo apply path; also how tests inject ghost corruption).
  void SetAtGlobal(int64_t gx, int64_t gy, int64_t gz, real_t value);

  /// Sum of the owned voxels' concentrations (flushes pending deposits
  /// first; caller must be outside any parallel phase).
  double OwnedMass() const;

  /// Deposit that rounded into a ghost voxel, waiting to be forwarded to
  /// the owner shard. Coordinates are global lattice indices.
  struct OutboundDeposit {
    int64_t x, y, z;
    real_t amount;
  };
  /// Sum of the not-yet-forwarded ghost-voxel deposits (mass accounting).
  double ForwardableDepositTotal() const;
  /// Moves the outbound list to the caller (the shard field exchange).
  std::vector<OutboundDeposit> DrainOutboundDeposits();
  /// Adds a forwarded deposit straight into the field (owner side of the
  /// exchange; the voxel must be owned by this grid).
  void ApplyForwardedDeposit(int64_t gx, int64_t gy, int64_t gz,
                             real_t amount);

  // --- accessors -------------------------------------------------------------
  const std::string& GetName() const { return name_; }
  int GetResolution() const { return resolution_; }
  real_t GetDiffusionCoefficient() const { return diffusion_coefficient_; }
  real_t GetDecay() const { return decay_; }
  int64_t GetNumVolumes() const { return static_cast<int64_t>(c1_.size()); }
  real_t GetVoxelLength() const { return voxel_length_; }
  size_t MemoryFootprint() const {
    return (c1_.size() + c2_.size()) * sizeof(real_t);
  }

  int64_t VoxelIndex(const Real3& position) const;

 private:
  using DepositEntry = std::pair<int64_t, real_t>;  // {voxel, amount}
  static constexpr size_t kDepositChunk = 4096;     // entries per chunk

  // One append log per potential depositor thread, cache-line separated so
  // concurrent appends never share a line. Slot 0 is the main thread, slot
  // t+1 is pool worker t, shard lane threads bind slots past the workers.
  // A log is cut into runs, one per change of the thread's deposit key
  // (NumaThreadPool::CurrentDepositKey: 1 + agent iteration block, 0
  // outside an agent loop). Entries live in fixed-size chunks lent by the
  // grid's chunk pool, so the logs' memory follows the number of deposits
  // per flush, not how the schedule spread them over threads.
  struct alignas(64) DepositLog {
    struct Run {
      uint64_t key;
      size_t first;  // index of the run's first entry
    };
    std::vector<DepositEntry*> chunks;
    size_t size = 0;
    std::vector<Run> runs;
  };
  /// One run of one log, placed in the fold order.
  struct DepositSpan {
    uint64_t key;
    int slot;
    size_t first, last;  // entries [first, last) of deposit_logs_[slot]
  };

  int64_t Flat(int64_t x, int64_t y, int64_t z) const {
    return x + dims_[0] * (y + dims_[1] * z);
  }
  /// True when the LOCAL flat index lies outside the owned box (i.e. in a
  /// ghost plane). Always false for unsharded grids.
  bool IsGhostLocal(int64_t flat) const;
  /// Common tail of Initialize / InitializeShardView: buffer allocation and
  /// first-touch zeroing over the z-slab partition.
  void AllocateAndZero(NumaThreadPool* pool);
  /// Recomputes the z-slab partition if the participant count changed since
  /// the last call. Setup passes the full pool width; a Step on a shard
  /// lane passes its worker team's size.
  void EnsureSlabPartition(int participants);
  /// Sorts every logged run into fold_order_: by key, then slot, then
  /// position in the log.
  void BuildFoldOrder() const;
  /// Applies, in fold order, every logged deposit whose flat index falls in
  /// [lo, hi); with `capture_ghosts`, deposits into ghost voxels are also
  /// appended to the outbound list. BuildFoldOrder must have run since the
  /// last deposit.
  void ApplyDepositsInRange(int64_t lo, int64_t hi, bool capture_ghosts) const;
  /// Empties every log and the fold order and returns every chunk.
  void ClearDepositLogs() const;
  /// Flush from a read accessor: only safe (and only done) when the calling
  /// thread is not a pool worker, i.e. no parallel phase is running.
  void MaybeFlushForRead() const;
  /// Barrier completion during parallel stepping: first the deposit logs
  /// are retired, then the buffers are swapped after every substep.
  void OnStepBarrier();

  std::string name_;
  real_t diffusion_coefficient_;
  real_t decay_;
  int resolution_;  // global lattice points per axis

  // Global lattice frame: identical between the unsharded grid and every
  // shard view over the same box, so index rounding agrees bitwise.
  Real3 global_lower_;
  Real3 global_upper_;  // global_lower_ + (resolution-1) * voxel_length
  real_t voxel_length_ = 1;
  real_t inv_voxel_length_ = 1;  // multiply instead of divide in VoxelIndex

  // Local window: dims_ local points per axis, local (0,0,0) sits at global
  // index offset_. Unsharded: dims_ == resolution_, offset_ == 0.
  int64_t dims_[3] = {0, 0, 0};
  int64_t offset_[3] = {0, 0, 0};
  int64_t owned_lo_[3] = {0, 0, 0};  // global indices
  int64_t owned_hi_[3] = {0, 0, 0};
  bool shard_view_ = false;

  bool initialized_ = false;
  BoundaryCondition boundary_ = BoundaryCondition::kClosed;
  KernelMode kernel_mode_ = KernelMode::kPeeledVectorized;

  // Field storage. c1_ is mutable because flushing deposits into it does
  // not change the grid's logical state (deposits are part of that state
  // the moment they are logged; flushing only changes the representation).
  mutable AlignedBuffer<real_t> c1_;  // current concentrations
  AlignedBuffer<real_t> c2_;          // scratch buffer (swapped every substep)

  mutable std::vector<DepositLog> deposit_logs_;
  mutable std::mutex chunk_mutex_;
  mutable std::vector<std::unique_ptr<DepositEntry[]>> chunk_pool_;
  mutable size_t chunks_lent_ = 0;  // chunk_pool_[0, chunks_lent_) are lent
  mutable std::vector<DepositSpan> fold_order_;
  mutable std::atomic<bool> deposits_pending_{false};
  mutable std::vector<OutboundDeposit> outbound_deposits_;

  // z-slab partition reused across Initialize / SetInitialValue / Step.
  std::vector<int64_t> slab_bounds_;  // size slab_threads_ + 1
  int slab_threads_ = 0;
  bool step_flush_done_ = false;  // barrier phase tracker inside Step

  friend struct DiffusionStepBarrierAction;
};

}  // namespace bdm

#endif  // BDM_CONTINUUM_DIFFUSION_GRID_H_
