// Functional tests for the diffusion-field halo exchange (src/shard/ +
// continuum shard-view grids): step-for-step bitwise agreement between a
// two-shard run and an unsharded reference (deposits in one shard, gradient
// readers in the other), ghost-plane corruption detection by the field
// audit, the "missing message == zero delta" property of the slab codec,
// golden bytes for the slab and deposit records, rejection of corrupt field
// messages, and a multi-shard churn run with secretion + migration under
// audits every iteration. Listed in BDM_TSAN_TESTS: sanitizer builds run
// the churn under tsan with BDM_AUDIT_INTERVAL=1.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "continuum/diffusion_grid.h"
#include "core/cell.h"
#include "core/consistency_audit.h"
#include "core/resource_manager.h"
#include "core/simulation.h"
#include "io/agent_record.h"
#include "io/binary.h"
#include "io/checkpoint.h"
#include "io/field_record.h"
#include "models/common_behaviors.h"
#include "obs/metrics.h"
#include "shard/sharded_simulation.h"

namespace bdm::shard {
namespace {

Param FieldParam(int threads) {
  Param param;
  param.num_threads = threads;
  param.num_numa_domains = 1;
  param.fixed_box_length = 10;
  return param;
}

std::function<std::unique_ptr<DiffusionGrid>()> OxygenFactory(int resolution) {
  return [resolution]() {
    auto grid = std::make_unique<DiffusionGrid>("oxygen",
                                                /*diffusion_coefficient=*/40,
                                                /*decay=*/0, resolution);
    grid->SetBoundaryCondition(DiffusionGrid::BoundaryCondition::kClosed);
    return grid;
  };
}

/// Mild x-ramp so gradients are nonzero from iteration one.
void SeedRamp(DiffusionGrid* grid) {
  grid->SetInitialValue(
      [](const Real3& p) { return 1 + p.x * real_t{0.01}; });
}

std::vector<DiffusionGrid*> ShardGrids(ShardedSimulation* sim) {
  std::vector<DiffusionGrid*> grids;
  for (int s = 0; s < sim->NumShards(); ++s) {
    grids.push_back(sim->GetShard(s)->sim()->GetAllDiffusionGrids()[0]);
  }
  return grids;
}

/// Stitches the global lattice's bit patterns from the owning shard of
/// every voxel (also accepts a single unsharded grid owning everything).
std::vector<uint64_t> GatherFieldBits(const std::vector<DiffusionGrid*>& grids) {
  const int64_t res = grids[0]->GetResolution();
  std::vector<uint64_t> bits(static_cast<size_t>(res) * res * res, 0);
  for (DiffusionGrid* grid : grids) {
    for (int64_t z = grid->OwnedLo(2); z < grid->OwnedHi(2); ++z) {
      for (int64_t y = grid->OwnedLo(1); y < grid->OwnedHi(1); ++y) {
        for (int64_t x = grid->OwnedLo(0); x < grid->OwnedHi(0); ++x) {
          bits[static_cast<size_t>(x + res * (y + res * z))] =
              io::RealBits(grid->AtGlobal(x, y, z));
        }
      }
    }
  }
  return bits;
}

void ExpectCleanShards(ShardedSimulation* sim, const std::string& context) {
  const auto violations = ConsistencyAudit::CheckShards(sim);
  EXPECT_TRUE(violations.empty())
      << context << ": " << violations.size()
      << " violation(s), first: " << violations.front();
}

// --- slab codec -----------------------------------------------------------

TEST(FieldRecordTest, SlabRoundTripIsBitExact) {
  std::vector<uint64_t> cur = {io::RealBits(1.5), 0, io::RealBits(-2.25),
                               0xDEADBEEFCAFEull, 42};
  std::vector<uint64_t> sender_prev(cur.size(), 0);
  std::vector<uint64_t> receiver_prev(cur.size(), 0);
  io::ByteWriter out;
  ASSERT_TRUE(io::EncodeFieldSlab(out, cur.data(),
                                  static_cast<uint32_t>(cur.size()),
                                  sender_prev.data()));
  EXPECT_EQ(sender_prev, cur);  // encoder advanced its codec state
  io::ByteReader in(out.bytes());
  io::DecodeFieldSlab(in, static_cast<uint32_t>(cur.size()),
                      receiver_prev.data());
  EXPECT_EQ(receiver_prev, cur);
  EXPECT_EQ(in.Remaining(), 0u);
}

TEST(FieldRecordTest, UnchangedSlabIsSkippedEntirely) {
  std::vector<uint64_t> cur = {io::RealBits(3.5), io::RealBits(7.25)};
  std::vector<uint64_t> prev = cur;  // steady state
  io::ByteWriter out;
  EXPECT_FALSE(io::EncodeFieldSlab(out, cur.data(), 2, prev.data()));
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(prev, cur);
}

TEST(FieldRecordTest, SlabCountMismatchThrows) {
  std::vector<uint64_t> cur = {1, 2, 3};
  std::vector<uint64_t> sender_prev(3, 0), receiver_prev(4, 0);
  io::ByteWriter out;
  ASSERT_TRUE(io::EncodeFieldSlab(out, cur.data(), 3, sender_prev.data()));
  io::ByteReader in(out.bytes());
  EXPECT_THROW(io::DecodeFieldSlab(in, 4, receiver_prev.data()),
               std::runtime_error);
}

TEST(FieldRecordTest, DepositRecordRoundTrip) {
  io::FieldDepositRecord record{7, 0, 123, io::RealBits(0.125)};
  io::ByteWriter out;
  io::EncodeFieldDeposit(out, record);
  io::ByteReader in(out.bytes());
  const io::FieldDepositRecord back = io::DecodeFieldDeposit(in);
  EXPECT_EQ(back.x, record.x);
  EXPECT_EQ(back.y, record.y);
  EXPECT_EQ(back.z, record.z);
  EXPECT_EQ(back.amount_bits, record.amount_bits);
}

std::string Bytes(std::initializer_list<unsigned> values) {
  std::string bytes;
  for (const unsigned v : values) {
    bytes.push_back(static_cast<char>(v));
  }
  return bytes;
}

TEST(FieldRecordTest, SlabAndDepositMatchGoldenBytes) {
  // Pins the wire format. Slab: voxel count (u32, host order), then per
  // voxel the count of significant XOR bytes followed by those bytes,
  // lowest first. Deposit: x, y, z (u32) and the amount's raw bits (u64).
  if constexpr (std::endian::native != std::endian::little) {
    GTEST_SKIP() << "golden bytes are written for a little-endian host";
  }
  const std::vector<uint64_t> cur = {5, 5, 0x0102};
  std::vector<uint64_t> prev = {5, 4, 0};  // deltas 0, 0x01, 0x0102
  io::ByteWriter slab;
  ASSERT_TRUE(io::EncodeFieldSlab(slab, cur.data(), 3, prev.data()));
  EXPECT_EQ(slab.bytes(), Bytes({0x03, 0, 0, 0,  // voxel count
                                 0x00,           // unchanged
                                 0x01, 0x01,     // delta 0x01
                                 0x02, 0x02, 0x01}));  // delta 0x0102

  io::ByteWriter deposit;
  io::EncodeFieldDeposit(deposit,
                         {7, 0, 123, io::RealBits(real_t{0.125})});
  EXPECT_EQ(deposit.bytes(),
            Bytes({0x07, 0, 0, 0, 0, 0, 0, 0, 0x7B, 0, 0, 0,  // x, y, z
                   0, 0, 0, 0, 0, 0, 0xC0, 0x3F}));           // 0.125
}

// --- corrupt field messages -------------------------------------------------

/// Feeds hand-built field messages from shard 0 to shard 1 of a two-shard
/// simulation with one grid through a private mailbox.
class FieldMessageTest : public ::testing::Test {
 protected:
  static constexpr uint8_t kDepositKind = 3;
  static constexpr uint8_t kHaloKind = 4;

  FieldMessageTest()
      : sim_("field_msg", FieldParam(1), {0, 0, 0}, {100, 100, 100}, 2) {
    sim_.AddDiffusionGrid(OxygenFactory(16));
  }

  /// Voxel count of shard 1's receive slab from shard 0.
  uint32_t SlabVoxels() {
    for (const Shard::FieldSlab& slab : sim_.GetShard(1)->FieldRecvSlabs()) {
      if (slab.peer == 0) {
        return static_cast<uint32_t>(slab.NumVoxels());
      }
    }
    ADD_FAILURE() << "no receive slab from shard 0";
    return 0;
  }

  /// Field halo message with one section for grid 0 carrying `voxels`
  /// unchanged-voxel entries under a declared count of `declared`.
  static io::ByteWriter HaloMessage(uint32_t declared, uint32_t voxels) {
    io::ByteWriter msg;
    msg.Write<uint8_t>(kHaloKind);
    msg.Write<uint32_t>(1);  // sections
    msg.Write<uint32_t>(0);  // grid index
    msg.Write<uint32_t>(declared);
    for (uint32_t i = 0; i < voxels; ++i) {
      msg.Write<uint8_t>(0);  // zero delta
    }
    return msg;
  }

  /// Deposit message with one section for grid 0 declaring `declared`
  /// records but carrying `records` of them.
  static io::ByteWriter DepositMessage(uint8_t kind, uint32_t declared,
                                       uint32_t records) {
    io::ByteWriter msg;
    msg.Write<uint8_t>(kind);
    msg.Write<uint32_t>(1);  // sections
    msg.Write<uint32_t>(0);  // grid index
    msg.Write<uint32_t>(declared);
    for (uint32_t i = 0; i < records; ++i) {
      io::EncodeFieldDeposit(msg, {8, 8, 8, io::RealBits(real_t{0.5})});
    }
    return msg;
  }

  template <typename Phase>
  void Deliver(std::string bytes, Phase phase) {
    MailboxTransport transport(2);
    transport.Send(0, 1, std::move(bytes));
    Simulation* previous = Simulation::SetActive(sim_.GetShard(1)->sim());
    try {
      phase(sim_.GetShard(1), &transport);
    } catch (...) {
      Simulation::SetActive(previous);
      throw;
    }
    Simulation::SetActive(previous);
  }

  void ReceiveHalo(std::string bytes) {
    Deliver(std::move(bytes), [](Shard* shard, ShardTransport* transport) {
      shard->ReceiveFieldHalos(transport);
    });
  }

  void ReceiveDeposits(std::string bytes) {
    Deliver(std::move(bytes), [](Shard* shard, ShardTransport* transport) {
      shard->ReceiveFieldDeposits(transport);
    });
  }

  ShardedSimulation sim_;
};

TEST_F(FieldMessageTest, WellFormedMessagesAreApplied) {
  const uint32_t voxels = SlabVoxels();
  ASSERT_GT(voxels, 0u);
  EXPECT_NO_THROW(ReceiveHalo(HaloMessage(voxels, voxels).Take()));
  EXPECT_NO_THROW(ReceiveDeposits(DepositMessage(kDepositKind, 2, 2).Take()));
}

TEST_F(FieldMessageTest, SlabOverrunningTheBufferThrows) {
  const uint32_t voxels = SlabVoxels();
  EXPECT_THROW(ReceiveHalo(HaloMessage(voxels, voxels - 1).Take()),
               std::runtime_error);
}

TEST_F(FieldMessageTest, SlabTrailingBytesAreRejected) {
  const uint32_t voxels = SlabVoxels();
  EXPECT_THROW(ReceiveHalo(HaloMessage(voxels, voxels + 1).Take()),
               std::runtime_error);
}

TEST_F(FieldMessageTest, DepositOverrunningTheBufferThrows) {
  EXPECT_THROW(ReceiveDeposits(DepositMessage(kDepositKind, 3, 2).Take()),
               std::runtime_error);
}

TEST_F(FieldMessageTest, DepositTrailingBytesAreRejected) {
  io::ByteWriter msg = DepositMessage(kDepositKind, 1, 1);
  msg.Write<uint8_t>(0);
  EXPECT_THROW(ReceiveDeposits(msg.Take()), std::runtime_error);
}

TEST_F(FieldMessageTest, WrongKindTagsThrowLogicError) {
  EXPECT_THROW(ReceiveDeposits(DepositMessage(kHaloKind, 1, 1).Take()),
               std::logic_error);
  const uint32_t voxels = SlabVoxels();
  io::ByteWriter msg = HaloMessage(voxels, voxels);
  msg.Patch<uint8_t>(0, kDepositKind);
  EXPECT_THROW(ReceiveHalo(msg.Take()), std::logic_error);
}

// --- two-shard vs unsharded, step for step --------------------------------

TEST(ShardFieldTest, TwoShardFieldMatchesUnshardedBitwise) {
  // A secreting source in shard 0 right next to the x=50 split plane and
  // chemotaxis readers in shard 1 whose gradient stencils reach across it.
  // Agents sit in distinct voxels and never touch (no pair forces), so the
  // only cross-world difference can come from the boundary treatment --
  // and with ghost planes exchanged every iteration there must be NONE:
  // field bitwise, reader trajectories bitwise, step for step.
  const int kResolution = 20;
  const uint64_t kIterations = 6;
  struct Spec {
    Real3 position;
    bool secretes;
  };
  const std::vector<Spec> agents = {
      {{48, 50, 50}, true},    // source, shard 0, one voxel from the seam
      {{53, 50, 50}, false},   // reader, shard 1, stencil spans the seam
      {{56, 45, 45}, false},   // reader, shard 1, one voxel deeper
  };

  // Both worlds are alive at once, but agent allocation routes through the
  // process-global pooled MemoryManager (whichever world registered last),
  // so a pooled agent could outlive its pool. Plain new/delete sidesteps
  // the singleton for this one cross-world test.
  Param param = FieldParam(1);
  param.use_bdm_memory_manager = false;

  ShardedSimulation sharded("field_pair", param, {0, 0, 0}, {100, 100, 100},
                            2);
  sharded.AddDiffusionGrid(OxygenFactory(kResolution));
  const auto grids = ShardGrids(&sharded);
  for (DiffusionGrid* grid : grids) {
    SeedRamp(grid);
  }

  Simulation reference("field_pair_reference", param);
  auto* reference_grid = reference.AddDiffusionGrid(
      OxygenFactory(kResolution)(), {0, 0, 0}, {100, 100, 100});
  SeedRamp(reference_grid);

  for (const Spec& spec : agents) {
    auto* cell = new Cell(spec.position, 4);
    sharded.AddAgent(cell);
    // Bind behaviors to the owner shard's grid instance.
    const int owner = spatial::LocateShard(sharded.Extents(), spec.position);
    if (spec.secretes) {
      cell->AddBehavior(new models::Secretion(grids[owner], /*rate=*/10));
    } else {
      cell->AddBehavior(new models::Chemotaxis(grids[owner], /*speed=*/2));
    }

    auto* twin = new Cell(spec.position, 4);
    if (spec.secretes) {
      twin->AddBehavior(new models::Secretion(reference_grid, /*rate=*/10));
    } else {
      twin->AddBehavior(new models::Chemotaxis(reference_grid, /*speed=*/2));
    }
    Simulation* previous = Simulation::SetActive(&reference);
    reference.GetResourceManager()->AddAgent(twin);
    Simulation::SetActive(previous);
  }

  // The source sits in shard 0 and the readers in shard 1.
  ASSERT_EQ(sharded.GetShard(0)->NumOwned(), 1u);
  ASSERT_EQ(sharded.GetShard(1)->NumOwned(), 2u);

  // The engine may relocate agent objects during Simulate (SoA store
  // commits), so re-read every position by uid each iteration instead of
  // holding pointers. No migration happens here (chemotaxis climbs the +x
  // ramp, away from the seam), so uids match across the two worlds.
  const auto owned_positions = [](auto&& for_each_shard_rm) {
    std::map<AgentUid, Real3> out;
    for_each_shard_rm([&](ResourceManager* rm) {
      rm->ForEachAgent([&](Agent* agent, AgentHandle) {
        if (!agent->IsGhost()) {
          out[agent->GetUid()] = agent->GetPosition();
        }
      });
    });
    return out;
  };

  for (uint64_t it = 0; it < kIterations; ++it) {
    sharded.Simulate(1);
    {
      Simulation* previous = Simulation::SetActive(&reference);
      reference.Simulate(1);
      Simulation::SetActive(previous);
    }
    EXPECT_EQ(GatherFieldBits(ShardGrids(&sharded)),
              GatherFieldBits({reference_grid}))
        << "field diverged at iteration " << it;
    const auto sharded_positions = owned_positions([&](auto&& fn) {
      for (int s = 0; s < sharded.NumShards(); ++s) {
        fn(sharded.GetShard(s)->sim()->GetResourceManager());
      }
    });
    const auto reference_positions = owned_positions(
        [&](auto&& fn) { fn(reference.GetResourceManager()); });
    ASSERT_EQ(sharded_positions.size(), reference_positions.size());
    for (const auto& [uid, position] : reference_positions) {
      const auto found = sharded_positions.find(uid);
      ASSERT_NE(found, sharded_positions.end())
          << "uid " << uid << " missing at iteration " << it;
      for (int c = 0; c < 3; ++c) {
        EXPECT_EQ(io::RealBits(found->second[c]), io::RealBits(position[c]))
            << "uid " << uid << " axis " << c << " diverged at iteration "
            << it;
      }
    }
  }

  // Direct gradient probe at the seam: the shard-1 grid's centered
  // difference must read its ghost planes, not a clamped interior copy.
  const Real3 probe{52, 50, 50};
  const Real3 sharded_gradient = grids[1]->GetGradient(probe);
  const Real3 reference_gradient = reference_grid->GetGradient(probe);
  for (int c = 0; c < 3; ++c) {
    EXPECT_EQ(io::RealBits(sharded_gradient[c]),
              io::RealBits(reference_gradient[c]))
        << "gradient axis " << c;
  }
}

// --- deposit forwarding ---------------------------------------------------

TEST(ShardFieldTest, CrossShardDepositIsForwardedExactly) {
  // An owned agent can legitimately deposit into a voxel owned by the
  // neighbor shard: behaviors move an agent and deposit in the same pass
  // (ownership transfers only at the next exchange), and positions within
  // half a voxel of the seam round across it. The deposit lands in the
  // local ghost copy immediately and must reach the owner bit-exact at the
  // next field exchange.
  ShardedSimulation sim("field_forward", FieldParam(1), {0, 0, 0},
                        {100, 100, 100}, 2);
  sim.AddDiffusionGrid(OxygenFactory(20));
  const auto grids = ShardGrids(&sim);
  for (DiffusionGrid* grid : grids) {
    SeedRamp(grid);
  }

  // (55, 45, 45) rounds to a voxel center east of the x=50 split plane --
  // owned by shard 1 but inside shard 0's ghost window. The y/z components
  // stay clear of the half-voxel rounding midpoint so llround below agrees
  // with the grid's floor(x*inv+0.5) mapping bit-for-bit.
  const Real3 position{55, 45, 45};
  const real_t amount = 0.125;
  const int64_t vx = std::llround(position.x / grids[1]->GetVoxelLength());
  const int64_t vy = std::llround(position.y / grids[1]->GetVoxelLength());
  const int64_t vz = std::llround(position.z / grids[1]->GetVoxelLength());
  ASSERT_GE(vx, grids[1]->OwnedLo(0));  // owner: shard 1
  ASSERT_LT(vx, grids[1]->OwnedHi(0));
  ASSERT_LT(vx, grids[0]->WindowHi(0));  // ghost voxel of shard 0

  const real_t owner_before = grids[1]->AtGlobal(vx, vy, vz);
  grids[0]->IncreaseConcentrationBy(position, amount);

  sim.FieldExchange();
  ExpectCleanShards(&sim, "after forwarding exchange");

  // The owner's voxel gained exactly the deposited amount, and the
  // depositor's ghost copy agrees bitwise.
  EXPECT_EQ(io::RealBits(grids[1]->AtGlobal(vx, vy, vz)),
            io::RealBits(owner_before + amount));
  EXPECT_EQ(io::RealBits(grids[0]->AtGlobal(vx, vy, vz)),
            io::RealBits(grids[1]->AtGlobal(vx, vy, vz)));
  sim.StepFields();
}

// --- audit catches ghost-plane corruption ---------------------------------

TEST(ShardFieldTest, GhostPlaneCorruptionDetected) {
  ShardedSimulation sim("field_corrupt", FieldParam(1), {0, 0, 0},
                        {100, 100, 100}, 2);
  sim.AddDiffusionGrid(OxygenFactory(20));
  const auto grids = ShardGrids(&sim);
  for (DiffusionGrid* grid : grids) {
    SeedRamp(grid);
  }

  // Before any exchange the audit has nothing fresh to check.
  EXPECT_TRUE(ConsistencyAudit::CheckShardFields(&sim).empty());

  sim.FieldExchange();
  ASSERT_TRUE(sim.FieldsFresh());
  ExpectCleanShards(&sim, "after field exchange");

  // Flip one ghost voxel of shard 1 (a voxel owned by shard 0 but inside
  // shard 1's window): the bitwise ghost<->owner audit must name it.
  DiffusionGrid* grid = grids[1];
  const int64_t gx = grid->OwnedLo(0) - 1;
  ASSERT_GE(gx, grid->WindowLo(0));
  const int64_t gy = grid->OwnedLo(1) + 5;
  const int64_t gz = grid->OwnedLo(2) + 5;
  grid->SetAtGlobal(gx, gy, gz,
                    grid->AtGlobal(gx, gy, gz) + real_t{1e-4});
  const auto violations = ConsistencyAudit::CheckShardFields(&sim);
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations.front().find("ghost"), std::string::npos)
      << violations.front();

  // StepFields consumes the exchange; the invariant window closes again.
  sim.StepFields();
  EXPECT_FALSE(sim.FieldsFresh());
  EXPECT_TRUE(ConsistencyAudit::CheckShardFields(&sim).empty());
}

// --- steady state sends nothing -------------------------------------------

TEST(ShardFieldTest, MissingFieldMessageMeansZeroDelta) {
  // A uniform closed field with zero decay is a fixed point of the solver:
  // after the first exchange primes the codec state (prev starts at zero),
  // every later slab is bit-identical to its predecessor and no message is
  // sent at all -- the receiver's ghost planes stay valid by construction.
  Param param = FieldParam(1);
  param.audit_interval = 1;  // bitwise ghost audit every iteration
  ShardedSimulation sim("field_steady", param, {0, 0, 0}, {100, 100, 100},
                        2);
  sim.AddDiffusionGrid(OxygenFactory(16));
  for (DiffusionGrid* grid : ShardGrids(&sim)) {
    grid->SetInitialValue([](const Real3&) { return 1; });
  }

  sim.Simulate(1);
  auto& registry = MetricsRegistry::Get();
  const uint64_t primed_slabs = registry.CounterTotal("shard/field_halo_planes");
  EXPECT_GT(primed_slabs, 0u);  // first exchange publishes 1.0 over prev=0

  sim.Simulate(4);  // audited every iteration: silent slabs stay bitwise
  EXPECT_EQ(registry.CounterTotal("shard/field_halo_planes"), primed_slabs);

  const auto bits = GatherFieldBits(ShardGrids(&sim));
  for (const uint64_t b : bits) {
    ASSERT_EQ(b, io::RealBits(real_t{1}));
  }
}

// --- churn: secretion + migration + audits every iteration ----------------

/// Deterministic wandering keyed on a serialized step counter (same scheme
/// as test_shard's DriftBehavior) so migrations keep happening while every
/// agent also deposits into the field each iteration.
class SecretingWanderer : public Behavior {
 public:
  SecretingWanderer() = default;
  explicit SecretingWanderer(uint64_t seed) : seed_(seed) {}

  void Run(Agent* agent, ExecutionContext*) override {
    DiffusionGrid* grid =
        Simulation::GetActive()->GetDiffusionGrid("oxygen");
    grid->IncreaseConcentrationBy(agent->GetPosition(), real_t{0.05});
    const uint64_t base = Mix(seed_ ^ (step_ * 0xD1B54A32D192ED03ull));
    Real3 position = agent->GetPosition();
    position.x = Clamp(position.x + Jitter(base));
    position.y = Clamp(position.y + Jitter(Mix(base)));
    position.z = Clamp(position.z + Jitter(Mix(Mix(base))));
    agent->SetPosition(position);
    ++step_;
  }

  Behavior* NewCopy() const override { return new SecretingWanderer(*this); }

  void WriteState(std::ostream& out) const override {
    io::WriteScalar(out, seed_);
    io::WriteScalar(out, step_);
  }
  void ReadState(std::istream& in) override {
    seed_ = io::ReadScalar<uint64_t>(in);
    step_ = io::ReadScalar<uint64_t>(in);
  }

 private:
  static uint64_t Mix(uint64_t x) {
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
  }
  static real_t Jitter(uint64_t bits) {
    return static_cast<real_t>(static_cast<double>(bits >> 11) * 0x1.0p-53 *
                                   8.0 -
                               4.0);
  }
  static real_t Clamp(real_t v) {
    return v < 1 ? 1 : (v > 99 ? real_t{99} : v);
  }

  uint64_t seed_ = 0;
  uint64_t step_ = 0;
};

BDM_REGISTER_BEHAVIOR(SecretingWanderer);

TEST(ShardFieldTest, FieldChurnAuditClean) {
  // 4 shards, concurrent per-shard phases on the shared pool, agents
  // migrating across every seam while depositing each iteration.
  // audit_interval=1 runs CheckShards AND CheckShardFields inside Simulate
  // every iteration: bitwise ghost planes, global mass conservation across
  // deposit forwarding, uid uniqueness -- any violation throws.
  Param param = FieldParam(4);
  param.audit_interval = 1;
  ShardedSimulation sim("field_churn", param, {0, 0, 0}, {100, 100, 100}, 4);
  sim.AddDiffusionGrid(OxygenFactory(16));
  for (DiffusionGrid* grid : ShardGrids(&sim)) {
    SeedRamp(grid);
  }
  const uint64_t n = 120;
  for (uint64_t i = 0; i < n; ++i) {
    const Real3 position{
        static_cast<real_t>(1 + (i * 2654435761ull) % 98),
        static_cast<real_t>(1 + (i * 40503ull + 7) % 98),
        static_cast<real_t>(1 + (i * 69069ull + 13) % 98)};
    auto* cell = new Cell(position, 8);
    cell->AddBehavior(new SecretingWanderer(i));
    sim.AddAgent(cell);
  }

  double initial_mass = 0;
  for (DiffusionGrid* grid : ShardGrids(&sim)) {
    initial_mass += static_cast<double>(grid->OwnedMass());
  }

  sim.Simulate(5);  // throws internally if any audit round fails

  EXPECT_EQ(sim.TotalOwned(), n);
  EXPECT_GT(MetricsRegistry::Get().CounterTotal("shard/field_halo_planes"),
            0u);

  // Closed boundaries, zero decay: the final mass is the seeded mass plus
  // exactly the deposits (n agents x 0.05 x 5 iterations), wherever the
  // depositing agents migrated.
  double final_mass = 0;
  for (DiffusionGrid* grid : ShardGrids(&sim)) {
    final_mass += static_cast<double>(grid->OwnedMass());
  }
  const double expected = initial_mass + static_cast<double>(n) * 0.05 * 5;
  EXPECT_NEAR(final_mass, expected, 1e-9 * expected);
}

}  // namespace
}  // namespace bdm::shard
