// Operations (paper Section 2, Algorithm 1).
//
// Agent operations run once per agent inside the parallel loop; standalone
// operations run once per iteration, either before the agent loop ("pre",
// e.g. updating the environment index) or after it ("post", e.g. committing
// agent additions/removals). Both kinds carry an execution frequency, which
// the agent sorting operation of Section 4.2 (Figure 12) relies on.
#ifndef BDM_CORE_OPERATION_H_
#define BDM_CORE_OPERATION_H_

#include <string>

#include "core/agent_handle.h"

namespace bdm {

class Agent;
class Simulation;

/// Named engine resources an operation reads or writes. The scheduler's op
/// DAG derives its dependency edges from these footprints: two ops conflict
/// (must keep their pipeline order) iff one writes a resource the other
/// touches. The granularity is deliberately coarse -- five bits cover the
/// engine's shared state, and a missing declaration degrades to "touches
/// everything", never to a race.
enum ResourceBits : uint8_t {
  /// Agent geometry: positions, diameters, staticness flags -- both the AoS
  /// Agent fields and the SoA store arrays mirroring them.
  kResAgentsGeometry = 1 << 0,
  /// The spatial index (uniform grid / kd-tree / octree) and its dense
  /// agent index.
  kResGrid = 1 << 1,
  /// All diffusion grids: concentration fields and deposit logs.
  kResDiffusion = 1 << 2,
  /// The pair-force accumulator (SoaStore::ForceAccumulator).
  kResForces = 1 << 3,
  /// Population structure: the agent vectors, uid map, and the per-context
  /// add/remove buffers feeding the commit.
  kResPopulation = 1 << 4,
  kResAll = 0x1F,
};

class OperationBase {
 public:
  OperationBase(std::string name, int frequency)
      : name_(std::move(name)), frequency_(frequency < 1 ? 1 : frequency) {}
  virtual ~OperationBase() = default;

  const std::string& GetName() const { return name_; }
  int GetFrequency() const { return frequency_; }
  void SetFrequency(int frequency) { frequency_ = frequency < 1 ? 1 : frequency; }

  /// True when the operation is due at the given iteration counter.
  bool IsDue(uint64_t iteration) const { return iteration % frequency_ == 0; }

  /// Resource footprint (ResourceBits masks) for DAG edge derivation. The
  /// default is read/write-ALL: an undeclared (user) operation conserves the
  /// sequential pipeline order against every other op.
  uint8_t Reads() const { return reads_; }
  uint8_t Writes() const { return writes_; }
  void DeclareResources(uint8_t reads, uint8_t writes) {
    reads_ = reads;
    writes_ = writes;
  }

 private:
  std::string name_;
  int frequency_;
  uint8_t reads_ = kResAll;
  uint8_t writes_ = kResAll;
};

/// Executed for each agent (paper Algorithm 1, L7-11).
class AgentOperation : public OperationBase {
 public:
  using OperationBase::OperationBase;
  virtual void Run(Agent* agent, AgentHandle handle, int tid, Simulation* sim) = 0;
};

/// Executed once per iteration (paper Algorithm 1, L3-5 / L12-18).
class StandaloneOperation : public OperationBase {
 public:
  using OperationBase::OperationBase;
  virtual void Run(Simulation* sim) = 0;
};

}  // namespace bdm

#endif  // BDM_CORE_OPERATION_H_
