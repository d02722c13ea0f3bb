// Agent base class (paper Section 2).
//
// Agents are polymorphic heap objects; the ResourceManager stores raw
// pointers to them per NUMA domain. The base class carries everything the
// engine itself needs: the stable uid, the 3D position, owned behaviors, and
// the static-agent bookkeeping of Section 5. Concrete agents (Cell,
// NeuriteElement, ...) add their shape-specific state and implement the
// mechanics hooks.
#ifndef BDM_CORE_AGENT_H_
#define BDM_CORE_AGENT_H_

#include <atomic>
#include <cstddef>
#include <iosfwd>
#include <vector>

#include "core/agent_uid.h"
#include "core/behavior.h"
#include "core/soa_dirty.h"
#include "math/real3.h"

namespace bdm {

class ExecutionContext;
class InteractionForce;
class Environment;
struct Param;

class Agent {
 public:
  Agent() = default;
  /// Copy keeps uid and behaviors (deep copy); used by the Morton sorting
  /// step G, which physically relocates agents in memory.
  Agent(const Agent& other);
  virtual ~Agent();

  Agent& operator=(const Agent&) = delete;

  // --- identity & geometry -------------------------------------------------
  const AgentUid& GetUid() const { return uid_; }
  void SetUid(const AgentUid& uid) { uid_ = uid; }

  const Real3& GetPosition() const { return position_; }
  /// Moves the agent and resets its staticness (Section 5 condition i).
  void SetPosition(const Real3& position) {
    position_ = position;
    FlagModified(/*affects_neighbors=*/true);
  }

  virtual real_t GetDiameter() const = 0;
  virtual void SetDiameter(real_t diameter) = 0;

  /// Polymorphic deep copy (agent + behaviors) used by agent sorting.
  virtual Agent* NewCopy() const = 0;

  // --- checkpointing (io/checkpoint.h) ---------------------------------------
  /// Serializes the agent state (excluding behaviors, which the checkpoint
  /// handles separately). Overrides must call the base implementation
  /// first and mirror the field order in ReadState.
  virtual void WriteState(std::ostream& out) const;
  virtual void ReadState(std::istream& in);

  // --- behaviors ------------------------------------------------------------
  /// Takes ownership of `behavior`.
  void AddBehavior(Behavior* behavior) { behaviors_.push_back(behavior); }
  void RemoveBehavior(const Behavior* behavior);
  /// Destroys all behaviors of this agent (used by division events, where
  /// the daughter starts from a deep copy but must only keep the behaviors
  /// marked CopyToNewAgent).
  void ClearBehaviors();
  const std::vector<Behavior*>& GetAllBehaviors() const { return behaviors_; }
  void RunBehaviors(ExecutionContext* ctx);
  /// Copies the behaviors marked CopyToNewAgent onto a freshly divided
  /// daughter agent.
  void CopyBehaviorsTo(Agent* daughter) const;

  // --- mechanics -----------------------------------------------------------
  /// Computes the total displacement caused by mechanical interactions with
  /// neighbors within sqrt(squared_radius). Must also report, via
  /// `non_zero_forces`, how many individual neighbor forces were non-zero
  /// (Section 5 condition iv). Implementations should pass the neighbor
  /// position/diameter of Environment::NeighborData (the Update-time
  /// snapshot) to the geometry overload of InteractionForce::Calculate
  /// instead of reading them from the neighbor Agent.
  virtual Real3 CalculateDisplacement(const InteractionForce* force,
                                      Environment* env, const Param& param,
                                      int* non_zero_forces) = 0;

  /// Applies a displacement previously computed by CalculateDisplacement.
  virtual void ApplyDisplacement(const Real3& displacement, const Param& param);

  /// Engine-internal position write-back used by the fused mechanics path:
  /// same staticness semantics as SetPosition (the move wakes the agent and
  /// its neighbors), but does NOT raise the SoA geometry-dirty flag -- the
  /// caller updates the store arrays itself in the same pass, which is what
  /// keeps a quiescent population free of per-iteration refresh work.
  void CommitEnginePosition(const Real3& position) {
    position_ = position;
    is_static_next_.store(false, std::memory_order_relaxed);
    propagate_staticness_ = true;
  }

  /// Whether this agent's CalculateDisplacement deviates from the generic
  /// pairwise collision response (extra force terms, neighbor exclusions).
  /// The pair-symmetric mechanics engine assumes the total force is a sum of
  /// symmetric pair forces; while any agent with custom mechanics is alive,
  /// the engine falls back to the per-agent path for everyone.
  virtual bool HasCustomMechanics() const { return false; }

  // --- sharding (src/shard/) -------------------------------------------------
  /// Ghost agents are read-only halo copies owned by another shard: they
  /// participate in neighbor search and exert forces on local agents, but
  /// the engine never integrates a displacement for them, never runs their
  /// behaviors (they carry none), and they are excluded from population
  /// accounting. The owning shard refreshes their geometry every halo
  /// exchange.
  bool IsGhost() const { return is_ghost_; }
  void SetGhost(bool value) { is_ghost_ = value; }
  /// Mirrors the owner's staticness onto a ghost at halo exchange, so the
  /// static-pair skip (Section 5) agrees on both sides of a shard boundary.
  /// Engine-internal: only the shard layer calls this.
  void MirrorStaticness(bool is_static) {
    is_static_ = is_static;
    is_static_next_.store(is_static, std::memory_order_relaxed);
  }

  // --- static-agent mechanism (Section 5) -----------------------------------
  bool IsStatic() const { return is_static_; }
  /// Clears the agent's staticness for the next iteration. Thread-safe: any
  /// neighbor may wake this agent concurrently.
  void WakeUp() { is_static_next_.store(false, std::memory_order_relaxed); }
  bool IsStaticNext() const {
    return is_static_next_.load(std::memory_order_relaxed);
  }
  /// Whether this agent changed in a way that must also wake its neighbors
  /// (it moved, grew, or was newly added).
  bool PropagatesStaticness() const { return propagate_staticness_; }
  /// Called by the staticness operation after propagation: promotes the
  /// next-iteration flags into the current ones.
  void UpdateStaticness() {
    is_static_ = is_static_next_.load(std::memory_order_relaxed);
    is_static_next_.store(true, std::memory_order_relaxed);
    propagate_staticness_ = false;
  }
  /// Marks the agent as modified. With `affects_neighbors`, the change can
  /// increase pairwise forces on neighbors (movement, growth), so their
  /// staticness must be reset too (Section 5 conditions i-iii). Geometry
  /// changes reaching this point come from outside the engine (behaviors),
  /// so the SoA store's copy goes stale -- raise its dirty flag.
  void FlagModified(bool affects_neighbors) {
    is_static_next_.store(false, std::memory_order_relaxed);
    if (affects_neighbors) {
      propagate_staticness_ = true;
    }
    soa::MarkAosGeometryDirty();
  }

  // Route allocations through the pool allocator when enabled.
  static void* operator new(size_t size);
  static void operator delete(void* p);

 private:
  AgentUid uid_;
  Real3 position_;
  std::vector<Behavior*> behaviors_;

  // Halo-copy flag (see IsGhost). Set once when the shard layer materializes
  // the copy, cleared never; plain bool because it is immutable while the
  // agent is visible to parallel traversals.
  bool is_ghost_ = false;

  // Staticness state. `is_static_` is read-only during an iteration;
  // `is_static_next_` is written concurrently by the agent and its
  // neighbors, hence atomic.
  bool is_static_ = false;
  bool propagate_staticness_ = true;  // new agents wake their neighbors
  std::atomic<bool> is_static_next_{false};
};

}  // namespace bdm

#endif  // BDM_CORE_AGENT_H_
