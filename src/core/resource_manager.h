// ResourceManager: the agent store (paper Sections 3.1, 3.2, 4.1, 4.2).
//
// Agents live in one pointer vector per NUMA domain; no empty slots are
// allowed, so removing from the middle swaps with the tail. A uid map
// translates stable AgentUids to (pointer, handle) and is updated by every
// operation that relocates agents: the parallel removal algorithm of
// Section 3.2, and the Morton sorting/balancing of Section 4.2 (which swaps
// in completely rebuilt vectors via ReplaceAgentVectors).
#ifndef BDM_CORE_RESOURCE_MANAGER_H_
#define BDM_CORE_RESOURCE_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <vector>

#include "core/agent.h"
#include "core/agent_handle.h"
#include "core/agent_uid.h"
#include "core/execution_context.h"
#include "core/param.h"
#include "core/soa_store.h"
#include "sched/numa_thread_pool.h"

namespace bdm {

class ResourceManager {
 public:
  /// Callback for parallel iteration: agent, its handle, worker thread id.
  using AgentFn = std::function<void(Agent*, AgentHandle, int)>;

  ResourceManager(const Param& param, NumaThreadPool* pool,
                  AgentUidGenerator* uid_generator);
  ~ResourceManager();

  ResourceManager(const ResourceManager&) = delete;
  ResourceManager& operator=(const ResourceManager&) = delete;

  // --- queries ---------------------------------------------------------------
  uint64_t GetNumAgents() const;
  uint64_t GetNumAgents(int numa_domain) const {
    return agents_[numa_domain].size();
  }
  int GetNumDomains() const { return static_cast<int>(agents_.size()); }

  /// Number of live agents whose mechanics deviate from the generic pairwise
  /// collision response (Agent::HasCustomMechanics). Maintained atomically
  /// by AddAgent/Commit; the pair-symmetric force engine consults it to
  /// decide whether the half-stencil pair path is valid.
  int64_t GetNumCustomMechanicsAgents() const {
    return num_custom_mechanics_.load(std::memory_order_relaxed);
  }

  /// Current size of the uid map. Grows with the generator's high watermark;
  /// under churn with recycling it must stay bounded (asserted by the churn
  /// stress test and bench_commit).
  uint64_t UidMapSize() const { return uid_map_.size(); }

  Agent* GetAgent(const AgentUid& uid) const;
  AgentHandle GetAgentHandle(const AgentUid& uid) const;
  Agent* GetAgent(const AgentHandle& handle) const {
    return agents_[handle.numa_domain][handle.index];
  }
  bool ContainsAgent(const AgentUid& uid) const { return GetAgent(uid) != nullptr; }

  // --- mutation --------------------------------------------------------------
  /// Direct addition used during model initialization. Takes ownership and
  /// assigns a uid when the agent has none. When called from a pool worker
  /// the agent is placed on the worker's own NUMA domain (so its pages and
  /// its pointer slot stay local to the thread that will most likely touch
  /// it); out-of-pool callers spread agents round-robin over domains (the
  /// Morton balancing later replaces this with a spatial partition).
  /// Thread-safe: concurrent callers serialize per domain, and uid-map
  /// growth is guarded by a shared mutex -- but concurrent *readers*
  /// (GetAgent/iteration) are not part of the contract while an add phase
  /// runs; agents buffered through the ExecutionContext remain the way to
  /// create agents during an iteration.
  void AddAgent(Agent* agent);

  /// Commits all buffered additions and removals from the per-thread
  /// execution contexts. Uses the parallel algorithms of Section 3.2 when
  /// param.parallel_commit is set, a serial reference implementation
  /// otherwise. A commit that added or removed a live agent marks the SoA
  /// store structure-dirty; an empty one leaves it current. Returns
  /// {#added, #removed}.
  std::pair<uint64_t, uint64_t> Commit(
      const std::vector<ExecutionContext*>& contexts);

  // --- iteration --------------------------------------------------------------
  /// Serial iteration over all agents (domain by domain).
  void ForEachAgent(const std::function<void(Agent*, AgentHandle)>& fn) const;

  /// NUMA-aware parallel iteration (paper Section 4.1): per-domain vectors
  /// are split into blocks of param.iteration_block_size agents, blocks are
  /// assigned to threads of the matching domain, idle threads steal.
  void ForEachAgentParallel(const AgentFn& fn) const;

  // --- support for agent sorting (Section 4.2) -------------------------------
  const std::vector<Agent*>& GetAgentVector(int numa_domain) const {
    return agents_[numa_domain];
  }
  /// Replaces all per-domain vectors at once and rebuilds uid-map handles
  /// (and pointers, since sorting may copy agents to new memory locations).
  /// Marks the SoA store structure-dirty.
  void ReplaceAgentVectors(std::vector<std::vector<Agent*>>&& new_vectors);

  /// Direct handle update, used by the removal swaps.
  void UpdateUidMapPosition(const AgentUid& uid, AgentHandle handle) {
    uid_map_[uid.index()].handle = handle;
  }

  /// The persistent SoA mirror of the agent population (core/soa_store.h).
  /// Mutable because consumers (environment update, mechanics) refresh it
  /// lazily from const iteration paths; the store only ever re-derives
  /// state already owned by this ResourceManager.
  SoaStore& GetSoaStore() const { return soa_store_; }

 private:
  friend class ConsistencyAudit;

  struct UidMapEntry {
    Agent* agent = nullptr;
    AgentUid::Reused reused = AgentUid::kReusedMax;
    AgentHandle handle;
  };

  void EnsureUidMapCapacity();
  void RegisterAgent(Agent* agent, AgentHandle handle);
  void UnregisterAgent(const AgentUid& uid);

  void CommitRemovalsSerial(std::vector<AgentUid>& removals);
  void CommitRemovalsParallel(std::vector<AgentUid>& removals);
  /// The five-step parallel removal of Section 3.2, fused across all NUMA
  /// domains: one classify / compact / swap dispatch covers every domain's
  /// removals, so small per-domain batches do not serialize.
  void RemoveFromDomainsParallel(
      const std::vector<std::vector<uint64_t>>& per_domain,
      uint64_t total_removed);
  /// Serial descending-index swap removal for one domain (small batches).
  void RemoveSwapSerial(int domain, const std::vector<uint64_t>& removed_idx);

  void CommitAdditionsSerial(const std::vector<ExecutionContext*>& contexts);
  void CommitAdditionsParallel(const std::vector<ExecutionContext*>& contexts);

  const Param& param_;
  NumaThreadPool* pool_;
  AgentUidGenerator* uid_generator_;

  std::vector<std::vector<Agent*>> agents_;  // one vector per NUMA domain
  std::vector<UidMapEntry> uid_map_;
  /// Serializes concurrent direct AddAgent calls targeting the same domain
  /// (vector<mutex> cannot grow, hence the array).
  std::unique_ptr<std::mutex[]> domain_mutexes_;
  /// Unique for uid-map growth, shared for concurrent entry writes during a
  /// direct-add phase (distinct uids -> distinct slots).
  std::shared_mutex uid_map_mutex_;
  std::atomic<uint32_t> round_robin_domain_{0};
  std::atomic<int64_t> num_custom_mechanics_{0};
  mutable SoaStore soa_store_;
};

}  // namespace bdm

#endif  // BDM_CORE_RESOURCE_MANAGER_H_
