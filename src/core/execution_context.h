// Per-thread execution context.
//
// Each worker thread (plus the main thread) owns one ExecutionContext. It
// buffers agent additions and removals issued by behaviors during the
// iteration -- "BioDynaMo stores a thread-local copy of additions and
// removals and commits them to the ResourceManager at the end of each
// iteration" (paper Section 3.2) -- and carries the thread's deterministic
// RNG.
#ifndef BDM_CORE_EXECUTION_CONTEXT_H_
#define BDM_CORE_EXECUTION_CONTEXT_H_

#include <vector>

#include "core/agent.h"
#include "core/agent_handle.h"
#include "core/agent_uid.h"
#include "math/random.h"

namespace bdm {

class ExecutionContext {
 public:
  ExecutionContext(int numa_domain, uint64_t seed, AgentUidGenerator* uid_generator)
      : numa_domain_(numa_domain), random_(seed), uid_generator_(uid_generator) {}

  ExecutionContext(const ExecutionContext&) = delete;
  ExecutionContext& operator=(const ExecutionContext&) = delete;

  Random* random() { return &random_; }
  int numa_domain() const { return numa_domain_; }

  /// Resource-manager handle of the agent whose behaviors run on this
  /// context; invalid outside the behavior operation. A behavior passes it
  /// to Environment::CountNeighbors to read its own count-column entry.
  AgentHandle agent_handle() const { return agent_handle_; }
  void set_agent_handle(AgentHandle handle) { agent_handle_ = handle; }

  /// Takes ownership of `agent` and schedules it for addition at the end of
  /// the iteration. A uid is assigned immediately so the new agent can
  /// already be referenced through AgentPointers.
  void AddAgent(Agent* agent) {
    if (!agent->GetUid().IsValid()) {
      agent->SetUid(uid_generator_->Generate());
    }
    new_agents_.push_back(agent);
  }

  /// Schedules the agent with `uid` for removal at the end of the iteration.
  void RemoveAgent(const AgentUid& uid) { removed_agents_.push_back(uid); }

  // Accessors for the ResourceManager commit.
  std::vector<Agent*>& new_agents() { return new_agents_; }
  std::vector<AgentUid>& removed_agents() { return removed_agents_; }

  void ClearBuffers() {
    new_agents_.clear();
    removed_agents_.clear();
  }

 private:
  int numa_domain_;
  Random random_;
  AgentUidGenerator* uid_generator_;
  AgentHandle agent_handle_;
  std::vector<Agent*> new_agents_;
  std::vector<AgentUid> removed_agents_;
};

}  // namespace bdm

#endif  // BDM_CORE_EXECUTION_CONTEXT_H_
