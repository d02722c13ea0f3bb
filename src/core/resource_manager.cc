#include "core/resource_manager.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <numeric>
#include <unordered_set>

#include "obs/metrics.h"

namespace bdm {

namespace {
constexpr uint64_t kMax = ~uint64_t{0};

struct CommitMetrics {
  int commits = MetricsRegistry::Get().RegisterCounter("commit.commits");
  int agents_added =
      MetricsRegistry::Get().RegisterCounter("commit.agents_added");
  int agents_removed =
      MetricsRegistry::Get().RegisterCounter("commit.agents_removed");
  int cancelled_adds =
      MetricsRegistry::Get().RegisterCounter("commit.cancelled_adds");
  int uids_recycled =
      MetricsRegistry::Get().RegisterCounter("commit.uids_recycled");
};

const CommitMetrics& Metrics() {
  static const CommitMetrics metrics;
  return metrics;
}

}  // namespace

ResourceManager::ResourceManager(const Param& param, NumaThreadPool* pool,
                                 AgentUidGenerator* uid_generator)
    : param_(param), pool_(pool), uid_generator_(uid_generator) {
  agents_.resize(pool_->topology().NumDomains());
  domain_mutexes_ = std::make_unique<std::mutex[]>(agents_.size());
}

ResourceManager::~ResourceManager() {
  for (auto& domain : agents_) {
    for (Agent* a : domain) {
      delete a;
    }
  }
}

uint64_t ResourceManager::GetNumAgents() const {
  uint64_t total = 0;
  for (const auto& domain : agents_) {
    total += domain.size();
  }
  return total;
}

Agent* ResourceManager::GetAgent(const AgentUid& uid) const {
  if (!uid.IsValid() || uid.index() >= uid_map_.size()) {
    return nullptr;
  }
  const UidMapEntry& entry = uid_map_[uid.index()];
  return entry.reused == uid.reused() ? entry.agent : nullptr;
}

AgentHandle ResourceManager::GetAgentHandle(const AgentUid& uid) const {
  if (!uid.IsValid() || uid.index() >= uid_map_.size()) {
    return {};
  }
  const UidMapEntry& entry = uid_map_[uid.index()];
  return entry.reused == uid.reused() ? entry.handle : AgentHandle{};
}

void ResourceManager::EnsureUidMapCapacity() {
  const AgentUid::Index watermark = uid_generator_->HighWatermark();
  {
    std::shared_lock lock(uid_map_mutex_);
    if (watermark <= uid_map_.size()) {
      return;
    }
  }
  // Double-checked growth: only the unique holder may reallocate, so entry
  // writers holding the shared lock never observe a moving vector.
  std::unique_lock lock(uid_map_mutex_);
  if (watermark > uid_map_.size()) {
    uid_map_.resize(std::max<size_t>(watermark, uid_map_.size() * 2));
  }
}

void ResourceManager::RegisterAgent(Agent* agent, AgentHandle handle) {
  const AgentUid& uid = agent->GetUid();
  UidMapEntry& entry = uid_map_[uid.index()];
  entry.agent = agent;
  entry.reused = uid.reused();
  entry.handle = handle;
}

void ResourceManager::UnregisterAgent(const AgentUid& uid) {
  UidMapEntry& entry = uid_map_[uid.index()];
  entry.agent = nullptr;
  entry.reused = AgentUid::kReusedMax;
  entry.handle = {};
}

void ResourceManager::AddAgent(Agent* agent) {
  if (!agent->GetUid().IsValid()) {
    agent->SetUid(uid_generator_->Generate());
  }
  EnsureUidMapCapacity();
  // A pool worker keeps the agent on its own domain (first-touch locality:
  // the worker that creates an agent is the one about to initialize it);
  // out-of-pool callers -- model setup on the main thread -- balance
  // round-robin.
  int domain;
  const int worker = NumaThreadPool::CurrentThreadId();
  if (worker >= 0) {
    domain = pool_->topology().DomainOfThread(worker);
  } else {
    domain = static_cast<int>(
        round_robin_domain_.fetch_add(1, std::memory_order_relaxed) %
        static_cast<uint32_t>(GetNumDomains()));
  }
  // Concurrent adders serialize per domain on the push_back; the uid-map
  // entry write happens under the shared lock so it cannot interleave with
  // a capacity resize from another adder.
  AgentHandle handle;
  {
    std::scoped_lock lock(domain_mutexes_[domain]);
    agents_[domain].push_back(agent);
    handle = {static_cast<uint16_t>(domain), agents_[domain].size() - 1};
  }
  {
    std::shared_lock lock(uid_map_mutex_);
    RegisterAgent(agent, handle);
  }
  if (agent->HasCustomMechanics()) {
    num_custom_mechanics_.fetch_add(1, std::memory_order_relaxed);
  }
  // The store re-derives the layout on its next EnsureCurrent.
  soa_store_.MarkStructureDirty();
}

void ResourceManager::ForEachAgent(
    const std::function<void(Agent*, AgentHandle)>& fn) const {
  for (uint16_t d = 0; d < agents_.size(); ++d) {
    for (uint64_t i = 0; i < agents_[d].size(); ++i) {
      fn(agents_[d][i], {d, i});
    }
  }
}

void ResourceManager::ForEachAgentParallel(const AgentFn& fn) const {
  const int64_t block_size = std::max<int64_t>(param_.iteration_block_size, 1);
  std::vector<int64_t> blocks_per_domain(agents_.size());
  // Global index of each domain's first block: blocks are numbered in dense
  // (domain-major) order, which keys their diffusion deposits.
  std::vector<int64_t> first_block(agents_.size() + 1, 0);
  for (size_t d = 0; d < agents_.size(); ++d) {
    blocks_per_domain[d] =
        (static_cast<int64_t>(agents_[d].size()) + block_size - 1) / block_size;
    first_block[d + 1] = first_block[d] + blocks_per_domain[d];
  }
  pool_->ForEachBlock(
      blocks_per_domain, param_.numa_aware_iteration,
      [&](int d, int64_t block, int tid) {
        const ScopedDepositKey key(1 + first_block[d] + block);
        const auto& domain = agents_[d];
        const uint64_t lo = static_cast<uint64_t>(block) * block_size;
        const uint64_t hi =
            std::min<uint64_t>(lo + block_size, domain.size());
        for (uint64_t i = lo; i < hi; ++i) {
          fn(domain[i], {static_cast<uint16_t>(d), i}, tid);
        }
      });
}

std::pair<uint64_t, uint64_t> ResourceManager::Commit(
    const std::vector<ExecutionContext*>& contexts) {
  // Gather removal uids from all contexts.
  std::vector<AgentUid> removals;
  uint64_t num_added = 0;
  for (ExecutionContext* ctx : contexts) {
    removals.insert(removals.end(), ctx->removed_agents().begin(),
                    ctx->removed_agents().end());
    num_added += ctx->new_agents().size();
  }
  const uint64_t num_removed = removals.size();
  uint64_t num_cancelled = 0;

  // Removals first: their index arithmetic is relative to the pre-addition
  // vector sizes.
  if (!removals.empty()) {
    // An agent that was added and removed within the same iteration is not
    // in the uid map yet. One hash set over the pending additions and one
    // pass over each buffer handle this in O(#additions + #removals); the
    // uid of a cancelled addition is recycled, otherwise the uid map grows
    // monotonically under churn.
    std::unordered_set<AgentUid> pending;
    for (ExecutionContext* ctx : contexts) {
      for (Agent* agent : ctx->new_agents()) {
        pending.insert(agent->GetUid());
      }
    }
    std::unordered_set<AgentUid> cancelled;
    removals.erase(std::remove_if(removals.begin(), removals.end(),
                                  [&](const AgentUid& uid) {
                                    if (GetAgentHandle(uid).IsValid()) {
                                      return false;
                                    }
                                    if (pending.count(uid) != 0) {
                                      cancelled.insert(uid);
                                    }
                                    // Cancelled addition or stale duplicate:
                                    // either way not a live removal.
                                    return true;
                                  }),
                   removals.end());
    if (!cancelled.empty()) {
      for (ExecutionContext* ctx : contexts) {
        auto& fresh = ctx->new_agents();
        fresh.erase(std::remove_if(fresh.begin(), fresh.end(),
                                   [&](Agent* agent) {
                                     if (cancelled.count(agent->GetUid()) ==
                                         0) {
                                       return false;
                                     }
                                     uid_generator_->Recycle(agent->GetUid());
                                     delete agent;
                                     --num_added;
                                     ++num_cancelled;
                                     return true;
                                   }),
                    fresh.end());
      }
    }
    if (param_.parallel_commit) {
      CommitRemovalsParallel(removals);
    } else {
      CommitRemovalsSerial(removals);
    }
  }

  if (num_added > 0) {
    if (param_.parallel_commit) {
      CommitAdditionsParallel(contexts);
    } else {
      CommitAdditionsSerial(contexts);
    }
  }
  for (ExecutionContext* ctx : contexts) {
    ctx->ClearBuffers();
  }
  // A live addition or removal changed the layout, which the store gathers
  // again on its next EnsureCurrent. An empty commit (every iteration of a
  // fixed population) leaves the store current.
  if (num_added > 0 || !removals.empty()) {
    soa_store_.MarkStructureDirty();
  }
  if (MetricsRegistry::Enabled()) {
    // Commit runs on the main thread between parallel regions, so the
    // self-resolving Add lands in shard 0. `removals` holds only live
    // removals here -- cancelled additions and stale duplicates were
    // filtered out above; every live removal and every cancelled addition
    // recycled exactly one uid.
    auto& registry = MetricsRegistry::Get();
    registry.Add(Metrics().commits, 1);
    registry.Add(Metrics().agents_added, num_added);
    registry.Add(Metrics().agents_removed, removals.size());
    registry.Add(Metrics().cancelled_adds, num_cancelled);
    registry.Add(Metrics().uids_recycled, removals.size() + num_cancelled);
  }
  return {num_added, num_removed};
}

// ---------------------------------------------------------------------------
// Removals
// ---------------------------------------------------------------------------

void ResourceManager::CommitRemovalsSerial(std::vector<AgentUid>& removals) {
  for (const AgentUid& uid : removals) {
    const AgentHandle handle = GetAgentHandle(uid);
    if (!handle.IsValid()) {
      continue;  // duplicate removal request
    }
    auto& domain = agents_[handle.numa_domain];
    Agent* doomed = domain[handle.index];
    Agent* last = domain.back();
    domain[handle.index] = last;
    domain.pop_back();
    if (last != doomed) {
      UpdateUidMapPosition(last->GetUid(), handle);
    }
    UnregisterAgent(uid);
    uid_generator_->Recycle(uid);
    if (doomed->HasCustomMechanics()) {
      num_custom_mechanics_.fetch_sub(1, std::memory_order_relaxed);
    }
    delete doomed;
  }
}

void ResourceManager::CommitRemovalsParallel(std::vector<AgentUid>& removals) {
  // Group removal indices per NUMA domain; capture doomed pointers before
  // any swap overwrites their slots.
  std::vector<std::vector<uint64_t>> per_domain(GetNumDomains());
  std::vector<Agent*> doomed;
  doomed.reserve(removals.size());
  for (const AgentUid& uid : removals) {
    const AgentHandle handle = GetAgentHandle(uid);
    if (!handle.IsValid()) {
      continue;  // duplicate removal request
    }
    per_domain[handle.numa_domain].push_back(handle.index);
    doomed.push_back(agents_[handle.numa_domain][handle.index]);
    UnregisterAgent(uid);
    uid_generator_->Recycle(uid);
    if (doomed.back()->HasCustomMechanics()) {
      num_custom_mechanics_.fetch_sub(1, std::memory_order_relaxed);
    }
  }
  RemoveFromDomainsParallel(per_domain, doomed.size());
  // Destroy removed agents in parallel; destruction releases behaviors too.
  pool_->ParallelFor(0, static_cast<int64_t>(doomed.size()), 64,
                     [&](int64_t lo, int64_t hi, int) {
                       for (int64_t i = lo; i < hi; ++i) {
                         delete doomed[i];
                       }
                     });
}

void ResourceManager::RemoveSwapSerial(int domain,
                                       const std::vector<uint64_t>& removed_idx) {
  auto& agents = agents_[domain];
  if (removed_idx.empty()) {
    return;
  }
  assert(removed_idx.size() <= agents.size());
  std::vector<uint64_t> sorted(removed_idx);
  std::sort(sorted.begin(), sorted.end(), std::greater<>());
  uint64_t back = agents.size();
  for (uint64_t idx : sorted) {
    --back;
    if (idx != back) {
      Agent* moved = agents[back];
      agents[idx] = moved;
      UpdateUidMapPosition(moved->GetUid(),
                           {static_cast<uint16_t>(domain), idx});
    }
  }
  agents.resize(agents.size() - removed_idx.size());
}

void ResourceManager::RemoveFromDomainsParallel(
    const std::vector<std::vector<uint64_t>>& per_domain,
    uint64_t total_removed) {
  const int num_domains = GetNumDomains();
  if (total_removed == 0) {
    return;
  }

  // Below this batch size the pool dispatches cost more than the work; the
  // serial swap loop is the same algorithm with one thread.
  if (total_removed < 512) {
    for (int d = 0; d < num_domains; ++d) {
      RemoveSwapSerial(d, per_domain[d]);
    }
    return;
  }

  // Fused across domains: one set of auxiliary arrays where the segment
  // [seg[d], seg[d+1]) belongs to domain d, so a single classify / compact /
  // swap dispatch covers every domain's removals instead of running the
  // five steps domain after domain. Still O(#removed) total, independent of
  // #remaining agents.
  std::vector<uint64_t> seg(num_domains + 1, 0);
  std::vector<uint64_t> new_size(num_domains);
  for (int d = 0; d < num_domains; ++d) {
    assert(per_domain[d].size() <= agents_[d].size());
    seg[d + 1] = seg[d] + per_domain[d].size();
    new_size[d] = agents_[d].size() - per_domain[d].size();
  }
  assert(seg[num_domains] == total_removed);
  const auto domain_of = [](const std::vector<uint64_t>& offsets, uint64_t k) {
    return static_cast<int>(std::upper_bound(offsets.begin(), offsets.end(),
                                             k) -
                            offsets.begin()) -
           1;
  };

  // Step 1: auxiliary arrays, both sized by the total number of removed
  // agents.
  std::vector<uint64_t> to_right(total_removed, kMax);
  std::vector<uint8_t> not_to_left(total_removed, 0);

  // Step 2: classify every removed index. Indices left of the domain's
  // new_size leave a hole that a live agent must fill (to_right); indices
  // right of it mark their slot as "already dead, nothing to move"
  // (not_to_left; idx - new_size stays inside the domain's segment).
  pool_->ParallelFor(0, static_cast<int64_t>(total_removed), 1024,
                     [&](int64_t lo, int64_t hi, int) {
                       int d = domain_of(seg, static_cast<uint64_t>(lo));
                       for (int64_t k = lo; k < hi; ++k) {
                         while (static_cast<uint64_t>(k) >= seg[d + 1]) {
                           ++d;
                         }
                         const uint64_t idx = per_domain[d][k - seg[d]];
                         if (idx < new_size[d]) {
                           to_right[k] = idx;
                         } else {
                           not_to_left[seg[d] + (idx - new_size[d])] = 1;
                         }
                       }
                     });

  // Step 3: per-thread blocks compact both arrays, independently inside
  // every domain's segment. not_to_left flips its meaning to to_left: zeros
  // identify live agents right of new_size that must move left; their
  // absolute index is segment_local_index + new_size. The per-block swap
  // counts live in (domain, thread)-indexed tables.
  const int num_threads = pool_->NumThreads();
  std::vector<uint64_t> block(num_domains);
  for (int d = 0; d < num_domains; ++d) {
    block[d] = (per_domain[d].size() + num_threads - 1) /
               static_cast<uint64_t>(num_threads);
  }
  std::vector<uint64_t> to_left(total_removed);
  std::vector<uint64_t> swaps_right(num_domains * (num_threads + 1), 0);
  std::vector<uint64_t> swaps_left(num_domains * (num_threads + 1), 0);
  // RunSlots (not Run) here and below: tid indexes the per-thread BLOCK of
  // each domain's segment, and every block must be processed even when the
  // calling thread's team covers only part of the pool.
  pool_->RunSlots(num_threads, [&](int tid) {
    for (int d = 0; d < num_domains; ++d) {
      const uint64_t n = per_domain[d].size();
      const uint64_t local_lo = static_cast<uint64_t>(tid) * block[d];
      const uint64_t local_hi = std::min<uint64_t>(local_lo + block[d], n);
      if (block[d] == 0 || local_lo >= local_hi) {
        continue;
      }
      const uint64_t lo = seg[d] + local_lo;
      const uint64_t hi = seg[d] + local_hi;
      uint64_t right_cursor = lo;
      for (uint64_t k = lo; k < hi; ++k) {
        if (to_right[k] != kMax) {
          to_right[right_cursor++] = to_right[k];
        }
      }
      swaps_right[d * (num_threads + 1) + tid + 1] = right_cursor - lo;
      uint64_t left_cursor = lo;
      for (uint64_t j = lo; j < hi; ++j) {
        if (not_to_left[j] == 0) {
          to_left[left_cursor++] = (j - seg[d]) + new_size[d];
        }
      }
      swaps_left[d * (num_threads + 1) + tid + 1] = left_cursor - lo;
    }
  });

  // Step 4: prefix-sum the per-block swap counts per domain (tiny arrays,
  // serial) and execute all domains' swaps in one parallel dispatch. Within
  // a domain the number of holes left of new_size always equals the number
  // of live agents right of it.
  std::vector<uint64_t> swap_seg(num_domains + 1, 0);
  for (int d = 0; d < num_domains; ++d) {
    uint64_t* right = &swaps_right[d * (num_threads + 1)];
    uint64_t* left = &swaps_left[d * (num_threads + 1)];
    std::partial_sum(right, right + num_threads + 1, right);
    std::partial_sum(left, left + num_threads + 1, left);
    assert(right[num_threads] == left[num_threads]);
    swap_seg[d + 1] = swap_seg[d] + right[num_threads];
  }
  const uint64_t num_swaps = swap_seg[num_domains];
  std::vector<uint64_t> compact_right(num_swaps);
  std::vector<uint64_t> compact_left(num_swaps);
  pool_->RunSlots(num_threads, [&](int tid) {
    for (int d = 0; d < num_domains; ++d) {
      const uint64_t local_lo = static_cast<uint64_t>(tid) * block[d];
      if (block[d] == 0 || local_lo >= per_domain[d].size()) {
        continue;
      }
      const uint64_t* right = &swaps_right[d * (num_threads + 1)];
      const uint64_t* left = &swaps_left[d * (num_threads + 1)];
      std::copy_n(to_right.begin() + seg[d] + local_lo,
                  right[tid + 1] - right[tid],
                  compact_right.begin() + swap_seg[d] + right[tid]);
      std::copy_n(to_left.begin() + seg[d] + local_lo,
                  left[tid + 1] - left[tid],
                  compact_left.begin() + swap_seg[d] + left[tid]);
    }
  });
  pool_->ParallelFor(
      0, static_cast<int64_t>(num_swaps), 512,
      [&](int64_t lo, int64_t hi, int) {
        int d = domain_of(swap_seg, static_cast<uint64_t>(lo));
        for (int64_t k = lo; k < hi; ++k) {
          while (static_cast<uint64_t>(k) >= swap_seg[d + 1]) {
            ++d;
          }
          auto& agents = agents_[d];
          const uint64_t dst = compact_right[k];
          const uint64_t src = compact_left[k];
          Agent* moved = agents[src];
          agents[dst] = moved;
          UpdateUidMapPosition(moved->GetUid(),
                               {static_cast<uint16_t>(d), dst});
        }
      });

  // Step 5: shrink every domain.
  for (int d = 0; d < num_domains; ++d) {
    agents_[d].resize(new_size[d]);
  }
}

void ResourceManager::ReplaceAgentVectors(
    std::vector<std::vector<Agent*>>&& new_vectors) {
  assert(new_vectors.size() == agents_.size());
  agents_ = std::move(new_vectors);
  // Sorting rebuilt every vector (and may have relocated agents), so the
  // store gathers every row again.
  soa_store_.MarkStructureDirty();
  // Agent sorting moves agents to new handles and may copy them to new
  // memory locations, so both the pointer and the handle of every uid-map
  // entry must be refreshed.
  for (uint16_t d = 0; d < agents_.size(); ++d) {
    auto& domain = agents_[d];
    pool_->ParallelFor(0, static_cast<int64_t>(domain.size()), 4096,
                       [&](int64_t lo, int64_t hi, int) {
                         for (int64_t i = lo; i < hi; ++i) {
                           RegisterAgent(domain[i],
                                         {d, static_cast<uint64_t>(i)});
                         }
                       });
  }
}

// ---------------------------------------------------------------------------
// Additions
// ---------------------------------------------------------------------------

void ResourceManager::CommitAdditionsSerial(
    const std::vector<ExecutionContext*>& contexts) {
  EnsureUidMapCapacity();
  for (ExecutionContext* ctx : contexts) {
    const int domain = ctx->numa_domain();
    for (Agent* agent : ctx->new_agents()) {
      agents_[domain].push_back(agent);
      RegisterAgent(agent, {static_cast<uint16_t>(domain),
                            agents_[domain].size() - 1});
      if (agent->HasCustomMechanics()) {
        num_custom_mechanics_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
}

void ResourceManager::CommitAdditionsParallel(
    const std::vector<ExecutionContext*>& contexts) {
  EnsureUidMapCapacity();
  // Reserve a contiguous range per context inside its domain's vector. The
  // "grow the data structures" step is the only serial part (the vector
  // resize); the pointer writes and uid-map registration happen in parallel.
  const int num_contexts = static_cast<int>(contexts.size());
  std::vector<uint64_t> offset(num_contexts);
  std::vector<uint64_t> domain_growth(GetNumDomains(), 0);
  for (int c = 0; c < num_contexts; ++c) {
    const int d = contexts[c]->numa_domain();
    offset[c] = agents_[d].size() + domain_growth[d];
    domain_growth[d] += contexts[c]->new_agents().size();
    for (Agent* agent : contexts[c]->new_agents()) {
      if (agent->HasCustomMechanics()) {
        num_custom_mechanics_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  for (int d = 0; d < GetNumDomains(); ++d) {
    agents_[d].resize(agents_[d].size() + domain_growth[d]);
  }
  // Every context's new agents land in a precomputed disjoint index range,
  // so contexts can be filled by any worker in any distribution; RunSlots
  // covers all of them exactly once even from a partial team.
  auto fill = [&](int c) {
    const int d = contexts[c]->numa_domain();
    auto& domain = agents_[d];
    uint64_t index = offset[c];
    for (Agent* agent : contexts[c]->new_agents()) {
      domain[index] = agent;
      RegisterAgent(agent, {static_cast<uint16_t>(d), index});
      ++index;
    }
  };
  pool_->RunSlots(num_contexts, fill);
}

}  // namespace bdm
