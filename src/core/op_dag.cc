#include "core/op_dag.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/timing.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace bdm {

// ---------------------------------------------------------------------------
// OpDag
// ---------------------------------------------------------------------------

OpDag OpDag::FromPipeline(std::vector<OpDagNode> nodes) {
  OpDag dag;
  const int n = static_cast<int>(nodes.size());
  dag.nodes_ = std::move(nodes);
  dag.successors_.assign(n, {});
  dag.indegree_.assign(n, 0);
  for (int i = 0; i < n; ++i) {
    const OpDagNode& a = dag.nodes_[i];
    for (int j = i + 1; j < n; ++j) {
      const OpDagNode& b = dag.nodes_[j];
      const uint8_t conflict = static_cast<uint8_t>(
          (a.writes & (b.reads | b.writes)) | (a.reads & b.writes));
      if (conflict != 0) {
        dag.successors_[i].push_back(j);
        ++dag.indegree_[j];
      }
    }
  }
  // Forward-only edges: acyclic by construction, no Validate needed.
  return dag;
}

OpDag OpDag::FromEdges(std::vector<OpDagNode> nodes,
                       const std::vector<std::pair<int, int>>& edges) {
  OpDag dag;
  const int n = static_cast<int>(nodes.size());
  dag.nodes_ = std::move(nodes);
  dag.successors_.assign(n, {});
  dag.indegree_.assign(n, 0);
  for (const auto& [from, to] : edges) {
    if (from < 0 || from >= n || to < 0 || to >= n) {
      throw std::invalid_argument("OpDag::FromEdges: edge endpoint " +
                                  std::to_string(from) + "->" +
                                  std::to_string(to) + " out of range");
    }
    dag.successors_[from].push_back(to);
    ++dag.indegree_[to];
  }
  dag.Validate();
  return dag;
}

bool OpDag::HasEdge(int from, int to) const {
  const auto& succ = successors_[from];
  return std::find(succ.begin(), succ.end(), to) != succ.end();
}

std::vector<int> OpDag::TopologicalOrder() const {
  const int n = size();
  std::vector<int> indegree = indegree_;
  std::vector<int> order;
  order.reserve(n);
  // O(n^2) min-index Kahn: deterministic order, and pipeline DAGs have a
  // handful of nodes -- simplicity beats a priority queue here.
  std::vector<bool> emitted(n, false);
  for (int step = 0; step < n; ++step) {
    int pick = -1;
    for (int i = 0; i < n; ++i) {
      if (!emitted[i] && indegree[i] == 0) {
        pick = i;
        break;
      }
    }
    if (pick < 0) {
      throw std::invalid_argument("OpDag: cycle detected");
    }
    emitted[pick] = true;
    order.push_back(pick);
    for (int succ : successors_[pick]) {
      --indegree[succ];
    }
  }
  return order;
}

void OpDag::Validate() const {
  TopologicalOrder();  // throws std::invalid_argument on a cycle
}

// ---------------------------------------------------------------------------
// DagExecutor
// ---------------------------------------------------------------------------

DagExecutor::DagExecutor(NumaThreadPool* pool, int max_lanes, int slot_base,
                         const std::string& track_prefix)
    : pool_(pool) {
  const int workers = pool_->NumThreads();
  slot_base_ = slot_base >= 0 ? slot_base : workers + 1;
  // Every lane occupies the thread slot slot_base_+lane in the metrics /
  // timing / trace / deposit-log shard spaces, all capped at kMaxSlots.
  if (slot_base_ >= MetricsRegistry::kMaxSlots) {
    throw std::invalid_argument(
        "DagExecutor: lane slot base " + std::to_string(slot_base_) +
        " leaves no thread slot below " +
        std::to_string(MetricsRegistry::kMaxSlots));
  }
  const int lanes = std::clamp(std::min(max_lanes, workers), 1,
                               MetricsRegistry::kMaxSlots - slot_base_);
  lanes_ = std::vector<Lane>(static_cast<size_t>(lanes));
  MetricsRegistry::Get().ConfigureSlots(slot_base_ + lanes);
  for (int l = 0; l < lanes; ++l) {
    TraceRecorder::Get().SetThreadName(LaneThreadSlot(l),
                                       track_prefix + " " + std::to_string(l));
    lanes_[l].thread = std::thread([this, l] { LaneLoop(l); });
  }
}

DagExecutor::~DagExecutor() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_lane_.notify_all();
  for (Lane& lane : lanes_) {
    lane.thread.join();
  }
}

void DagExecutor::Execute(const OpDag& dag,
                          const std::function<void(int)>& body,
                          const std::vector<double>& weights) {
  const int n = dag.size();
  if (n == 0) {
    return;
  }
  std::unique_lock<std::mutex> lock(mu_);
  assert(dag_ == nullptr && "DagExecutor::Execute is not reentrant");
  dag_ = &dag;
  body_ = &body;
  indegree_.assign(n, 0);
  ready_.clear();
  for (int i = 0; i < n; ++i) {
    indegree_[i] = dag.num_predecessors(i);
    if (indegree_[i] == 0) {
      ready_.push_back(i);
    }
  }
  weights_ = weights;
  owner_.assign(static_cast<size_t>(pool_->NumThreads()), -1);
  remaining_ = n;
  cancel_ = false;
  error_ = nullptr;
  cv_lane_.notify_all();
  cv_main_.wait(lock, [this] { return remaining_ == 0; });
  dag_ = nullptr;
  body_ = nullptr;
  std::exception_ptr error = error_;
  error_ = nullptr;
  if (error) {
    std::rethrow_exception(error);
  }
}

void DagExecutor::LaneLoop(int lane) {
  // Bind this thread's shard slot once; the team half of the binding is
  // refreshed by AcquireTeam before every node body.
  NumaThreadPool::BindLane(&lanes_[lane].binding, LaneThreadSlot(lane));
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_lane_.wait(lock, [this] {
      return shutdown_ ||
             (dag_ != nullptr && !ready_.empty() &&
              (cancel_ || FreeWorkers() > 0));
    });
    if (shutdown_) {
      return;
    }
    const int node = ready_.front();
    ready_.pop_front();
    if (!cancel_) {
      AcquireTeam(lane, node);
      lanes_[lane].running = true;
      lock.unlock();
      try {
        (*body_)(node);
      } catch (...) {
        lock.lock();
        if (!error_) {
          error_ = std::current_exception();
        }
        // Skip every not-yet-started node body so Execute can terminate
        // and rethrow; in-flight co-running nodes finish normally.
        cancel_ = true;
        lock.unlock();
      }
      lock.lock();
      lanes_[lane].running = false;
      ReleaseTeam(lane);
    }
    // Node complete: unlock successors.
    bool woke_ready = false;
    for (int succ : dag_->successors(node)) {
      if (--indegree_[succ] == 0) {
        ready_.push_back(succ);
        woke_ready = true;
      }
    }
    if (ready_.empty()) {
      // Nobody is waiting for workers: widen the running lanes into the
      // just-freed interval so finishing ops donate their workers.
      GrowRunningLanes();
    }
    if (woke_ready || FreeWorkers() > 0) {
      cv_lane_.notify_all();
    }
    if (--remaining_ == 0) {
      cv_main_.notify_all();
    }
  }
}

int DagExecutor::FreeWorkers() const {
  int free = 0;
  for (int owner : owner_) {
    free += owner < 0 ? 1 : 0;
  }
  return free;
}

void DagExecutor::AcquireTeam(int lane, int node) {
  // Weight-proportional share of the free workers against the other nodes
  // that are ready right now. When this is the only claimant, take
  // everything that is free.
  const auto weight_of = [this](int i) {
    return i < static_cast<int>(weights_.size()) && weights_[i] > 0
               ? weights_[i]
               : 1.0;
  };
  const int total_free = FreeWorkers();
  assert(total_free > 0);
  int desired = total_free;
  if (!ready_.empty()) {
    const double w = weight_of(node);
    double others = 0;
    for (int r : ready_) {
      others += weight_of(r);
    }
    desired = static_cast<int>(total_free * (w / (w + others)) + 0.5);
    desired = std::max(desired, 1);
  }
  // Teams are contiguous worker ranges (slab partitions and RunSlots chunk
  // by rank); grant from the largest free interval.
  const int n = static_cast<int>(owner_.size());
  int best_begin = -1;
  int best_len = 0;
  for (int i = 0; i < n;) {
    if (owner_[i] >= 0) {
      ++i;
      continue;
    }
    int j = i;
    while (j < n && owner_[j] < 0) {
      ++j;
    }
    if (j - i > best_len) {
      best_len = j - i;
      best_begin = i;
    }
    i = j;
  }
  assert(best_len > 0);
  const int take = std::min(desired, best_len);
  const int begin = best_begin;
  const int end = begin + take;
  for (int i = begin; i < end; ++i) {
    owner_[i] = lane;
  }
  lanes_[lane].team = {begin, end};
  lanes_[lane].binding.Store(begin, end);
}

void DagExecutor::ReleaseTeam(int lane) {
  const NumaThreadPool::Team team = lanes_[lane].team;
  for (int i = team.begin; i < team.end; ++i) {
    owner_[i] = -1;
  }
  lanes_[lane].team = {0, 0};
}

void DagExecutor::GrowRunningLanes() {
  // Grow-only widening: extending a running lane's interval into FREE
  // workers is safe mid-op -- its next pool dispatch snapshots the wider
  // team; a dispatch already in flight keeps the narrower snapshot. Teams
  // never shrink while a node runs, so no worker is ever shared.
  for (int l = 0; l < NumLanes(); ++l) {
    Lane& lane = lanes_[l];
    if (!lane.running) {
      continue;
    }
    int begin = lane.team.begin;
    int end = lane.team.end;
    while (end < static_cast<int>(owner_.size()) && owner_[end] < 0) {
      owner_[end] = l;
      ++end;
    }
    while (begin > 0 && owner_[begin - 1] < 0) {
      --begin;
      owner_[begin] = l;
    }
    if (begin != lane.team.begin || end != lane.team.end) {
      lane.team = {begin, end};
      lane.binding.Store(begin, end);
    }
  }
}

}  // namespace bdm
