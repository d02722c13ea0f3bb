// Operation dependency DAG and its executor (DESIGN.md "Operation DAG").
//
// The sequential scheduler runs the pipeline ops strictly in order even
// when they touch disjoint state -- diffusion (continuum fields only)
// serializes behind the whole mechanics pipeline every iteration. Here the
// ops' declared resource footprints (core/operation.h ResourceBits) are
// turned into a dependency DAG: an edge keeps the pipeline order exactly
// where two ops conflict, and everything else may overlap. The DagExecutor
// schedules ready nodes onto persistent "lane" threads, each of which
// drives its op's parallel phases on a disjoint contiguous slice of the
// shared NumaThreadPool ("team"), sized by measured per-op cost and widened
// -- never narrowed -- as co-running ops finish.
#ifndef BDM_CORE_OP_DAG_H_
#define BDM_CORE_OP_DAG_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "sched/numa_thread_pool.h"

namespace bdm {

/// One DAG node: a pipeline operation's name and resource footprint.
struct OpDagNode {
  std::string name;
  uint8_t reads = 0xFF;
  uint8_t writes = 0xFF;
};

/// Immutable dependency DAG over a set of pipeline nodes.
class OpDag {
 public:
  OpDag() = default;

  /// Derives conflict edges over `nodes` in PIPELINE order: an edge i -> j
  /// (i < j) exists iff j must observe i's effects, i.e. when
  ///   (writes_i & (reads_j | writes_j)) | (reads_i & writes_j) != 0
  /// (flow, output, and anti dependencies). Forward-only edges make the
  /// result acyclic by construction; the sequential pipeline order is
  /// always one of its topological orders, so DAG execution refines -- never
  /// contradicts -- the sequential semantics.
  static OpDag FromPipeline(std::vector<OpDagNode> nodes);

  /// Builds a DAG from explicit edges (test/advanced entry). Throws
  /// std::invalid_argument on an out-of-range endpoint or when the edges
  /// form a cycle.
  static OpDag FromEdges(std::vector<OpDagNode> nodes,
                         const std::vector<std::pair<int, int>>& edges);

  int size() const { return static_cast<int>(nodes_.size()); }
  const OpDagNode& node(int i) const { return nodes_[i]; }
  const std::vector<int>& successors(int i) const { return successors_[i]; }
  int num_predecessors(int i) const { return indegree_[i]; }
  bool HasEdge(int from, int to) const;

  /// A valid topological order, smallest node index first among the ready
  /// set (Kahn). For a FromPipeline DAG this is exactly 0..n-1.
  std::vector<int> TopologicalOrder() const;

 private:
  /// Kahn pass; throws std::invalid_argument when a cycle keeps some node
  /// unreachable.
  void Validate() const;

  std::vector<OpDagNode> nodes_;
  std::vector<std::vector<int>> successors_;
  std::vector<int> indegree_;
};

/// Runs the nodes of an OpDag with ready-node concurrency on a shared
/// NumaThreadPool. Owns `NumLanes()` persistent driver threads; each lane
/// executes one node's body at a time with a LaneBinding that scopes every
/// pool dispatch the body makes to the lane's current worker team.
class DagExecutor {
 public:
  /// `max_lanes` bounds op concurrency; the effective lane count is further
  /// capped by the pool width and the shard-slot capacity (lane l uses
  /// thread slot slot_base + l for metrics/timing/trace/deposits).
  /// `slot_base` picks where that slot range starts (default: right past
  /// the workers' slots, NumThreads() + 1). A process running TWO executors
  /// concurrently -- the shard driver's lanes each stepping a shard whose
  /// scheduler owns its own per-shard executor -- must give them disjoint
  /// slot ranges. `track_prefix` names the lanes' trace tracks
  /// ("<prefix> <lane>"). Throws std::invalid_argument when `slot_base`
  /// leaves no slot below MetricsRegistry::kMaxSlots for even one lane.
  DagExecutor(NumaThreadPool* pool, int max_lanes, int slot_base = -1,
              const std::string& track_prefix = "op lane");
  ~DagExecutor();

  DagExecutor(const DagExecutor&) = delete;
  DagExecutor& operator=(const DagExecutor&) = delete;

  int NumLanes() const { return static_cast<int>(lanes_.size()); }
  int LaneThreadSlot(int lane) const { return slot_base_ + lane; }

  /// Executes every node of `dag`: `body(node_index)` runs on a lane
  /// thread; nodes whose predecessors completed run concurrently on
  /// disjoint worker teams. `weights[i]` is node i's relative cost estimate
  /// (empty = all equal): free workers are split between simultaneously
  /// ready nodes in proportion, and a finishing node's workers grow the
  /// teams of adjacent still-running nodes. Blocks until all nodes
  /// completed; if a body threw, the remaining un-started nodes are skipped
  /// and the first exception is rethrown here.
  void Execute(const OpDag& dag, const std::function<void(int)>& body,
               const std::vector<double>& weights = {});

 private:
  struct Lane {
    std::thread thread;
    LaneBinding binding;
    NumaThreadPool::Team team;  // current grant; mirror of binding
    bool running = false;       // true while a node body executes
  };

  void LaneLoop(int lane);
  /// Carves a contiguous worker team for `node` out of the free workers
  /// (weight-proportional against the still-ready nodes) and binds it to
  /// `lane`. Requires at least one free worker. Called under mu_.
  void AcquireTeam(int lane, int node);
  /// Returns `lane`'s workers to the free set. Called under mu_.
  void ReleaseTeam(int lane);
  /// Grants free workers to adjacent running lanes (grow-only: a lane's
  /// team never shrinks while its node runs, so dispatch snapshots stay
  /// owned). Called under mu_ when no node is waiting for workers.
  void GrowRunningLanes();
  int FreeWorkers() const;

  NumaThreadPool* pool_;
  int slot_base_ = 0;
  std::vector<Lane> lanes_;

  std::mutex mu_;
  std::condition_variable cv_lane_;  // lanes: ready node / shutdown
  std::condition_variable cv_main_;  // Execute: all nodes completed

  // State of the in-flight Execute (null/empty between runs).
  const OpDag* dag_ = nullptr;
  const std::function<void(int)>* body_ = nullptr;
  std::vector<int> indegree_;
  std::deque<int> ready_;
  std::vector<double> weights_;
  std::vector<int> owner_;  // per worker: owning lane, or -1 when free
  int remaining_ = 0;
  bool cancel_ = false;
  std::exception_ptr error_;
  bool shutdown_ = false;
};

}  // namespace bdm

#endif  // BDM_CORE_OP_DAG_H_
