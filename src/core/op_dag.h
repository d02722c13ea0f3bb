// Operation dependency DAG: an analysis view of one iteration's due ops
// (DESIGN.md Section 8).
//
// The ops' declared resource footprints (core/operation.h ResourceBits)
// are turned into a dependency DAG over the pipeline order: an edge marks
// where two ops conflict, so the pipeline order must hold there. The
// scheduler itself always runs the ops in pipeline order; this DAG only
// describes which of them could overlap (Scheduler::GetIterationDag).
#ifndef BDM_CORE_OP_DAG_H_
#define BDM_CORE_OP_DAG_H_

#include <cstdint>
#include <string>
#include <vector>

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
  /// result acyclic by construction, with the pipeline order as one of its
  /// topological orders.
  static OpDag FromPipeline(std::vector<OpDagNode> nodes);

  int size() const { return static_cast<int>(nodes_.size()); }
  const OpDagNode& node(int i) const { return nodes_[i]; }
  const std::vector<int>& successors(int i) const { return successors_[i]; }
  bool HasEdge(int from, int to) const;

 private:
  std::vector<OpDagNode> nodes_;
  std::vector<std::vector<int>> successors_;
};

}  // namespace bdm

#endif  // BDM_CORE_OP_DAG_H_
