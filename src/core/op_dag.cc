#include "core/op_dag.h"

#include <algorithm>
#include <utility>

namespace bdm {

OpDag OpDag::FromPipeline(std::vector<OpDagNode> nodes) {
  OpDag dag;
  const int n = static_cast<int>(nodes.size());
  dag.nodes_ = std::move(nodes);
  dag.successors_.assign(n, {});
  for (int i = 0; i < n; ++i) {
    const OpDagNode& a = dag.nodes_[i];
    for (int j = i + 1; j < n; ++j) {
      const OpDagNode& b = dag.nodes_[j];
      const uint8_t conflict = static_cast<uint8_t>(
          (a.writes & (b.reads | b.writes)) | (a.reads & b.writes));
      if (conflict != 0) {
        dag.successors_[i].push_back(j);
      }
    }
  }
  return dag;
}

bool OpDag::HasEdge(int from, int to) const {
  const auto& succ = successors_[from];
  return std::find(succ.begin(), succ.end(), to) != succ.end();
}

}  // namespace bdm
