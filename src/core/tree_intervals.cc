#include "core/tree_intervals.h"

namespace oct {

TreeIntervals::TreeIntervals(const CategoryTree& tree)
    : preorder_(tree.PreOrder()),
      pre_(tree.num_nodes(), kInvalidNode),
      size_(tree.num_nodes(), 0),
      depth_(tree.num_nodes(), 0) {
  // Pre-order visits every parent before its children...
  for (uint32_t rank = 0; rank < preorder_.size(); ++rank) {
    const NodeId id = preorder_[rank];
    pre_[id] = rank;
    const NodeId parent = tree.node(id).parent;
    if (parent != kInvalidNode) depth_[id] = depth_[parent] + 1;
  }
  // ...and its reverse every child before its parent.
  for (size_t rank = preorder_.size(); rank-- > 0;) {
    const NodeId id = preorder_[rank];
    ++size_[id];
    const NodeId parent = tree.node(id).parent;
    if (parent != kInvalidNode) size_[parent] += size_[id];
  }
}

}  // namespace oct
