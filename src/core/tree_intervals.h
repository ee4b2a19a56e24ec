// TreeIntervals: the pre-order interval layout of a frozen CategoryTree —
// pre-order rank, subtree size and depth per NodeId, computed from one
// pre-order traversal.
//
// In pre-order the subtree of node n is the contiguous rank range
// [pre(n), pre(n) + size(n)), so ancestry, same-branch (the Section 2.1
// "never twice on one branch" predicate) and subtree membership are O(1)
// range checks instead of parent walks. This is the only place tree layout
// is derived: CTCR placement, AssignItems, ScoreTree, ValidateModel,
// TreeSnapshot, RouteIndex, SerializeTree and the nested-set encoder all
// read it.
//
// Tombstones (and anything unreachable from the root) are excluded: they
// get rank kInvalidNode, size 0 and depth 0, and belong to no subtree. The
// view is a value snapshot — any structural edit to the tree (AddCategory,
// MoveNode, RemoveNodeKeepChildren, Compact) invalidates it; item
// placement edits do not.

#ifndef OCT_CORE_TREE_INTERVALS_H_
#define OCT_CORE_TREE_INTERVALS_H_

#include <cstdint>
#include <vector>

#include "core/category_tree.h"

namespace oct {

class TreeIntervals {
 public:
  TreeIntervals() = default;
  explicit TreeIntervals(const CategoryTree& tree);

  /// Alive nodes in pre-order (root first, children in declaration order)
  /// — the same order as CategoryTree::PreOrder().
  const std::vector<NodeId>& preorder() const { return preorder_; }
  /// Number of alive nodes reachable from the root.
  size_t num_nodes() const { return preorder_.size(); }

  /// Pre-order rank of `id` (root = 0); kInvalidNode for tombstones.
  uint32_t pre(NodeId id) const { return pre_[id]; }
  /// Nodes in the subtree of `id`, itself included; 0 for tombstones.
  uint32_t size(NodeId id) const { return size_[id]; }
  /// Edges from the root (root = 0).
  uint32_t depth(NodeId id) const { return depth_[id]; }

  /// True when `node` lies in the subtree of `ancestor` (itself included).
  bool InSubtree(NodeId node, NodeId ancestor) const {
    // Unsigned wrap sends nodes ranked before `ancestor` (and tombstones,
    // ranked kInvalidNode) far past any subtree size.
    return pre_[node] - pre_[ancestor] < size_[ancestor];
  }
  /// True when `a` is a proper ancestor of `b`.
  bool IsAncestor(NodeId a, NodeId b) const {
    return a != b && InSubtree(b, a);
  }
  /// True when `a` and `b` lie on one root-to-leaf branch (equal, or one is
  /// an ancestor of the other).
  bool OnSameBranch(NodeId a, NodeId b) const {
    return InSubtree(a, b) || InSubtree(b, a);
  }

 private:
  std::vector<NodeId> preorder_;
  std::vector<uint32_t> pre_;
  std::vector<uint32_t> size_;
  std::vector<uint32_t> depth_;
};

}  // namespace oct

#endif  // OCT_CORE_TREE_INTERVALS_H_
