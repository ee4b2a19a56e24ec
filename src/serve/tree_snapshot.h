// TreeSnapshot: an immutable, index-enriched view of a CategoryTree, built
// once at publish time so that serving lookups (item -> leaf path,
// label -> node, subtree sizes) are O(1)/O(depth) and touch no mutable
// state. Production deployments regenerate trees every ~90 days
// (Section 5.1) while search and navigation traffic consults the current
// tree continuously; a snapshot is the unit that gets swapped in.
//
// A snapshot is safe to share across any number of reader threads without
// synchronization: every index is fully built in the constructor and never
// mutated afterwards.

#ifndef OCT_SERVE_TREE_SNAPSHOT_H_
#define OCT_SERVE_TREE_SNAPSHOT_H_

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/category_tree.h"
#include "core/tree_intervals.h"

namespace oct {
namespace serve {

/// Version number of a published snapshot (1-based; 0 means "none").
using TreeVersion = uint64_t;

class TreeSnapshot {
 public:
  /// Builds all serving indexes from a tree. The tree is compacted (any
  /// tombstones dropped) so node ids are dense. `note` is free-form
  /// provenance ("initial", "rebuild on batch 3", "rollback of v2", ...).
  TreeSnapshot(CategoryTree tree, TreeVersion version, std::string note = "");

  TreeVersion version() const { return version_; }
  const std::string& note() const { return note_; }
  const CategoryTree& tree() const { return tree_; }

  /// Seconds spent building the indexes (observability: publish cost).
  double build_seconds() const { return build_seconds_; }

  /// Most-specific categories of `item` (usually one; more when the input
  /// used per-item branch bounds > 1). Empty when the item is unplaced or
  /// out of range. Never allocates.
  std::span<const NodeId> PlacementsOf(ItemId item) const;

  /// True when `item` is directly placed somewhere in the tree.
  bool Contains(ItemId item) const;

  /// Root-to-node path (inclusive) for the item's first most-specific
  /// placement — the breadcrumb a product page shows. Empty when unplaced.
  std::vector<NodeId> PathOf(ItemId item) const;

  /// Root-to-node path of an arbitrary node.
  std::vector<NodeId> PathTo(NodeId node) const;

  /// Labels along PathOf(item), root first ("Fashion > Shoes > Sneakers").
  std::vector<std::string> LabeledPathOf(ItemId item) const;

  /// First node carrying `label` (pre-order; kInvalidNode when absent).
  /// Lookup is O(1) via a label map built at construction.
  NodeId FindLabel(const std::string& label) const;

  /// Full item-set size of the node's subtree (direct items of the node
  /// plus all descendants) — the "1,234 items" facet count.
  size_t SubtreeItemCount(NodeId node) const;

  /// Depth of a node (root = 0), precomputed.
  size_t DepthOf(NodeId node) const { return intervals_.depth(node); }

  /// Pre-order interval layout of tree(): O(1) ancestry, subtree sizes and
  /// depths for every consumer of this version.
  const TreeIntervals& intervals() const { return intervals_; }

  /// Number of distinct items with at least one placement.
  size_t num_items_indexed() const { return num_items_indexed_; }

  size_t num_categories() const { return tree_.NumCategories(); }

 private:
  CategoryTree tree_;
  TreeVersion version_;
  std::string note_;
  double build_seconds_ = 0.0;

  // CSR layout of item -> most-specific nodes: placements of item i live at
  // placements_[placement_offsets_[i] .. placement_offsets_[i + 1]).
  std::vector<uint32_t> placement_offsets_;
  std::vector<NodeId> placements_;
  size_t num_items_indexed_ = 0;

  std::unordered_map<std::string, NodeId> label_to_node_;
  std::vector<size_t> subtree_item_counts_;
  TreeIntervals intervals_;
};

}  // namespace serve
}  // namespace oct

#endif  // OCT_SERVE_TREE_SNAPSHOT_H_
