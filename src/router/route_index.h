// RouteIndex: the per-snapshot scoring structure of the query router. Built
// once when a TreeSnapshot is installed, it turns "which categories does
// this result set belong to?" into a pruned root-to-leaf descent:
//
//   - Every tree node's *full* item set (direct items plus descendants)
//     becomes one candidate set of an OctInput, and a kernel::ItemSetIndex
//     over those sets supplies density-gated bitmaps so a query probe costs
//     O(|q|) per visited node instead of a sorted merge.
//   - Scoring descends from the root. Node item sets are nested (a child's
//     set is a subset of its parent's), so |q ∩ child| <= |q ∩ node|: once a
//     node's overlap falls below the prefix-filter bound
//     kernel::MinOverlapForJaccard(|q|, t), no descendant can reach Jaccard
//     >= t and the whole subtree is pruned without being touched.
//
// The index pins the snapshot it was built from (shared_ptr), so results
// computed against it stay valid even while TreeStore publishes newer
// versions — the router pins one RouteIndex per *batch*, which is what
// makes a batch's answers mutually consistent under concurrent publishes.

#ifndef OCT_ROUTER_ROUTE_INDEX_H_
#define OCT_ROUTER_ROUTE_INDEX_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/input.h"
#include "core/item_set.h"
#include "fault/cancel.h"
#include "kernel/item_set_index.h"
#include "serve/tree_snapshot.h"

namespace oct {
namespace router {

/// One scored candidate category.
struct NodeScore {
  NodeId node = kInvalidNode;
  /// |q ∩ C| over the node's full item set.
  uint32_t overlap = 0;
  /// |q ∩ C| / |q ∪ C| — the primary ranking key.
  double jaccard = 0.0;
  /// |q ∩ C| / |q| — how much of the query the category covers.
  double containment = 0.0;
  /// Depth of the node (root = 0); deeper wins ties (more specific).
  uint32_t depth = 0;
};

/// Work accounting of one ScoreTopK call.
struct ScoreStats {
  /// Nodes whose overlap was actually computed.
  size_t nodes_visited = 0;
  /// Nodes skipped because an ancestor fell below the prefix-filter bound.
  size_t nodes_pruned = 0;
  /// True when the cancel token (or max_nodes budget) expired mid-descent;
  /// the returned ranking is the valid best-so-far subset.
  bool degraded = false;
};

class RouteIndex {
 public:
  /// Builds the scoring index for `snapshot` (must be non-null). The
  /// snapshot is pinned for the index's lifetime.
  static std::shared_ptr<const RouteIndex> Build(
      std::shared_ptr<const serve::TreeSnapshot> snapshot,
      const kernel::ItemSetIndexOptions& options = {});

  RouteIndex(const RouteIndex&) = delete;
  RouteIndex& operator=(const RouteIndex&) = delete;

  const serve::TreeSnapshot& snapshot() const { return *snapshot_; }
  std::shared_ptr<const serve::TreeSnapshot> snapshot_ptr() const {
    return snapshot_;
  }
  serve::TreeVersion version() const { return snapshot_->version(); }

  /// Seconds spent building (observability: install cost).
  double build_seconds() const { return build_seconds_; }

  /// Number of candidate categories (== alive tree nodes, root included).
  size_t num_nodes() const { return node_input_.num_sets(); }

  /// Full item-set size of a node.
  size_t node_size(NodeId node) const {
    return node_input_.set(node).items.size();
  }

  /// Scores every category whose Jaccard against `query` can reach
  /// `min_jaccard`, descending root→leaf with subtree pruning, and returns
  /// the `top_k` best in `out` — sorted by Jaccard descending, then deeper
  /// node first, then NodeId ascending (a deterministic total order; the
  /// serial oracle and the batched path produce identical rankings). The
  /// root itself is never a result (routing to "everything" is not an
  /// answer), but it participates in pruning.
  ///
  /// `cancel` (nullable) is polled every few nodes; on expiry the descent
  /// stops and the best-so-far ranking is returned with stats.degraded set.
  /// `max_nodes` (0 = unlimited) bounds visited nodes the same way — the
  /// deterministic anytime knob used by tests.
  ScoreStats ScoreTopK(const ItemSet& query, size_t top_k, double min_jaccard,
                       const fault::CancelToken* cancel,
                       std::vector<NodeScore>* out,
                       size_t max_nodes = 0) const;

  /// |q ∩ node| routed to the cheapest representation (bitmap probe when
  /// the node's set was materialized, sorted merge otherwise).
  size_t Overlap(const ItemSet& query, NodeId node) const;

 private:
  RouteIndex() = default;

  std::shared_ptr<const serve::TreeSnapshot> snapshot_;
  /// One candidate set per tree node: the node's full item set, labeled
  /// with the node's label. SetId i == NodeId i (snapshot trees are
  /// compacted, so node ids are dense).
  OctInput node_input_;
  kernel::ItemSetIndex index_;
  double build_seconds_ = 0.0;
};

}  // namespace router
}  // namespace oct

#endif  // OCT_ROUTER_ROUTE_INDEX_H_
