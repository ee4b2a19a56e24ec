#include "serve/tree_snapshot.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/timer.h"

namespace oct {
namespace serve {

TreeSnapshot::TreeSnapshot(CategoryTree tree, TreeVersion version,
                           std::string note)
    : tree_(std::move(tree)), version_(version), note_(std::move(note)) {
  OCT_SPAN("serve/snapshot_build");
  Timer timer;
  tree_.Compact();
  intervals_ = TreeIntervals(tree_);

  // Item index (CSR): count placements per item, then fill.
  ItemId max_item = 0;
  bool any_item = false;
  for (NodeId id = 0; id < tree_.num_nodes(); ++id) {
    for (ItemId item : tree_.node(id).direct_items) {
      max_item = std::max(max_item, item);
      any_item = true;
    }
  }
  const size_t universe = any_item ? static_cast<size_t>(max_item) + 1 : 0;
  placement_offsets_.assign(universe + 1, 0);
  for (NodeId id = 0; id < tree_.num_nodes(); ++id) {
    for (ItemId item : tree_.node(id).direct_items) {
      ++placement_offsets_[item + 1];
    }
  }
  for (size_t i = 1; i < placement_offsets_.size(); ++i) {
    placement_offsets_[i] += placement_offsets_[i - 1];
  }
  placements_.resize(placement_offsets_.back());
  std::vector<uint32_t> cursor(placement_offsets_.begin(),
                               placement_offsets_.end() - 1);
  // Pre-order fill so an item's first placement is its shallowest-first,
  // leftmost branch — a deterministic "primary" placement.
  for (NodeId id : intervals_.preorder()) {
    for (ItemId item : tree_.node(id).direct_items) {
      placements_[cursor[item]++] = id;
    }
  }
  for (size_t i = 0; i + 1 < placement_offsets_.size(); ++i) {
    if (placement_offsets_[i + 1] > placement_offsets_[i]) {
      ++num_items_indexed_;
    }
  }

  // Label map: first pre-order occurrence wins (stable across rebuilds that
  // keep labels).
  for (NodeId id : intervals_.preorder()) {
    const std::string& label = tree_.node(id).label;
    if (!label.empty()) label_to_node_.emplace(label, id);
  }

  subtree_item_counts_ = tree_.ComputeItemSetSizes();

  build_seconds_ = timer.ElapsedSeconds();
  static obs::Histogram* build_us =
      obs::MetricsRegistry::Default()->GetHistogram("serve.snapshot_build_us");
  build_us->Record(build_seconds_ * 1e6);
}

std::span<const NodeId> TreeSnapshot::PlacementsOf(ItemId item) const {
  if (static_cast<size_t>(item) + 1 >= placement_offsets_.size()) return {};
  const uint32_t begin = placement_offsets_[item];
  const uint32_t end = placement_offsets_[item + 1];
  return {placements_.data() + begin, placements_.data() + end};
}

bool TreeSnapshot::Contains(ItemId item) const {
  return !PlacementsOf(item).empty();
}

std::vector<NodeId> TreeSnapshot::PathTo(NodeId node) const {
  std::vector<NodeId> path;
  for (NodeId id = node; id != kInvalidNode; id = tree_.node(id).parent) {
    path.push_back(id);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

std::vector<NodeId> TreeSnapshot::PathOf(ItemId item) const {
  const auto placements = PlacementsOf(item);
  if (placements.empty()) return {};
  return PathTo(placements.front());
}

std::vector<std::string> TreeSnapshot::LabeledPathOf(ItemId item) const {
  std::vector<std::string> labels;
  for (NodeId id : PathOf(item)) labels.push_back(tree_.node(id).label);
  return labels;
}

NodeId TreeSnapshot::FindLabel(const std::string& label) const {
  const auto it = label_to_node_.find(label);
  return it == label_to_node_.end() ? kInvalidNode : it->second;
}

size_t TreeSnapshot::SubtreeItemCount(NodeId node) const {
  return subtree_item_counts_[node];
}

}  // namespace serve
}  // namespace oct
