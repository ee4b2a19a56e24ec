#include "store/nested_set.h"

#include <algorithm>
#include <cstdio>

#include "core/serialization.h"
#include "core/tree_intervals.h"

namespace oct {
namespace store {

namespace {

constexpr char kNestedMagic[] = "octstore-nested v1";

/// Splits a line into space-separated tokens.
std::vector<std::string> Tokens(const std::string& line) {
  std::vector<std::string> out;
  std::string cur;
  for (char ch : line) {
    if (ch == ' ') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur += ch;
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

Result<uint64_t> ParseUint(const std::string& s) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0') {
    return Status::InvalidArgument("bad integer: " + s);
  }
  return static_cast<uint64_t>(v);
}

}  // namespace

NestedSetEncoding EncodeNestedSet(const CategoryTree& tree) {
  // Renumbering into pre-order (tombstones dropped) makes every subtree a
  // contiguous id range — CategoryTree ids follow insertion order, which
  // interleaves subtrees. Pre-order is also the canonical numbering
  // SerializeTree uses.
  const TreeIntervals intervals(tree);
  const std::vector<NodeId>& preorder = intervals.preorder();
  const size_t n = preorder.size();

  NestedSetEncoding enc;
  enc.lft.resize(n);
  enc.rgt.resize(n);
  enc.depth.resize(n);
  enc.parent.resize(n);
  enc.source_set.resize(n);
  enc.label.resize(n);
  enc.item_offsets.assign(n + 1, 0);
  for (NodeId pre = 0; pre < n; ++pre) {
    const CategoryNode& node = tree.node(preorder[pre]);
    const uint32_t depth = intervals.depth(preorder[pre]);
    // Classic 1..2n numbering: before entering the node the counter has
    // ticked once on entry to each of its `pre` predecessors and once on
    // exit from each of them that is not one of its `depth` ancestors.
    enc.lft[pre] = 2 * pre - depth + 1;
    enc.rgt[pre] = enc.lft[pre] + 2 * intervals.size(preorder[pre]) - 1;
    enc.depth[pre] = depth;
    enc.parent[pre] = node.parent == kInvalidNode ? kInvalidNode
                                                  : intervals.pre(node.parent);
    enc.source_set[pre] = node.source_set;
    enc.label[pre] = node.label;
    enc.item_offsets[pre + 1] =
        enc.item_offsets[pre] +
        static_cast<uint32_t>(node.direct_items.size());
  }

  // Direct items as CSR in the same pre-order (ItemSet iterates ascending).
  enc.items.reserve(enc.item_offsets[n]);
  for (NodeId pre = 0; pre < n; ++pre) {
    for (ItemId item : tree.node(preorder[pre]).direct_items) {
      enc.items.push_back(item);
    }
  }
  return enc;
}

Status ValidateNestedSet(const NestedSetEncoding& enc) {
  const size_t n = enc.num_nodes();
  if (n == 0) return Status::DataLoss("nested-set encoding has no root");
  if (enc.rgt.size() != n || enc.depth.size() != n || enc.parent.size() != n ||
      enc.source_set.size() != n || enc.label.size() != n ||
      enc.item_offsets.size() != n + 1) {
    return Status::DataLoss("nested-set arrays disagree on node count");
  }
  if (enc.parent[0] != kInvalidNode || enc.lft[0] != 1 ||
      enc.rgt[0] != 2 * n || enc.depth[0] != 0) {
    return Status::DataLoss("nested-set root interval is not [1, 2n]");
  }
  for (NodeId id = 1; id < n; ++id) {
    const NodeId p = enc.parent[id];
    if (p >= id) {
      return Status::DataLoss("nested-set parent not earlier in pre-order");
    }
    if (enc.lft[id] <= enc.lft[id - 1]) {
      return Status::DataLoss("nested-set lft not in pre-order");
    }
    // rgt - lft = 2*size - 1 is always odd and at least 1 (a leaf).
    if (enc.rgt[id] <= enc.lft[id] ||
        (enc.rgt[id] - enc.lft[id]) % 2 == 0) {
      return Status::DataLoss("nested-set interval width invalid");
    }
    if (!(enc.lft[p] < enc.lft[id] && enc.rgt[id] < enc.rgt[p])) {
      return Status::DataLoss("nested-set child interval escapes parent");
    }
    if (enc.depth[id] != enc.depth[p] + 1) {
      return Status::DataLoss("nested-set depth disagrees with parent");
    }
    const auto [first, last] = enc.SubtreeSpan(id);
    if (first != id || last > n) {
      return Status::DataLoss("nested-set subtree span out of range");
    }
  }
  if (enc.item_offsets[0] != 0 ||
      enc.item_offsets[n] != enc.items.size()) {
    return Status::DataLoss("nested-set item CSR bounds invalid");
  }
  for (NodeId id = 0; id < n; ++id) {
    if (enc.item_offsets[id] > enc.item_offsets[id + 1]) {
      return Status::DataLoss("nested-set item CSR not monotone");
    }
  }
  return Status::OK();
}

Result<CategoryTree> DecodeNestedSet(const NestedSetEncoding& enc) {
  OCT_RETURN_NOT_OK(ValidateNestedSet(enc));
  CategoryTree tree;
  tree.mutable_node(0).label = enc.label[0];
  tree.mutable_node(0).source_set = enc.source_set[0];
  for (NodeId id = 1; id < enc.num_nodes(); ++id) {
    // Parents precede children in pre-order, so AddCategory ids line up
    // with encoding ids exactly.
    const NodeId added =
        tree.AddCategory(enc.parent[id], enc.label[id], enc.source_set[id]);
    if (added != id) {
      return Status::DataLoss("nested-set decode id drift");
    }
  }
  for (NodeId id = 0; id < enc.num_nodes(); ++id) {
    for (uint32_t k = enc.item_offsets[id]; k < enc.item_offsets[id + 1];
         ++k) {
      tree.AssignItem(id, enc.items[k]);
    }
  }
  OCT_RETURN_NOT_OK(tree.ValidateStructure());
  return tree;
}

std::string SerializeNestedSet(const NestedSetEncoding& enc) {
  std::string out(kNestedMagic);
  out += "\nnodes " + std::to_string(enc.num_nodes()) + " items " +
         std::to_string(enc.items.size()) + "\n";
  for (NodeId id = 0; id < enc.num_nodes(); ++id) {
    out += "n " + std::to_string(enc.lft[id]) + " " +
           std::to_string(enc.rgt[id]) + " " + std::to_string(enc.depth[id]);
    out += enc.parent[id] == kInvalidNode
               ? " -"
               : " " + std::to_string(enc.parent[id]);
    out += enc.source_set[id] == kInvalidSet
               ? " -"
               : " " + std::to_string(enc.source_set[id]);
    out += " " + EscapeLabel(enc.label[id]) + " :";
    for (uint32_t k = enc.item_offsets[id]; k < enc.item_offsets[id + 1];
         ++k) {
      out += " " + std::to_string(enc.items[k]);
    }
    out += "\n";
  }
  return out;
}

Result<NestedSetEncoding> ParseNestedSet(const std::string& text) {
  size_t pos = 0;
  auto next_line = [&](std::string* line) -> bool {
    if (pos >= text.size()) return false;
    const size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) {
      line->assign(text, pos, text.size() - pos);
      pos = text.size();
    } else {
      line->assign(text, pos, eol - pos);
      pos = eol + 1;
    }
    return true;
  };

  std::string line;
  if (!next_line(&line) || line != kNestedMagic) {
    return Status::DataLoss("bad nested-set magic");
  }
  if (!next_line(&line)) {
    return Status::DataLoss("bad nested-set header line");
  }
  const std::vector<std::string> header = Tokens(line);
  if (header.size() != 4 || header[0] != "nodes" || header[2] != "items") {
    return Status::DataLoss("bad nested-set header line");
  }
  OCT_ASSIGN_OR_RETURN(const uint64_t nodes, ParseUint(header[1]));
  OCT_ASSIGN_OR_RETURN(const uint64_t items, ParseUint(header[3]));
  NestedSetEncoding enc;
  enc.lft.reserve(nodes);
  enc.rgt.reserve(nodes);
  enc.depth.reserve(nodes);
  enc.parent.reserve(nodes);
  enc.source_set.reserve(nodes);
  enc.label.reserve(nodes);
  enc.item_offsets.reserve(nodes + 1);
  enc.item_offsets.push_back(0);
  enc.items.reserve(items);

  for (uint64_t i = 0; i < nodes; ++i) {
    if (!next_line(&line)) {
      return Status::DataLoss("nested-set truncated at node " +
                              std::to_string(i));
    }
    const std::vector<std::string> tok = Tokens(line);
    // n lft rgt depth parent source label : items...
    if (tok.size() < 8 || tok[0] != "n" || tok[7] != ":") {
      return Status::DataLoss("bad nested-set node line: " + line);
    }
    OCT_ASSIGN_OR_RETURN(const uint64_t lft, ParseUint(tok[1]));
    OCT_ASSIGN_OR_RETURN(const uint64_t rgt, ParseUint(tok[2]));
    OCT_ASSIGN_OR_RETURN(const uint64_t depth, ParseUint(tok[3]));
    enc.lft.push_back(static_cast<uint32_t>(lft));
    enc.rgt.push_back(static_cast<uint32_t>(rgt));
    enc.depth.push_back(static_cast<uint32_t>(depth));
    if (tok[4] == "-") {
      enc.parent.push_back(kInvalidNode);
    } else {
      OCT_ASSIGN_OR_RETURN(const uint64_t parent, ParseUint(tok[4]));
      enc.parent.push_back(static_cast<NodeId>(parent));
    }
    if (tok[5] == "-") {
      enc.source_set.push_back(kInvalidSet);
    } else {
      OCT_ASSIGN_OR_RETURN(const uint64_t source, ParseUint(tok[5]));
      enc.source_set.push_back(static_cast<SetId>(source));
    }
    enc.label.push_back(UnescapeLabel(tok[6]));
    for (size_t k = 8; k < tok.size(); ++k) {
      OCT_ASSIGN_OR_RETURN(const uint64_t item, ParseUint(tok[k]));
      enc.items.push_back(static_cast<ItemId>(item));
    }
    enc.item_offsets.push_back(static_cast<uint32_t>(enc.items.size()));
  }
  if (enc.items.size() != items) {
    return Status::DataLoss("nested-set item count disagrees with header");
  }
  OCT_RETURN_NOT_OK(ValidateNestedSet(enc));
  return enc;
}

}  // namespace store
}  // namespace oct
