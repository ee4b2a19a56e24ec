#include "core/serialization.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "core/tree_intervals.h"

namespace oct {

namespace {

bool IsLabelSafe(char ch) {
  return ch != ' ' && ch != '%' && ch != '\n' && ch != '\r' && ch != '\t' &&
         static_cast<unsigned char>(ch) >= 0x20;
}

int HexValue(char ch) {
  if (ch >= '0' && ch <= '9') return ch - '0';
  if (ch >= 'a' && ch <= 'f') return ch - 'a' + 10;
  if (ch >= 'A' && ch <= 'F') return ch - 'A' + 10;
  return -1;
}

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

Result<double> ParseDouble(const std::string& s) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0') {
    return Status::InvalidArgument("bad number: " + s);
  }
  return v;
}

Result<uint64_t> ParseUint(const std::string& s) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0') {
    return Status::InvalidArgument("bad integer: " + s);
  }
  return static_cast<uint64_t>(v);
}

/// Shortest decimal rendering that round-trips the double exactly.
std::string FormatDouble(double v) {
  char buf[64];
  for (int precision = 6; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

}  // namespace

std::string EscapeLabel(const std::string& label) {
  if (label.empty()) return "-";
  if (label == "-") return "%2D";  // Disambiguate from the empty sentinel.
  std::string out;
  out.reserve(label.size());
  for (char ch : label) {
    if (IsLabelSafe(ch)) {
      out += ch;
    } else {
      char buf[4];
      std::snprintf(buf, sizeof(buf), "%%%02X",
                    static_cast<unsigned char>(ch));
      out += buf;
    }
  }
  return out;
}

std::string UnescapeLabel(const std::string& escaped) {
  if (escaped == "-") return "";
  std::string out;
  out.reserve(escaped.size());
  for (size_t i = 0; i < escaped.size(); ++i) {
    if (escaped[i] == '%' && i + 2 < escaped.size()) {
      const int hi = HexValue(escaped[i + 1]);
      const int lo = HexValue(escaped[i + 2]);
      if (hi >= 0 && lo >= 0) {
        out += static_cast<char>(hi * 16 + lo);
        i += 2;
        continue;
      }
    }
    out += escaped[i];
  }
  return out;
}

std::string SerializeInput(const OctInput& input) {
  std::ostringstream out;
  out << "octree-input v1\n";
  out << "universe " << input.universe_size() << "\n";
  if (input.HasRelaxedBounds()) {
    out << "bounds";
    for (uint32_t b : input.item_bounds()) out << " " << b;
    out << "\n";
  }
  for (const auto& set : input.sets()) {
    out << "set " << FormatDouble(set.weight) << " ";
    if (set.delta_override >= 0.0) {
      out << FormatDouble(set.delta_override);
    } else {
      out << "-";
    }
    out << " " << EscapeLabel(set.label) << " :";
    for (ItemId item : set.items) out << " " << item;
    out << "\n";
  }
  return out.str();
}

Result<OctInput> ParseInput(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != "octree-input v1") {
    return Status::InvalidArgument("missing octree-input v1 header");
  }
  OctInput input;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto toks = Tokens(line);
    if (toks[0] == "universe") {
      if (toks.size() != 2) return Status::InvalidArgument("bad universe line");
      auto n = ParseUint(toks[1]);
      if (!n.ok()) return n.status();
      input.set_universe_size(static_cast<size_t>(*n));
    } else if (toks[0] == "bounds") {
      std::vector<uint32_t> bounds;
      for (size_t i = 1; i < toks.size(); ++i) {
        auto b = ParseUint(toks[i]);
        if (!b.ok()) return b.status();
        bounds.push_back(static_cast<uint32_t>(*b));
      }
      input.set_item_bounds(std::move(bounds));
    } else if (toks[0] == "set") {
      if (toks.size() < 5 || toks[4] != ":") {
        return Status::InvalidArgument("bad set line: " + line);
      }
      CandidateSet cs;
      auto w = ParseDouble(toks[1]);
      if (!w.ok()) return w.status();
      cs.weight = *w;
      if (toks[2] != "-") {
        auto d = ParseDouble(toks[2]);
        if (!d.ok()) return d.status();
        cs.delta_override = *d;
      }
      cs.label = UnescapeLabel(toks[3]);
      std::vector<ItemId> items;
      for (size_t i = 5; i < toks.size(); ++i) {
        auto item = ParseUint(toks[i]);
        if (!item.ok()) return item.status();
        items.push_back(static_cast<ItemId>(*item));
      }
      cs.items = ItemSet(std::move(items));
      input.Add(std::move(cs));
    } else {
      return Status::InvalidArgument("unknown record: " + toks[0]);
    }
  }
  OCT_RETURN_NOT_OK(input.Validate());
  return input;
}

std::string SerializeTree(const CategoryTree& tree) {
  // Compact ids without mutating the input: pre-order ranks.
  const TreeIntervals intervals(tree);
  std::ostringstream out;
  out << "octree-tree v1\n";
  out << "nodes " << intervals.num_nodes() << "\n";
  for (NodeId id : intervals.preorder()) {
    const CategoryNode& n = tree.node(id);
    out << "node " << intervals.pre(id) << " ";
    if (n.parent == kInvalidNode) {
      out << "-";
    } else {
      out << intervals.pre(n.parent);
    }
    out << " ";
    if (n.source_set == kInvalidSet) {
      out << "-";
    } else {
      out << n.source_set;
    }
    out << " " << EscapeLabel(n.label) << " :";
    for (ItemId item : n.direct_items) out << " " << item;
    out << "\n";
  }
  return out.str();
}

Result<CategoryTree> ParseTree(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != "octree-tree v1") {
    return Status::InvalidArgument("missing octree-tree v1 header");
  }
  if (!std::getline(in, line)) {
    return Status::InvalidArgument("missing nodes line");
  }
  auto header = Tokens(line);
  if (header.size() != 2 || header[0] != "nodes") {
    return Status::InvalidArgument("bad nodes line");
  }
  auto count = ParseUint(header[1]);
  if (!count.ok()) return count.status();
  if (*count == 0) return Status::InvalidArgument("tree must have a root");

  CategoryTree tree;
  NodeId expected = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto toks = Tokens(line);
    if (toks.size() < 6 || toks[0] != "node" || toks[5] != ":") {
      return Status::InvalidArgument("bad node line: " + line);
    }
    auto id = ParseUint(toks[1]);
    if (!id.ok()) return id.status();
    if (*id != expected) {
      return Status::InvalidArgument("node ids must be dense pre-order");
    }
    NodeId node;
    if (*id == 0) {
      if (toks[2] != "-") {
        return Status::InvalidArgument("root must have no parent");
      }
      node = tree.root();
      tree.mutable_node(node).label = UnescapeLabel(toks[4]);
    } else {
      if (toks[2] == "-") {
        return Status::InvalidArgument("non-root node without parent");
      }
      auto parent = ParseUint(toks[2]);
      if (!parent.ok()) return parent.status();
      if (*parent >= *id) {
        return Status::InvalidArgument("parent must precede child");
      }
      SetId source = kInvalidSet;
      if (toks[3] != "-") {
        auto s = ParseUint(toks[3]);
        if (!s.ok()) return s.status();
        source = static_cast<SetId>(*s);
      }
      node = tree.AddCategory(static_cast<NodeId>(*parent),
                              UnescapeLabel(toks[4]), source);
    }
    std::vector<ItemId> items;
    for (size_t i = 6; i < toks.size(); ++i) {
      auto item = ParseUint(toks[i]);
      if (!item.ok()) return item.status();
      items.push_back(static_cast<ItemId>(*item));
    }
    tree.mutable_node(node).direct_items = ItemSet(std::move(items));
    ++expected;
  }
  if (expected != *count) {
    return Status::InvalidArgument("node count mismatch");
  }
  OCT_RETURN_NOT_OK(tree.ValidateStructure());
  return tree;
}

Status WriteFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::NotFound("cannot open for writing: " + path);
  out << contents;
  if (!out) return Status::Internal("write failed: " + path);
  return Status::OK();
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open: " + path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

}  // namespace oct
