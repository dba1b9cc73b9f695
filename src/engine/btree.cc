#include "engine/btree.h"

#include <algorithm>
#include <cstddef>
#include <utility>

#include "common/metrics.h"

namespace olapidx {

BPlusTree::BPlusTree(int fanout) : fanout_(fanout) {
  OLAPIDX_CHECK(fanout >= 3);
}

BPlusTree::~BPlusTree() { DeleteSubtree(root_); }

BPlusTree::BPlusTree(BPlusTree&& other) noexcept
    : fanout_(other.fanout_),
      root_(other.root_),
      size_(other.size_),
      height_(other.height_) {
  other.root_ = nullptr;
  other.size_ = 0;
  other.height_ = 0;
}

BPlusTree& BPlusTree::operator=(BPlusTree&& other) noexcept {
  if (this != &other) {
    DeleteSubtree(root_);
    fanout_ = other.fanout_;
    root_ = other.root_;
    size_ = other.size_;
    height_ = other.height_;
    other.root_ = nullptr;
    other.size_ = 0;
    other.height_ = 0;
  }
  return *this;
}

void BPlusTree::DeleteSubtree(Node* node) {
  if (node == nullptr) return;
  for (Node* child : node->children) DeleteSubtree(child);
  delete node;
}

const BPlusTree::Node* BPlusTree::FindLeaf(uint64_t key) const {
  const Node* node = root_;
  if (node == nullptr) return nullptr;
  // Touches are accumulated locally and added once per descent, so the
  // counter costs one atomic add per lookup rather than one per level.
  uint64_t touched = 1;
  while (!node->is_leaf) {
    // First separator >= key: children to its left cannot contain `key`.
    size_t idx = static_cast<size_t>(
        std::lower_bound(node->keys.begin(), node->keys.end(), key) -
        node->keys.begin());
    node = node->children[idx];
    ++touched;
  }
  OLAPIDX_METRIC_COUNTER(touches, "btree.node_touches");
  touches.Add(touched);
  return node;
}

BPlusTree::SplitResult BPlusTree::InsertInto(Node* node, uint64_t key,
                                             uint32_t value) {
  if (node->is_leaf) {
    size_t pos = static_cast<size_t>(
        std::upper_bound(node->keys.begin(), node->keys.end(), key) -
        node->keys.begin());
    node->keys.insert(node->keys.begin() + static_cast<ptrdiff_t>(pos), key);
    node->values.insert(node->values.begin() + static_cast<ptrdiff_t>(pos),
                        value);
    if (static_cast<int>(node->keys.size()) <= fanout_) return {};
    // Split the leaf in half; the separator is the right half's first key.
    size_t mid = node->keys.size() / 2;
    Node* right = new Node(/*leaf=*/true);
    right->keys.assign(node->keys.begin() + static_cast<ptrdiff_t>(mid),
                       node->keys.end());
    right->values.assign(node->values.begin() + static_cast<ptrdiff_t>(mid),
                         node->values.end());
    node->keys.resize(mid);
    node->values.resize(mid);
    right->next = node->next;
    node->next = right;
    return {right, right->keys.front()};
  }

  size_t idx = static_cast<size_t>(
      std::upper_bound(node->keys.begin(), node->keys.end(), key) -
      node->keys.begin());
  SplitResult child_split = InsertInto(node->children[idx], key, value);
  if (child_split.right == nullptr) return {};
  node->keys.insert(node->keys.begin() + static_cast<ptrdiff_t>(idx),
                    child_split.separator);
  node->children.insert(
      node->children.begin() + static_cast<ptrdiff_t>(idx + 1),
      child_split.right);
  if (static_cast<int>(node->keys.size()) <= fanout_) return {};
  // Split the internal node: the middle separator is promoted.
  size_t mid = node->keys.size() / 2;
  uint64_t promoted = node->keys[mid];
  Node* right = new Node(/*leaf=*/false);
  right->keys.assign(node->keys.begin() + static_cast<ptrdiff_t>(mid + 1),
                     node->keys.end());
  right->children.assign(
      node->children.begin() + static_cast<ptrdiff_t>(mid + 1),
      node->children.end());
  node->keys.resize(mid);
  node->children.resize(mid + 1);
  return {right, promoted};
}

void BPlusTree::Insert(uint64_t key, uint32_t value) {
  OLAPIDX_METRIC_COUNTER(inserts, "btree.inserts");
  inserts.Add(1);
  if (root_ == nullptr) {
    root_ = new Node(/*leaf=*/true);
    height_ = 1;
  }
  SplitResult split = InsertInto(root_, key, value);
  if (split.right != nullptr) {
    Node* new_root = new Node(/*leaf=*/false);
    new_root->keys.push_back(split.separator);
    new_root->children.push_back(root_);
    new_root->children.push_back(split.right);
    root_ = new_root;
    ++height_;
  }
  ++size_;
}

void BPlusTree::BulkLoad(const std::vector<KeyRow>& sorted) {
  OLAPIDX_CHECK(root_ == nullptr);
  OLAPIDX_CHECK(std::is_sorted(
      sorted.begin(), sorted.end(),
      [](const KeyRow& a, const KeyRow& b) { return a.key < b.key; }));
  if (sorted.empty()) return;
  OLAPIDX_METRIC_COUNTER(bulk_entries, "btree.bulk_load_entries");
  bulk_entries.Add(sorted.size());

  // Build the leaf level.
  struct Entry {
    Node* node;
    uint64_t first_key;
  };
  std::vector<Entry> level;
  size_t per_leaf = static_cast<size_t>(fanout_);
  for (size_t begin = 0; begin < sorted.size(); begin += per_leaf) {
    size_t end = std::min(begin + per_leaf, sorted.size());
    // Avoid a singleton final leaf by rebalancing with its predecessor.
    if (end - begin == 1 && !level.empty()) {
      Node* prev = level.back().node;
      uint64_t k = prev->keys.back();
      uint32_t v = prev->values.back();
      prev->keys.pop_back();
      prev->values.pop_back();
      Node* leaf = new Node(/*leaf=*/true);
      leaf->keys = {k, sorted[begin].key};
      leaf->values = {v, sorted[begin].row};
      level.back().node->next = leaf;
      level.push_back(Entry{leaf, leaf->keys.front()});
      break;
    }
    Node* leaf = new Node(/*leaf=*/true);
    leaf->keys.reserve(end - begin);
    leaf->values.reserve(end - begin);
    for (size_t i = begin; i < end; ++i) {
      leaf->keys.push_back(sorted[i].key);
      leaf->values.push_back(sorted[i].row);
    }
    if (!level.empty()) level.back().node->next = leaf;
    level.push_back(Entry{leaf, leaf->keys.front()});
  }
  height_ = 1;

  // Build internal levels bottom-up.
  size_t max_children = static_cast<size_t>(fanout_) + 1;
  while (level.size() > 1) {
    std::vector<Entry> parents;
    size_t begin = 0;
    while (begin < level.size()) {
      size_t end = std::min(begin + max_children, level.size());
      // Avoid a singleton final parent.
      if (level.size() - begin == max_children + 1) {
        end = begin + (max_children + 1) / 2;
      }
      Node* parent = new Node(/*leaf=*/false);
      parent->children.push_back(level[begin].node);
      for (size_t i = begin + 1; i < end; ++i) {
        parent->keys.push_back(level[i].first_key);
        parent->children.push_back(level[i].node);
      }
      parents.push_back(Entry{parent, level[begin].first_key});
      begin = end;
    }
    level = std::move(parents);
    ++height_;
  }
  root_ = level.front().node;
  size_ = sorted.size();
}

void BPlusTree::CheckSubtree(const Node* node, int depth, uint64_t lo,
                             uint64_t hi) const {
  OLAPIDX_CHECK(node != nullptr);
  OLAPIDX_CHECK(std::is_sorted(node->keys.begin(), node->keys.end()));
  for (uint64_t k : node->keys) {
    OLAPIDX_CHECK(k >= lo && k <= hi);
  }
  if (node->is_leaf) {
    OLAPIDX_CHECK(depth == height_);
    OLAPIDX_CHECK(node->keys.size() == node->values.size());
    OLAPIDX_CHECK(node->children.empty());
    OLAPIDX_CHECK(node == root_ || !node->keys.empty());
    return;
  }
  OLAPIDX_CHECK(node->values.empty());
  OLAPIDX_CHECK(node->children.size() == node->keys.size() + 1);
  for (size_t i = 0; i < node->children.size(); ++i) {
    uint64_t child_lo = (i == 0) ? lo : node->keys[i - 1];
    uint64_t child_hi = (i == node->keys.size()) ? hi : node->keys[i];
    CheckSubtree(node->children[i], depth + 1, child_lo, child_hi);
  }
}

void BPlusTree::CheckInvariants() const {
  if (root_ == nullptr) {
    OLAPIDX_CHECK(size_ == 0);
    OLAPIDX_CHECK(height_ == 0);
    return;
  }
  CheckSubtree(root_, 1, 0, ~0ULL);
  // The leaf chain must enumerate exactly size_ entries in sorted order.
  size_t total = 0;
  uint64_t prev = 0;
  ForEach([&](uint64_t key, uint32_t value) {
    (void)value;
    OLAPIDX_CHECK(total == 0 || key >= prev);
    prev = key;
    ++total;
  });
  OLAPIDX_CHECK(total == size_);
}

}  // namespace olapidx
