// BPlusTree: an in-memory B+tree over (uint64 key → uint32 row id) entries
// with duplicate-key support, point/range scans, single insert and sorted
// bulk load. This is the index structure the paper's "fat" B-tree indexes
// are built with; under the paper's size model an index's space cost is its
// leaf entry count, which equals the underlying view's row count.
//
// The tree has no delete path: a refresh only grows a view, and its
// indexes are re-keyed by bulk-loading the merged entry sequence
// (ViewIndex::Rekey).

#ifndef OLAPIDX_ENGINE_BTREE_H_
#define OLAPIDX_ENGINE_BTREE_H_

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "engine/key_sort.h"

namespace olapidx {

class BPlusTree {
 public:
  // `fanout`: maximum number of keys per node (leaf and internal alike).
  explicit BPlusTree(int fanout = 64);
  ~BPlusTree();

  BPlusTree(const BPlusTree&) = delete;
  BPlusTree& operator=(const BPlusTree&) = delete;
  BPlusTree(BPlusTree&& other) noexcept;
  BPlusTree& operator=(BPlusTree&& other) noexcept;

  void Insert(uint64_t key, uint32_t value);

  // Builds the tree bottom-up from (key, value) entries sorted by key
  // (duplicates allowed). The tree must be empty.
  void BulkLoad(const std::vector<KeyRow>& sorted);

  // Invokes `fn(key, value)` for every entry with lo <= key <= hi, in key
  // order. Returns the number of entries visited (i.e. in range).
  template <typename Fn>
  size_t ScanRange(uint64_t lo, uint64_t hi, Fn&& fn) const {
    size_t visited = 0;
    const Node* leaf = FindLeaf(lo);
    while (leaf != nullptr) {
      for (size_t i = 0; i < leaf->keys.size(); ++i) {
        if (leaf->keys[i] < lo) continue;
        if (leaf->keys[i] > hi) return visited;
        fn(leaf->keys[i], leaf->values[i]);
        ++visited;
      }
      leaf = leaf->next;
    }
    return visited;
  }

  // Invokes `fn(key, value)` for every entry, in key order, walking the
  // leaf chain from the leftmost leaf. Unlike ScanRange it does not count
  // `btree.node_touches`: a full walk is maintenance work, not a probe.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    const Node* leaf = root_;
    if (leaf == nullptr) return;
    while (!leaf->is_leaf) leaf = leaf->children.front();
    for (; leaf != nullptr; leaf = leaf->next) {
      for (size_t i = 0; i < leaf->keys.size(); ++i) {
        fn(leaf->keys[i], leaf->values[i]);
      }
    }
  }

  size_t size() const { return size_; }
  int height() const { return height_; }
  int fanout() const { return fanout_; }

  // Structural invariants (sortedness, occupancy, leaf-chain coverage);
  // aborts on violation. Used by tests.
  void CheckInvariants() const;

 private:
  struct Node {
    explicit Node(bool leaf) : is_leaf(leaf) {}
    bool is_leaf;
    std::vector<uint64_t> keys;
    // Leaf payload: values parallel to keys; `next` chains leaves in key
    // order.
    std::vector<uint32_t> values;
    Node* next = nullptr;
    // Internal payload: children.size() == keys.size() + 1; keys[i] is a
    // separator >= every key in children[i]'s subtree and <= every key in
    // children[i+1]'s subtree (duplicates may touch the separator on both
    // sides, which the lower-bound descent in FindLeaf tolerates).
    std::vector<Node*> children;
  };

  struct SplitResult {
    Node* right = nullptr;   // nullptr when no split happened
    uint64_t separator = 0;  // first key of `right`'s subtree
  };

  const Node* FindLeaf(uint64_t key) const;
  SplitResult InsertInto(Node* node, uint64_t key, uint32_t value);
  static void DeleteSubtree(Node* node);
  void CheckSubtree(const Node* node, int depth, uint64_t lo,
                    uint64_t hi) const;

  int fanout_;
  Node* root_ = nullptr;
  size_t size_ = 0;
  int height_ = 0;
};

}  // namespace olapidx

#endif  // OLAPIDX_ENGINE_BTREE_H_
