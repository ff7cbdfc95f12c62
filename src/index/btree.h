#pragma once

#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <set>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "common/math.h"
#include "common/status.h"
#include "index/key.h"
#include "storage/pager.h"

/// \file btree.h
/// \brief Paged B+-tree with chained leaves and record-overflow chains —
/// the physical index structure underlying every organization of Section 3.
///
/// The tree is generic over the leaf-record type so the same structure
/// backs posting-list indexes (SIX/IIX/MX/MIX, NIX primary) and the NIX
/// auxiliary index of 3-tuples. A Record must expose:
///   const Key& key() const;
///   std::size_t bytes() const;
///
/// Pages: each node occupies one page; a record larger than a page is kept
/// out-of-node in an overflow chain of ceil(bytes/p) pages, with only a
/// (key, pointer) stub in the leaf — matching the cost model's multi-page
/// index records. Node splits occur when a node's byte occupancy exceeds
/// the page size. Each node carries its occupancy, updated at every record
/// insert, mutation and removal and every separator insert, so the split
/// test after an insert or an in-place growth costs O(1), not a pass over
/// the node. Deletions shrink nodes without merging (standard lazy
/// deletion).
///
/// Every public operation counts page traffic through the Pager (an index
/// build runs them inside an excluded frame, which measures the traffic
/// without charging it); *Peek* operations are uncounted and intended for
/// test assertions.

namespace pathix {

/// \brief Page-charge deduplication for batched maintenance.
///
/// Yao's formula — the cost model's backbone — charges each page once per
/// batched access, however many records on it are touched. A batched
/// *probe* gets that charge from BTree::LookupSorted, which walks the tree
/// once in key order and charges a page when the walk enters it; NIX
/// maintenance, whose per-round keys arrive unsorted and mutate the tree
/// between them, passes a BatchCharge instead so the simulator counts the
/// same way.
struct BatchCharge {
  std::set<PageId> reads;
  std::set<PageId> writes;
  /// Overflow-chain pages, identified by (record key, page index): within
  /// one batched operation a record's chain is buffered after the first
  /// fetch ("a page will be fetched only once", Section 3.1).
  std::set<std::pair<Key, std::size_t>> chain_reads;
  std::set<std::pair<Key, std::size_t>> chain_writes;
};

/// Posting entry of an index record: an object holding the record's key
/// value, with the NIX numchild counter (Figure 3; 1 elsewhere).
struct Posting {
  ClassId cls = kInvalidClass;
  Oid oid = kInvalidOid;
  std::int32_t numchild = 1;

  static constexpr std::size_t kBytes = 16;  // cls + oid + numchild
  bool operator==(const Posting& other) const {
    return cls == other.cls && oid == other.oid &&
           numchild == other.numchild;
  }
};

/// Leaf record of the posting-list indexes: key value -> postings.
///
/// The postings are kept strictly increasing in (cls, oid), so each
/// class's postings form one contiguous, oid-ordered slice: the per-class
/// layout of a NIX record (Section 3.1, Figure 3), which a query w.r.t.
/// one class reads without scanning the others. The maintenance methods
/// below keep that order; the indexes' Validate checks it (Ordered()).
struct PostingRecord {
  Key key_value;
  std::vector<Posting> postings;

  const Key& key() const { return key_value; }
  std::size_t bytes() const {
    return key_value.bytes() + 8 + postings.size() * Posting::kBytes;
  }

  /// The postings of class \p cls (empty when it has none).
  std::span<const Posting> Slice(ClassId cls) const {
    const auto [first, last] =
        std::equal_range(postings.begin(), postings.end(), cls, ByClass{});
    return {first, last};
  }

  /// The posting (\p cls, \p oid), or postings.end().
  std::vector<Posting>::iterator Find(ClassId cls, Oid oid) {
    const auto it = LowerBound(cls, oid);
    return IsAt(it, cls, oid) ? it : postings.end();
  }

  /// Adds \p numchild to the posting (\p cls, \p oid), inserting it in
  /// order when absent (a multi-valued attribute holding a value twice
  /// bumps the existing posting).
  void AddOrBump(ClassId cls, Oid oid, std::int32_t numchild) {
    const auto it = LowerBound(cls, oid);
    if (IsAt(it, cls, oid)) {
      it->numchild += numchild;
      return;
    }
    postings.insert(it, Posting{cls, oid, numchild});
  }

  /// True when the postings are strictly increasing in (cls, oid).
  bool Ordered() const {
    return std::adjacent_find(postings.begin(), postings.end(),
                              [](const Posting& a, const Posting& b) {
                                return !Before(a, b);
                              }) == postings.end();
  }

 private:
  static bool Before(const Posting& a, const Posting& b) {
    return std::tie(a.cls, a.oid) < std::tie(b.cls, b.oid);
  }
  struct ByClass {
    bool operator()(const Posting& p, ClassId cls) const { return p.cls < cls; }
    bool operator()(ClassId cls, const Posting& p) const { return cls < p.cls; }
  };

  std::vector<Posting>::iterator LowerBound(ClassId cls, Oid oid) {
    return std::lower_bound(postings.begin(), postings.end(),
                            Posting{cls, oid, 0}, Before);
  }
  bool IsAt(std::vector<Posting>::const_iterator it, ClassId cls,
            Oid oid) const {
    return it != postings.end() && it->cls == cls && it->oid == oid;
  }
};

/// Leaf record of the NIX auxiliary index: the 3-tuple of Figure 4 —
/// object oid, pointers to the primary records listing the object, and the
/// object's aggregation parents.
struct AuxRecord {
  Key key_value;  ///< Key::FromOid(oid of the object)
  std::set<Key> primary_keys;
  std::vector<Oid> parents;

  const Key& key() const { return key_value; }
  std::size_t bytes() const {
    std::size_t b = key_value.bytes() + 16;
    for (const Key& k : primary_keys) b += k.bytes() + 8;
    b += parents.size() * 8;
    return b;
  }
};

/// The needed bytes of a whole-record read (BTree::LookupSorted): every
/// chain page.
struct WholeRecord {
  template <typename Record>
  std::size_t operator()(const Record& rec) const {
    return rec.bytes();
  }
};

/// \brief The tree.
template <typename Record>
class BTree {
 public:
  BTree(Pager* pager, std::string name)
      : pager_(pager), name_(std::move(name)) {
    root_ = std::make_unique<Node>(/*leaf=*/true, pager_->Allocate());
  }

  const std::string& name() const { return name_; }

  // ------------------------------------------------------------- counted

  /// Retrieves the record for \p key, reading the root-to-leaf path and the
  /// whole overflow chain of a multi-page record. nullptr if absent.
  /// \p batch deduplicates page charges across a batched operation.
  const Record* Lookup(const Key& key, BatchCharge* batch = nullptr) {
    PinSet pins;
    Node* leaf = DescendCounted(key, batch, &pins);
    Record* rec = FindInLeaf(leaf, key);
    if (rec != nullptr) {
      CountChainReads(*rec, ChainPages(*rec), batch);
    }
    return rec;
  }

  /// Sorted batch read: hands the record of every present key of \p keys
  /// to \p visit, in key order, after reading the min(chain, needed) first
  /// chain pages of a multi-page record. needed is the pages of
  /// \p needed_bytes_fn(record), which inspects the record's directory on
  /// its first page before the chain is followed (partial retrieval, e.g.
  /// one class's slice of a NIX primary record); WholeRecord reads the
  /// whole chain.
  ///
  /// \p keys must be ascending; a repeated key visits its record again and
  /// charges nothing. The walk keeps its root-to-leaf path as a stack of
  /// (node, exclusive upper separator), climbs only as far as the next key
  /// needs and descends again from there. Ascending keys never re-enter a
  /// node the walk has left, so charging and pinning a node when the walk
  /// enters it (one PinSet per key) produces exactly the pages, pins and
  /// buffer-pool touches, in the same order, that per-key Lookups under
  /// one BatchCharge would: Yao's once-per-batch charge. The tree must not
  /// change during the walk (the caller holds the part's latch).
  template <typename NeedFn, typename Visit>
  void LookupSorted(std::span<const Key> keys, NeedFn&& needed_bytes_fn,
                    Visit&& visit) {
    struct Step {
      Node* node;
      const Key* upper;  ///< exclusive bound of the node's keys; null: none
    };
    // One step per level, kept on the stack: allocating the path on every
    // probe slowed the one-key probes measurably. Only a tree deeper than
    // kStackPath levels (long keys on small pages) puts it on the heap.
    constexpr int kStackPath = 16;
    std::array<Step, kStackPath> stack_path;
    std::vector<Step> heap_path;
    Step* path = stack_path.data();
    if (height_ > kStackPath) {
      heap_path.resize(static_cast<std::size_t>(height_));
      path = heap_path.data();
    }
    int depth = 0;
    const Key* prev = nullptr;
    for (const Key& key : keys) {
      PATHIX_DCHECK(prev == nullptr || !(key < *prev));
      const bool repeat = prev != nullptr && key == *prev;
      prev = &key;
      Record* rec = nullptr;
      {
        PinSet pins;
        while (depth > 0 && path[depth - 1].upper != nullptr &&
               !(key < *path[depth - 1].upper)) {
          --depth;
        }
        if (depth == 0) {
          path[depth++] = Step{root_.get(), nullptr};
          ChargeRead(root_->page, nullptr, &pins);
        }
        while (!path[depth - 1].node->leaf) {
          const Step& at = path[depth - 1];
          const auto it =
              std::upper_bound(at.node->seps.begin(), at.node->seps.end(), key);
          const Key* upper = it == at.node->seps.end() ? at.upper : &*it;
          Node* child = at.node->children[it - at.node->seps.begin()].get();
          ChargeRead(child->page, nullptr, &pins);
          path[depth++] = Step{child, upper};
        }
        rec = FindInLeaf(path[depth - 1].node, key);
        if (rec != nullptr && !repeat) ReadChain(*rec, needed_bytes_fn);
      }
      if (rec != nullptr) visit(*rec);
    }
  }

  /// Applies \p fn to the record for \p key, creating it with \p make if
  /// absent. Counts the descent, the leaf write, \p touched_chain_pages
  /// read+written pages of a multi-page record, and any split writes.
  template <typename Make, typename Fn>
  void Upsert(const Key& key, Make&& make, Fn&& fn,
              std::size_t touched_chain_pages = 1,
              BatchCharge* batch = nullptr) {
    PinSet pins;
    Node* leaf = DescendCounted(key, batch, &pins);
    Record* rec = FindInLeaf(leaf, key);
    if (rec == nullptr) {
      Record fresh = make();
      PATHIX_DCHECK(fresh.key() == key);
      fn(&fresh);
      InsertRecord(std::move(fresh));
      return;
    }
    MutateInLeaf(leaf, rec, fn);
    TouchRecord(leaf, *rec, touched_chain_pages, batch);
    // The mutation may have grown the record past the node budget.
    if (leaf->bytes > pager_->page_size()) {
      RebalanceAfterGrowth(key);
    }
  }

  /// Applies \p fn to an existing record; returns false (counting only the
  /// descent) if the key is absent.
  template <typename Fn>
  bool Mutate(const Key& key, Fn&& fn, std::size_t touched_chain_pages = 1,
              BatchCharge* batch = nullptr) {
    PinSet pins;
    Node* leaf = DescendCounted(key, batch, &pins);
    Record* rec = FindInLeaf(leaf, key);
    if (rec == nullptr) return false;
    MutateInLeaf(leaf, rec, fn);
    TouchRecord(leaf, *rec, touched_chain_pages, batch);
    if (leaf->bytes > pager_->page_size()) {
      RebalanceAfterGrowth(key);
    }
    return true;
  }

  /// As Mutate, with the touched chain pages computed from the record after
  /// the mutation (e.g. the page span of one class's slice).
  template <typename Fn, typename TouchFn>
  bool MutateWithTouch(const Key& key, Fn&& fn, TouchFn&& touched_fn,
                       BatchCharge* batch = nullptr) {
    PinSet pins;
    Node* leaf = DescendCounted(key, batch, &pins);
    Record* rec = FindInLeaf(leaf, key);
    if (rec == nullptr) return false;
    MutateInLeaf(leaf, rec, fn);
    TouchRecord(leaf, *rec, touched_fn(*rec), batch);
    if (leaf->bytes > pager_->page_size()) {
      RebalanceAfterGrowth(key);
    }
    return true;
  }

  /// Removes the record for \p key (counting descent, chain, leaf write).
  bool Remove(const Key& key) {
    PinSet pins;
    Node* leaf = DescendCounted(key, nullptr, &pins);
    auto it = LowerBound(leaf->records, key);
    if (it == leaf->records.end() || !(it->key() == key)) return false;
    const std::size_t chain = ChainPages(*it);
    CountChainReads(*it, chain);  // all record pages are discarded
    if (chain > 0) pager_->NoteWrite(0);
    leaf->bytes -= InNodeBytes(*it);
    leaf->records.erase(it);
    pager_->NoteWrite(leaf->page);
    --num_records_;
    return true;
  }

  // ----------------------------------------------------------- uncounted

  /// Uncounted exact-match access (test assertions).
  const Record* Peek(const Key& key) const {
    const Node* node = root_.get();
    while (!node->leaf) node = Child(node, key);
    auto it = LowerBound(const_cast<Node*>(node)->records, key);
    if (it == node->records.end() || !(it->key() == key)) return nullptr;
    return &*it;
  }

  /// Visits every record in key order (uncounted).
  void ForEach(const std::function<void(const Record&)>& fn) const {
    ForEachNode(root_.get(), fn);
  }

  // ----------------------------------------------------------------- stats

  /// Levels from the root to the leaves.
  int height() const { return height_; }

  std::size_t num_records() const { return num_records_; }

  std::size_t leaf_pages() const {
    std::size_t pages = 0;
    CountLeafPages(root_.get(), &pages);
    return pages;
  }

  std::size_t total_pages() const {
    std::size_t pages = 0;
    CountAllPages(root_.get(), &pages);
    return pages;
  }

  /// Structural invariants: sorted keys, uniform leaf depth, separator
  /// consistency, each node's carried occupancy equal to a recount of its
  /// contents, node occupancy within a page (stubs for big records).
  Status ValidateStructure() const {
    int leaf_depth = -1;
    const Key* prev = nullptr;
    PATHIX_RETURN_IF_ERROR(ValidateNode(root_.get(), 0, &leaf_depth, &prev));
    if (leaf_depth + 1 != height_) {
      return Status::Internal("height() differs from the leaves' depth");
    }
    return Status::OK();
  }

 private:
  struct Node {
    Node(bool is_leaf, PageId pid) : leaf(is_leaf), page(pid) {}
    bool leaf;
    PageId page;
    std::vector<Key> seps;  // inner: seps[i] = min key of children[i+1]
    std::vector<std::unique_ptr<Node>> children;
    std::vector<Record> records;
    Node* next = nullptr;  // leaf chain
    /// Occupancy: InNodeBytes of every record (leaf), or every separator
    /// with its child pointer plus the extra child pointer (inner).
    std::size_t bytes = 0;
  };

  // Bytes a record occupies inside its node: full size if it fits a page,
  // otherwise a (key, pointer) stub with content in the overflow chain.
  std::size_t InNodeBytes(const Record& rec) const {
    const std::size_t b = rec.bytes();
    return b <= pager_->page_size() ? b : rec.key().bytes() + 8;
  }

  std::size_t ChainPages(const Record& rec) const {
    const std::size_t b = rec.bytes();
    if (b <= pager_->page_size()) return 0;
    return static_cast<std::size_t>(CeilDiv(
        static_cast<double>(b), static_cast<double>(pager_->page_size())));
  }

  static std::size_t SepBytes(const Key& sep) { return sep.bytes() + 8; }

  /// A node's occupancy recounted from its contents (splits, validation).
  std::size_t CountNodeBytes(const Node* node) const {
    std::size_t b = 0;
    if (node->leaf) {
      for (const Record& r : node->records) b += InNodeBytes(r);
    } else {
      for (const Key& k : node->seps) b += SepBytes(k);
      b += 8;
    }
    return b;
  }

  /// Applies \p fn to \p rec in place, keeping \p leaf's occupancy.
  template <typename Fn>
  void MutateInLeaf(Node* leaf, Record* rec, Fn& fn) {
    const std::size_t before = InNodeBytes(*rec);
    fn(rec);
    leaf->bytes = leaf->bytes - before + InNodeBytes(*rec);
  }

  static typename std::vector<Record>::iterator LowerBound(
      std::vector<Record>& records, const Key& key) {
    return std::lower_bound(
        records.begin(), records.end(), key,
        [](const Record& r, const Key& k) { return r.key() < k; });
  }

  static const Node* Child(const Node* node, const Key& key) {
    auto it = std::upper_bound(node->seps.begin(), node->seps.end(), key);
    return node->children[it - node->seps.begin()].get();
  }

  /// Root-to-leaf descent, one charged read per node. \p pins keeps every
  /// node page of the path pinned in the buffer pool until the caller's
  /// operation completes (guards released when the PinSet unwinds), so
  /// CLOCK cannot evict the descent path out from under a multi-touch op.
  Node* DescendCounted(const Key& key, BatchCharge* batch, PinSet* pins) {
    Node* node = root_.get();
    ChargeRead(node->page, batch, pins);
    while (!node->leaf) {
      node = const_cast<Node*>(Child(node, key));
      ChargeRead(node->page, batch, pins);
    }
    return node;
  }

  void ChargeRead(PageId page, BatchCharge* batch, PinSet* pins = nullptr) {
    if (batch != nullptr && !batch->reads.insert(page).second) return;
    if (pins != nullptr) {
      pins->Add(pager_->PinRead(page));
      return;
    }
    pager_->NoteRead(page);
  }

  void ChargeWrite(PageId page, BatchCharge* batch) {
    if (batch != nullptr && !batch->writes.insert(page).second) return;
    pager_->NoteWrite(page);
  }

  static Record* FindInLeaf(Node* leaf, const Key& key) {
    auto it = LowerBound(leaf->records, key);
    if (it == leaf->records.end() || !(it->key() == key)) return nullptr;
    return &*it;
  }

  /// Charges the first min(chain, needed) pages of \p rec's overflow chain
  /// (none for a record inside its node), needed being the pages of
  /// \p needed_bytes_fn(rec), at least one.
  template <typename NeedFn>
  void ReadChain(const Record& rec, NeedFn& needed_bytes_fn) {
    const std::size_t chain = ChainPages(rec);
    if (chain == 0) return;
    const std::size_t needed = static_cast<std::size_t>(
        CeilDiv(static_cast<double>(needed_bytes_fn(rec)),
                static_cast<double>(pager_->page_size())));
    pager_->NoteReads(std::min(chain, std::max<std::size_t>(needed, 1)));
  }

  void CountChainReads(const Record& rec, std::size_t pages,
                       BatchCharge* batch = nullptr) {
    if (batch == nullptr) {
      pager_->NoteReads(pages);
      return;
    }
    for (std::size_t i = 0; i < pages; ++i) {
      if (batch->chain_reads.emplace(rec.key(), i).second) {
        pager_->NoteReads(1);
      }
    }
  }

  void TouchRecord(Node* leaf, const Record& rec,
                   std::size_t touched_chain_pages,
                   BatchCharge* batch = nullptr) {
    const std::size_t chain = ChainPages(rec);
    if (chain == 0) {
      ChargeWrite(leaf->page, batch);
      return;
    }
    const std::size_t touched =
        std::max<std::size_t>(1, std::min(chain, touched_chain_pages));
    CountChainReads(rec, touched, batch);
    if (batch == nullptr) {
      for (std::size_t i = 0; i < touched; ++i) pager_->NoteWrite(leaf->page);
      return;
    }
    for (std::size_t i = 0; i < touched; ++i) {
      if (batch->chain_writes.emplace(rec.key(), i).second) {
        pager_->NoteWrite(leaf->page);
      }
    }
  }

  // --------------------------------------------------------------- insert

  struct SplitResult {
    bool split = false;
    Key sep;
    std::unique_ptr<Node> right;
  };

  void InsertRecord(Record rec) {
    GrowRootOn(InsertRec(root_.get(), std::move(rec)));
    ++num_records_;
  }

  /// A split reached the root: a new root above the two halves.
  void GrowRootOn(SplitResult top) {
    if (!top.split) return;
    auto new_root = std::make_unique<Node>(/*leaf=*/false, pager_->Allocate());
    new_root->bytes = SepBytes(top.sep) + 8;
    new_root->seps.push_back(std::move(top.sep));
    new_root->children.push_back(std::move(root_));
    new_root->children.push_back(std::move(top.right));
    root_ = std::move(new_root);
    ++height_;
    pager_->NoteWrite(root_->page);
  }

  /// Adds the separator and right half of \p child_split after child
  /// \p idx of inner \p node.
  void InsertSeparator(Node* node, std::size_t idx, SplitResult child_split) {
    node->bytes += SepBytes(child_split.sep);
    node->seps.insert(node->seps.begin() + idx, std::move(child_split.sep));
    node->children.insert(node->children.begin() + idx + 1,
                          std::move(child_split.right));
    pager_->NoteWrite(node->page);
  }

  SplitResult InsertRec(Node* node, Record rec) {
    if (node->leaf) {
      auto it = LowerBound(node->records, rec.key());
      PATHIX_DCHECK(it == node->records.end() || !(it->key() == rec.key()));
      const std::size_t chain = ChainPages(rec);
      node->bytes += InNodeBytes(rec);
      node->records.insert(it, std::move(rec));
      pager_->NoteWrite(node->page);
      if (chain > 0) {
        for (std::size_t i = 0; i < chain; ++i) pager_->NoteWrite(node->page);
      }
      return MaybeSplit(node);
    }
    auto cit = std::upper_bound(node->seps.begin(), node->seps.end(),
                                rec.key());
    const std::size_t idx = cit - node->seps.begin();
    SplitResult child_split =
        InsertRec(node->children[idx].get(), std::move(rec));
    if (!child_split.split) return SplitResult{};
    InsertSeparator(node, idx, std::move(child_split));
    return MaybeSplit(node);
  }

  SplitResult MaybeSplit(Node* node) {
    if (node->bytes <= pager_->page_size()) return SplitResult{};
    const std::size_t count =
        node->leaf ? node->records.size() : node->children.size();
    if (count < 2) return SplitResult{};  // a single stub may exceed a page
    SplitResult out;
    out.split = true;
    out.right = std::make_unique<Node>(node->leaf, pager_->Allocate());
    if (node->leaf) {
      const std::size_t mid = node->records.size() / 2;
      out.right->records.assign(
          std::make_move_iterator(node->records.begin() + mid),
          std::make_move_iterator(node->records.end()));
      node->records.resize(mid);
      out.sep = out.right->records.front().key();
      out.right->next = node->next;
      node->next = out.right.get();
    } else {
      const std::size_t mid = node->children.size() / 2;
      out.sep = node->seps[mid - 1];
      out.right->seps.assign(node->seps.begin() + mid, node->seps.end());
      out.right->children.assign(
          std::make_move_iterator(node->children.begin() + mid),
          std::make_move_iterator(node->children.end()));
      node->seps.resize(mid - 1);
      node->children.resize(mid);
    }
    node->bytes = CountNodeBytes(node);
    out.right->bytes = CountNodeBytes(out.right.get());
    pager_->NoteWrite(node->page);
    pager_->NoteWrite(out.right->page);
    return out;
  }

  /// An in-place record mutation grew its leaf past a page: reinsert the
  /// affected leaf's split through the root path. Simplest correct
  /// approach: locate the leaf and split upward via a fresh descent.
  void RebalanceAfterGrowth(const Key& key) {
    GrowRootOn(SplitPathRec(root_.get(), key));
  }

  SplitResult SplitPathRec(Node* node, const Key& key) {
    if (node->leaf) return MaybeSplit(node);
    auto cit = std::upper_bound(node->seps.begin(), node->seps.end(), key);
    const std::size_t idx = cit - node->seps.begin();
    SplitResult child_split = SplitPathRec(node->children[idx].get(), key);
    if (!child_split.split) return SplitResult{};
    InsertSeparator(node, idx, std::move(child_split));
    return MaybeSplit(node);
  }

  // ---------------------------------------------------------------- stats

  void ForEachNode(const Node* node,
                   const std::function<void(const Record&)>& fn) const {
    if (node->leaf) {
      for (const Record& r : node->records) fn(r);
      return;
    }
    for (const auto& child : node->children) ForEachNode(child.get(), fn);
  }

  void CountLeafPages(const Node* node, std::size_t* pages) const {
    if (node->leaf) {
      *pages += 1;
      for (const Record& r : node->records) *pages += ChainPages(r);
      return;
    }
    for (const auto& child : node->children) CountLeafPages(child.get(), pages);
  }

  void CountAllPages(const Node* node, std::size_t* pages) const {
    *pages += 1;
    if (node->leaf) {
      for (const Record& r : node->records) *pages += ChainPages(r);
      return;
    }
    for (const auto& child : node->children) CountAllPages(child.get(), pages);
  }

  Status ValidateNode(const Node* node, int depth, int* leaf_depth,
                      const Key** prev) const {
    if (node->bytes != CountNodeBytes(node)) {
      return Status::Internal("node occupancy differs from its contents");
    }
    if (node->leaf) {
      if (*leaf_depth == -1) *leaf_depth = depth;
      if (*leaf_depth != depth) {
        return Status::Internal("leaves at differing depths");
      }
      for (const Record& r : node->records) {
        if (*prev != nullptr && !(**prev < r.key())) {
          return Status::Internal("keys out of order at " +
                                  r.key().ToString());
        }
        *prev = &r.key();
      }
      if (node->records.size() > 1 && node->bytes > pager_->page_size()) {
        return Status::Internal("leaf overflows a page");
      }
      return Status::OK();
    }
    if (node->children.size() != node->seps.size() + 1) {
      return Status::Internal("inner node arity mismatch");
    }
    for (std::size_t i = 0; i < node->children.size(); ++i) {
      PATHIX_RETURN_IF_ERROR(
          ValidateNode(node->children[i].get(), depth + 1, leaf_depth, prev));
      if (i < node->seps.size() && *prev != nullptr &&
          node->seps[i] < **prev) {
        return Status::Internal("separator below subtree maximum");
      }
    }
    return Status::OK();
  }

  Pager* pager_;
  std::string name_;
  std::unique_ptr<Node> root_;
  int height_ = 1;  ///< grows with each root split; nodes never merge
  std::size_t num_records_ = 0;
};

using PostingTree = BTree<PostingRecord>;
using AuxTree = BTree<AuxRecord>;

/// \p tree's structural invariants, plus the posting order every record
/// keeps (PostingRecord: strictly increasing in (cls, oid)).
inline Status ValidatePostings(const PostingTree& tree) {
  PATHIX_RETURN_IF_ERROR(tree.ValidateStructure());
  Status status = Status::OK();
  tree.ForEach([&](const PostingRecord& rec) {
    if (status.ok() && !rec.Ordered()) {
      status = Status::Internal(
          tree.name() + ": postings of key " + rec.key().ToString() +
          " are not strictly increasing in (cls, oid)");
    }
  });
  return status;
}

}  // namespace pathix
