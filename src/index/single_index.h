#pragma once

#include <string>
#include <vector>

#include "index/btree.h"

/// \file single_index.h
/// \brief Attribute index: one B+-tree mapping attribute values to the oids
/// holding them. This is the paper's simple index (SIX) when fed by one
/// class, and its inherited index (IIX / class-hierarchy index) when fed by
/// a whole inheritance hierarchy — the building block of the physical MX
/// and MIX organizations.

namespace pathix {

class AttrIndex {
 public:
  AttrIndex(Pager* pager, std::string name)
      : tree_(pager, std::move(name)) {}

  /// Counted maintenance (and index builds, under their excluded frame):
  /// adds / removes one posting.
  void AddEntry(const Key& key, ClassId cls, Oid oid);
  void RemoveEntry(const Key& key, ClassId cls, Oid oid);

  /// Counted: deletes the whole record of \p key (Definition 4.2's CMD —
  /// the key value, an oid of the next class, disappeared).
  void RemoveKey(const Key& key);

  /// Counted lookup of one key's postings (empty if absent).
  std::vector<Posting> Lookup(const Key& key);

  PostingTree& tree() { return tree_; }
  const PostingTree& tree() const { return tree_; }

 private:
  PostingTree tree_;
};

}  // namespace pathix
