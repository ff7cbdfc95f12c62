#pragma once

#include <map>
#include <set>

#include "index/btree.h"
#include "index/subpath_index.h"

/// \file nix_index.h
/// \brief Physical nested-inherited index (NIX), Section 3.1 / Figures 3-5.
///
/// Primary index: keyed by the subpath's ending-attribute values; each
/// record lists, grouped per scope class, the (oid, numchild) postings of
/// every object reaching the key value. numchild counts the object's
/// children that reach the value; it drives deletion propagation.
///
/// Auxiliary index: one 3-tuple per object of every scope class except the
/// subpath root hierarchy — (oid, pointers to the primary records listing
/// the object, list of aggregation parents).
///
/// OnInsert/OnDelete implement the paper's maintenance algorithms,
/// including the round-by-round parent-chain propagation of numchild
/// decrements ("then step 3 is executed again").

namespace pathix {

class NIXIndex : public SubpathIndex {
 public:
  NIXIndex(Pager* pager, SubpathIndexContext ctx);

  IndexOrg org() const override { return IndexOrg::kNIX; }
  std::vector<Oid> Probe(const std::vector<Key>& keys, int target_level,
                         const std::vector<ClassId>& target_classes) override;
  void OnInsert(const Object& obj, int level) override;
  void OnDelete(const Object& obj, int level) override;
  void OnBoundaryDelete(Oid oid) override;
  Status Validate() const override;
  std::size_t total_pages() const override;

  /// Deep consistency check against ground truth: recomputes reachability
  /// from the store and compares with the primary/auxiliary contents.
  Status ValidateAgainstStore(const ObjectStore& store) const;

  PostingTree& primary() { return primary_; }
  AuxTree& aux() { return aux_; }

 protected:
  void BuildImpl(const ObjectStore& store) override;

 private:
  /// key -> numchild for one object: its distinct reachable ending values.
  using ReachSet = std::map<Key, std::int32_t>;

  /// Reachability of one object computed through the index itself (children
  /// tuples for inner levels, own values at the ending level). Counted.
  ReachSet ComputeReach(const Object& obj, int level);

  /// Ground-truth reachability from the store (uncounted; Build/Validate).
  ReachSet ComputeReachFromStore(const ObjectStore& store, const Object& obj,
                                 int level) const;

  bool HasAuxTuple(int level) const { return level > ctx_.range.start; }
  bool HasChildTuples(int level) const { return level < ctx_.range.end; }

  PostingTree primary_;
  AuxTree aux_;
};

}  // namespace pathix
