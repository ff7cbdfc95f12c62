#pragma once

#include "index/subpath_index.h"

/// \file none_index.h
/// \brief Physical counterpart of the kNone organization (the paper's
/// "no index on a subpath" future-work extension): the subpath is evaluated
/// navigationally against the object store — scan the target classes, follow
/// the forward references, test membership of the boundary keys. A probe is
/// one PathWalk, the walk a naive query makes.
///
/// Maintenance is free (there is nothing to maintain); queries pay the scan,
/// exactly as the NoneCostModel predicts.

namespace pathix {

class NoneIndex : public SubpathIndex {
 public:
  NoneIndex(Pager* pager, SubpathIndexContext ctx)
      : SubpathIndex(pager, std::move(ctx)) {}

  IndexOrg org() const override { return IndexOrg::kNone; }

  std::vector<Oid> Probe(const std::vector<Key>& keys, int target_level,
                         const std::vector<ClassId>& target_classes) override;

  void OnInsert(const Object& obj, int level) override {
    (void)obj;
    (void)level;
  }
  void OnDelete(const Object& obj, int level) override {
    (void)obj;
    (void)level;
  }
  void OnBoundaryDelete(Oid oid) override { (void)oid; }

  Status Validate() const override { return Status::OK(); }
  std::size_t total_pages() const override { return 0; }

 protected:
  void BuildImpl(const ObjectStore& store) override { store_ = &store; }
  /// Nothing is materialized, so building charges nothing (the transition
  /// model's "no index builds for free" rule, made physically true).
  void ChargeBuildIo(const ObjectStore& store) override { (void)store; }

 private:
  const ObjectStore* store_ = nullptr;
};

}  // namespace pathix
