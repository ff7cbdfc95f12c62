#pragma once

#include <memory>
#include <vector>

#include "core/subpath.h"
#include "costmodel/index_org.h"
#include "index/key.h"
#include "schema/path.h"
#include "storage/object_store.h"

/// \file subpath_index.h
/// \brief Interface of a physical index allocated on one subpath of a path
/// (the physical counterpart of one (S_i, X_i) pair of Definition 4.1).

namespace pathix {

/// \brief Shared context of a physical subpath index.
struct SubpathIndexContext {
  const Schema* schema = nullptr;
  const Path* path = nullptr;
  Subpath range;

  /// Name of attribute A_l (1-based path level).
  const std::string& attr_name(int l) const {
    return path->attribute_at(l).name;
  }
  /// The inheritance hierarchy of level l (root first).
  std::vector<ClassId> hierarchy(int l) const {
    return schema->HierarchyOf(path->class_at(l));
  }
  /// The path level within [range.start, range.end] whose hierarchy
  /// contains \p cls, or 0 if none.
  int LevelOfClass(ClassId cls) const {
    for (int l = range.start; l <= range.end; ++l) {
      if (schema->IsSameOrSubclassOf(cls, path->class_at(l))) return l;
    }
    return 0;
  }
};

/// Sorts \p oids ascending and drops duplicates — the form Probe returns —
/// in linear time: an LSD radix sort over the oid bits in use (a
/// comparison sort below a few dozen oids).
void SortUniqueOids(std::vector<Oid>* oids);

/// True when \p keys are increasing and without duplicates (Probe's
/// precondition on its keys).
bool StrictlyIncreasing(const std::vector<Key>& keys);

/// \brief A physical index on one subpath.
///
/// Page traffic of Probe/On* calls is counted through the Pager. Build runs
/// inside one excluded ScopedAccessProbe (index creation is never part of
/// a replay's measured pages): the construction's upserts and the
/// *bulk-build* charge — one read of every segment page in the subpath's
/// scope, one write per structure page — are measured into the pager's
/// kBuild tally, charged nowhere, and folded once when the build ends. The
/// bulk-build charge alone is kept as build_io(): the measured counterpart
/// of the transition model's analytic scan + write estimate, which the
/// reconfiguration controllers record next to the modeled price of every
/// committed switch.
class SubpathIndex {
 public:
  virtual ~SubpathIndex() = default;

  virtual IndexOrg org() const = 0;
  const Subpath& range() const { return ctx_.range; }
  const SubpathIndexContext& context() const { return ctx_; }

  /// Populates the index from a loaded store and records build_io().
  void Build(const ObjectStore& store) {
    ScopedAccessProbe probe(pager_, PageOpKind::kBuild, {}, /*exclude=*/true);
    BuildImpl(store);
    const AccessStats constructed = probe.Delta();
    ChargeBuildIo(store);
    build_io_ = probe.Delta() - constructed;
  }

  /// Measured page I/O of the last Build() (zero before any build).
  const AccessStats& build_io() const { return build_io_; }

  /// Evaluates the subpath: \p keys are values of the subpath's ending
  /// attribute A_b (the query constant, or oids delivered by the next
  /// subpath); returns the oids of objects of \p target_classes at
  /// \p target_level that reach one of the keys, increasing and without
  /// duplicates. \p keys are increasing and without duplicates too (one
  /// constant, or the previous Probe's oids).
  virtual std::vector<Oid> Probe(const std::vector<Key>& keys,
                                 int target_level,
                                 const std::vector<ClassId>& target_classes) = 0;

  /// Index maintenance for an object of path level \p level (within range)
  /// being inserted / having been deleted. The object carries its
  /// attribute values; for deletion it is the pre-deletion image.
  virtual void OnInsert(const Object& obj, int level) = 0;
  virtual void OnDelete(const Object& obj, int level) = 0;

  /// Definition 4.2's boundary maintenance: an object of class C_{b+1}
  /// (the next subpath's root hierarchy) was deleted; its oid is a key
  /// value of this index and its record must go.
  virtual void OnBoundaryDelete(Oid oid) = 0;

  /// Structural invariants (tests).
  virtual Status Validate() const = 0;

  /// Pages occupied (storage ablations).
  virtual std::size_t total_pages() const = 0;

 protected:
  SubpathIndex(Pager* pager, SubpathIndexContext ctx)
      : pager_(pager), ctx_(std::move(ctx)) {}

  /// The organization-specific construction, through the counted tree
  /// operations (Build's excluded frame keeps their traffic uncharged).
  virtual void BuildImpl(const ObjectStore& store) = 0;

  /// Charges the measured bulk-build I/O through the pager: the default
  /// reads every segment page of every class in scope once (the builders
  /// iterate the store class by class) and writes each structure page out.
  /// NoneIndex materializes nothing and overrides this to charge nothing —
  /// mirroring the transition model's "no index builds for free" rule.
  virtual void ChargeBuildIo(const ObjectStore& store) {
    for (int l = ctx_.range.start; l <= ctx_.range.end; ++l) {
      for (ClassId cls : ctx_.hierarchy(l)) {
        pager_->NoteReads(store.SegmentPages(cls));
      }
    }
    pager_->NoteWrites(total_pages());
  }

  Pager* pager_;
  SubpathIndexContext ctx_;
  AccessStats build_io_;
};

}  // namespace pathix
