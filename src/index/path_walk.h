#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "index/key.h"
#include "schema/path.h"
#include "storage/object_store.h"

/// \file path_walk.h
/// \brief Navigational evaluation of a path — the walk a naive query and a
/// NONE part share: from an object of the target level, follow the forward
/// references level by level and test the ending attribute.

namespace pathix {

/// \brief One navigational evaluation of levels [target_level, end_level]
/// of a path, for many objects of the target level.
///
/// Every class of levels (target_level, end_level] is listed once, when the
/// walk is made (ObjectStore::PeekAllPlaced), and found by oid through a
/// flat open-addressing table whose entries carry the memo. A reference the
/// lists do not hold is read from the store (PageOf, then PeekRef): a
/// dangling reference, an object inserted after its class was listed, or
/// an object of a class off the walked levels.
///
/// Page accounting emulates an unbounded per-walk buffer: a page is charged
/// (Pager::NoteRead) the first time the walk reads it and never again,
/// through a bitmap over page ids (Pager::Allocate hands them out densely).
/// Every object's answer is memoized by oid, so an object shared between
/// parents is read once.
///
/// Under concurrent writers the walk sees each listed class as of its
/// listing; it holds no lock while it walks.
class PathWalk {
 public:
  /// A walk of \p path whose ending attribute A_{end_level} must hold one
  /// of \p keys (increasing and without duplicates). With \p skip_dangling,
  /// a reference naming no live object matches no key. Charges go to
  /// \p pager. \p store, \p path and \p keys must outlive the walk.
  PathWalk(const ObjectStore& store, const Schema& schema, const Path& path,
           int target_level, int end_level, std::span<const Key> keys,
           bool skip_dangling, Pager* pager);

  /// Charges \p page unless this walk already has (kInvalidPage: nothing).
  void Charge(PageId page);

  /// True if \p target, an object of the target level, reaches one of the
  /// keys. Charges its page and every page the walk reads below it.
  bool Reaches(const PlacedObject& target);

 private:
  enum class Memo : std::uint8_t { kUnvisited, kMiss, kHit };
  struct Slot {
    Oid oid = kInvalidOid;  ///< kInvalidOid marks an empty slot
    std::uint32_t listed = 0;  ///< index into listed_
    Memo memo = Memo::kUnvisited;
  };

  /// The memoized answer for the object \p oid, reached at \p level.
  bool Visit(Oid oid, int level);
  /// As Visit, for an oid the lists do not hold.
  bool VisitUnlisted(Oid oid, int level);
  /// Whether \p obj, taken as an object of \p level, reaches a key.
  bool Test(const Object& obj, int level);
  bool Matches(const Value& v) const;
  /// The slot of \p oid, or nullptr when the lists do not hold it.
  Slot* Find(Oid oid);

  const ObjectStore& store_;
  const Path& path_;
  const int target_level_;
  const int end_level_;
  const std::span<const Key> keys_;
  const bool skip_dangling_;
  Pager* const pager_;

  std::vector<PlacedObject> listed_;
  /// A power of two in size, at most half full; never grows.
  std::vector<Slot> slots_;
  int shift_ = 0;
  /// One bit per page id: charged by this walk.
  std::vector<std::uint64_t> charged_;
  /// The memo of live objects the lists do not hold.
  std::unordered_map<Oid, bool> unlisted_;
  /// The target objects walked so far and their answers, folded into
  /// unlisted_ only once a live unlisted object turns up.
  std::vector<std::pair<Oid, bool>> walked_;
  std::size_t folded_ = 0;
};

}  // namespace pathix
