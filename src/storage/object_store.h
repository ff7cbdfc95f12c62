#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "storage/object.h"
#include "storage/pager.h"

/// \file object_store.h
/// \brief Page-organized object store, sharded by class.
///
/// Mirrors the paper's storage assumptions: a page contains objects of only
/// one class, and objects hold only forward references. Objects are placed
/// into the last non-full page of their class segment; deletion leaves a
/// hole (no compaction), as in most real stores.
///
/// Thread safety: the store is sharded by class — each class's objects and
/// segment pages live behind that shard's reader/writer Mutex, so reads of
/// one class (the hot path: queries walking reference chains) take shared
/// locks only and never contend with traffic on other classes. A global
/// oid->location map behind its own mutex routes oid lookups to the right
/// shard. Objects are held by shared_ptr: the ref-returning accessors
/// (PeekRef/PeekAllPlaced/InsertAndGet/Take) hand out owning references that
/// stay valid across a concurrent delete of the same object — the
/// raw-pointer Peek remains for callers whose lifetime is externally
/// ordered (single-threaded tooling, tests), valid until *that* object is
/// deleted. Lock order within the store: shard mutex before the location
/// mutex, never both the other way; both may call into the Pager (the
/// leaf).

namespace pathix {

/// \brief An owning reference to a stored object and the segment page
/// holding it.
struct PlacedObject {
  std::shared_ptr<const Object> obj;
  PageId page = kInvalidPage;
};

/// \brief The object heap of one simulated database.
class ObjectStore {
 public:
  explicit ObjectStore(Pager* pager) : pager_(pager) {}

  /// Stores \p obj (oid assigned by the store) and returns its oid.
  /// Costs one page write.
  Oid Insert(Object obj);

  /// As Insert, but returns an owning reference to the stored object —
  /// what index maintenance reads, immune to a concurrent delete.
  std::shared_ptr<const Object> InsertAndGet(Object obj);

  /// Removes the object. Costs one page read + one write.
  Status Delete(Oid oid);

  /// Claim-first delete: atomically removes the object and returns the
  /// owning reference (null if absent — then nothing is counted). Of two
  /// racing Take(oid) calls exactly one receives the object, so deletion
  /// side effects (index maintenance) run exactly once. Costs one page
  /// read + one write on success.
  std::shared_ptr<const Object> Take(Oid oid);

  /// Fetch without page accounting (for test assertions and index
  /// upkeep whose cost is not part of an experiment). The pointer is valid
  /// until that object is deleted — concurrent deleters must be ruled out
  /// by the caller (prefer PeekRef under concurrency).
  const Object* Peek(Oid oid) const;

  /// As Peek, returning an owning reference (safe under concurrency).
  std::shared_ptr<const Object> PeekRef(Oid oid) const;

  /// All live oids of \p cls in segment order (uncounted).
  std::vector<Oid> PeekAll(ClassId cls) const;

  /// Owning references to the live objects of \p cls, each with the segment
  /// page holding it, in PeekAll's order, read under one shard lock
  /// (uncounted): the one whole-class reader of index builds, ANALYZE and
  /// navigational walks, without a location lookup and three shared locks
  /// per object.
  std::vector<PlacedObject> PeekAllPlaced(ClassId cls) const;

  /// True when \p oid is live (uncounted): one location lookup. How builds
  /// and ANALYZE tell a dangling reference.
  bool Contains(Oid oid) const EXCLUDES(loc_mu_);

  /// Number of pages in the class segment.
  std::size_t SegmentPages(ClassId cls) const;

  /// Number of live objects of \p cls (uncounted). The scoped-ANALYZE
  /// drift check compares this against the count at the last statistics
  /// collection without materializing the oid list.
  std::size_t LiveCount(ClassId cls) const;

  /// Page holding \p oid (kInvalidPage if absent).
  PageId PageOf(Oid oid) const;

  std::size_t live_objects() const EXCLUDES(loc_mu_) {
    ReaderMutexLock lock(&loc_mu_);
    return locations_.size();
  }

 private:
  struct SegmentPage {
    PageId page = kInvalidPage;
    std::size_t used_bytes = 0;
    std::vector<Oid> oids;
  };
  /// One class's slice of the heap. Stable address (held by unique_ptr),
  /// so a shard pointer outlives any shards_mu_ critical section.
  struct Shard {
    mutable Mutex mu;
    std::unordered_map<Oid, std::shared_ptr<const Object>> objects
        GUARDED_BY(mu);
    std::vector<SegmentPage> pages GUARDED_BY(mu);
  };
  struct Location {
    ClassId cls = kInvalidClass;
    std::size_t page_index = 0;
    PageId page = kInvalidPage;
  };

  /// The shard of \p cls, created on first use.
  Shard& ShardFor(ClassId cls) EXCLUDES(shards_mu_);
  /// The shard of \p cls, or nullptr if the class has never been stored.
  Shard* FindShard(ClassId cls) const EXCLUDES(shards_mu_);
  /// Copy of the location entry; false if \p oid is not live.
  bool FindLocation(Oid oid, Location* out) const EXCLUDES(loc_mu_);

  Pager* pager_;
  std::atomic<Oid> next_oid_{1};  // oid 0 is kInvalidOid

  mutable Mutex shards_mu_;
  std::map<ClassId, std::unique_ptr<Shard>> shards_ GUARDED_BY(shards_mu_);

  mutable Mutex loc_mu_;
  std::unordered_map<Oid, Location> locations_ GUARDED_BY(loc_mu_);
};

}  // namespace pathix
