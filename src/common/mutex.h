#pragma once

// The one file in src/ allowed to name std::shared_mutex: every other use
// must go through the annotated wrappers below so Clang's thread safety
// analysis sees each acquire/release (check_header_hygiene.sh enforces
// this; the marker it looks for is this header's path).
#include <shared_mutex>

#include "common/thread_annotations.h"

#if defined(__SANITIZE_THREAD__)
#define PATHIX_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PATHIX_TSAN 1
#endif
#endif
#ifdef PATHIX_TSAN
#include <sanitizer/tsan_interface.h>
#endif

/// \file mutex.h
/// \brief The project's annotated locking primitives.
///
/// `Mutex` is the only legal lock type in `src/`: a shared (reader/writer)
/// mutex carrying Clang thread-safety capability annotations, so that state
/// declared GUARDED_BY one provably cannot be touched without holding it.
/// Lock it through the RAII guards — `MutexLock` (exclusive) and
/// `ReaderMutexLock` (shared) — not through bare Lock/Unlock pairs, so the
/// release is tied to scope exit on every path.
///
/// Lock ordering. The engine's mutex hierarchy is strictly leaf-ward:
///
///   controller check mutex  >  SimDatabase commit mutex
///     >  PhysicalPartRegistry  >  PhysicalPart latch  >  ObjectStore
///                                                     >  Pager cells
///   controller check mutex  >  WorkloadMonitor mutex  >  monitor batches
///
/// i.e. the Pager's tally cells are leaves (Note* never calls out), part
/// latches and the ObjectStore's methods may call into the Pager, and
/// Registry::Acquire may call into all of them while building a part. The
/// SimDatabase commit mutex serializes configuration epoch swaps against
/// update operations; the only mutex ever held while taking it is the
/// controller's check mutex, since a drift check commits while it holds
/// that. The database's observer is an atomic pointer, not a lock, and
/// observers run holding nothing. Never call upward (e.g. from index code
/// back into the registry) while holding a downstream mutex.
///
/// The WorkloadMonitor's mutex is taken only by drains: the drift check's
/// estimate reads, the exporters, and an observing thread whose batch
/// filled. It is never held together with the commit mutex. It sits above
/// the monitor's per-thread batch cells (common/thread_slot.h), which are
/// leaves: an observed op locks only its own thread's cell and takes the
/// monitor mutex, if at all, after releasing it; a drain locks every cell
/// in index order under the monitor mutex and calls nothing while holding
/// them.
///
/// The Pager's counters live in per-thread cells (common/thread_slot.h),
/// one leaf mutex each: a frame close or unframed touch locks only its own
/// thread's cell, and the readers lock every cell in index order and call
/// nothing while holding them. The buffer pool's sharded frame-table
/// latches (storage/buffer_pool.h) are leaves beside the cells, taken only
/// on misses (and the eviction they run), on an unpin that a resize
/// disturbed, and by Resize, FlushAll and GetStats; hits and ordinary
/// unpins are a CAS on the frame's word and take no latch. A latched touch
/// releases its shard latch before (if unframed) it takes its cell for the
/// stats — the two are never held together. Pool-wide operations
/// (Resize/FlushAll/GetStats) take every shard latch in index order and
/// call nothing while holding them.
///
/// The observability layer (obs/metrics.h, obs/trace.h) sits below the
/// whole hierarchy: every metric cell mutex (counters and histograms keep
/// one per thread slot), every gauge mutex, the registry map mutex and the
/// tracer's event mutex are *leaves* — their methods never call out — so
/// counters may be bumped and spans opened from inside any engine-locked
/// region. The converse is the rule to keep: never call engine code while
/// holding an obs mutex (the exporters copy state out first for exactly
/// this reason).

namespace pathix {

/// \brief Annotated reader/writer mutex (wraps std::shared_mutex).
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;
#ifdef PATHIX_TSAN
  /// glibc's std::shared_mutex is statically initialized and its
  /// destructor is trivial, so TSan would never see this lock die: a later
  /// Mutex at the same address (say, a stack object of the next test)
  /// would inherit its lock-order edges and report inversions between
  /// objects that never coexisted.
  ~Mutex() { __tsan_mutex_destroy(&impl_, 0); }
#endif

  void Lock() ACQUIRE() { impl_.lock(); }
  void Unlock() RELEASE() { impl_.unlock(); }
  /// Attempts the exclusive lock without blocking; true when acquired.
  /// The one sanctioned non-RAII acquire: used by drift-check arbitration
  /// where losing the race means "another thread is already checking" and
  /// the right move is to skip, not wait.
  bool TryLock() TRY_ACQUIRE(true) { return impl_.try_lock(); }
  void ReaderLock() ACQUIRE_SHARED() { impl_.lock_shared(); }
  void ReaderUnlock() RELEASE_SHARED() { impl_.unlock_shared(); }

  /// Tells the analysis the current thread holds this mutex exclusively
  /// (for helpers reached only from locked scopes the analysis cannot
  /// follow, e.g. through a stored pointer). No runtime effect.
  void AssertHeld() const ASSERT_CAPABILITY(this) {}
  void AssertReaderHeld() const ASSERT_SHARED_CAPABILITY(this) {}

 private:
  std::shared_mutex impl_;
};

/// \brief RAII exclusive lock.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

/// \brief RAII shared (reader) lock.
class SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(Mutex* mu) ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_->ReaderLock();
  }
  ~ReaderMutexLock() RELEASE() { mu_->ReaderUnlock(); }

  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  Mutex* const mu_;
};

}  // namespace pathix
