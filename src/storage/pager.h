#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <new>
#include <string>
#include <string_view>
#include <utility>

#include "common/thread_slot.h"
#include "common/types.h"
#include "storage/buffer_pool.h"

/// \file pager.h
/// \brief Logical page manager with access counting and a real buffer pool.
///
/// The simulator's only cost metric is page accesses — exactly the paper's.
/// Structures own their content in memory; the Pager allocates page
/// identities and tallies reads/writes. A page is the unit of transfer; one
/// B+-tree node, one record-overflow chunk, or one object-store slot block
/// occupies one page.
///
/// Beyond the global counters, the pager keeps *scoped* tallies: a
/// ScopedAccessProbe tags the accesses of one stretch of work with a
/// PageOpKind and an optional label (the queried path id), so experiments
/// can decompose measured traffic per operation kind and per path without
/// instrumenting every call site. Excluded scopes (index builds) measure
/// their traffic through the same counting paths while keeping it out of
/// the main stats — the mechanism behind pager-accounted index builds.
///
/// The buffer pool (EnableBuffer) is a real fixed-capacity pool
/// (storage/buffer_pool.h): frames, CLOCK eviction, pins, dirty-page
/// write-back. Capacity 0 — the default — is the cost model's cold
/// assumption: every touch is charged. With capacity N, a read of a
/// resident page counts as a buffer hit instead of a read, a re-read after
/// eviction is charged again (eviction is observable), writes mark frames
/// dirty and are charged as write-backs when the dirty frame is evicted or
/// flushed, and PinRead/PinWrite return a PageGuard that keeps the frame
/// in the pool for the guard's lifetime. Anonymous bulk reads (record
/// overflow chains) and bulk writes bypass the pool.
///
/// Thread safety: the counters — the main stats, the per-kind and the
/// per-label tallies — live in per-thread cells (common/thread_slot.h),
/// each behind its own leaf mutex, so concurrent Note*/stats()/Allocate()
/// calls are safe and a writer locks only its own thread's cell. Scoped
/// frames are *thread-local*: a ScopedAccessProbe pushes a frame onto its
/// own thread's frame stack, and Note* calls from that thread accumulate
/// into the frame without taking any lock. The frame folds its tally into
/// its thread's cell once, when it closes, so a framed operation takes one
/// uncontended cell lock however many pages it touches, and N serving
/// threads write no shared cache line for their accounting. Buffered
/// touches preserve that design. A hit takes no lock at all: it is a CAS
/// on the frame's state word found through the pool's hint table, counted
/// in the pool's per-thread hit cells, and a PageGuard releases its pin
/// with one CAS on the word it pinned (storage/buffer_pool.h has the word
/// layout, the hint validation and the freeze protocol Resize uses). Only
/// misses, evictions, resizes, flushes and pool stats take the pool's
/// *sharded* frame-table latches (leaves, like the cells; the two are
/// never held together). Either way the charge is deferred to frame close
/// exactly like the unbuffered fast path. The readers (stats(), tally(),
/// label_tallies()) lock every cell in index order and sum them, so each
/// returns one consistent instant. Counting frames still must not nest per
/// thread (see ScopedAccessProbe); frames of different threads are
/// independent.

namespace pathix {

namespace obs {
class MetricsRegistry;
}  // namespace obs

/// Counters of page traffic since the last Reset().
struct AccessStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t buffer_hits = 0;  ///< reads absorbed by the buffer pool

  std::uint64_t total() const { return reads + writes; }
  /// Charged pages plus buffer hits. Its reads are exactly the cold
  /// model's: every read touch is one charged read or one hit, whatever
  /// the capacity. Its writes are not: a write the pool absorbs into a
  /// dirty frame is counted nowhere (only write-throughs and write-backs
  /// are), so with the pool on this is below what total() would have been
  /// with no pool wherever writes were absorbed. The index-selection layer
  /// prices naive scans, which only read, with it, so its decisions don't
  /// depend on the buffer capacity it happens to be serving through.
  std::uint64_t logical_total() const { return reads + writes + buffer_hits; }

  AccessStats& operator+=(const AccessStats& o) {
    reads += o.reads;
    writes += o.writes;
    buffer_hits += o.buffer_hits;
    return *this;
  }
  /// Per-field *saturating* difference: a counter that would go negative
  /// clamps to zero instead of wrapping. Deltas are normally taken between
  /// snapshots of one monotonically-growing counter set, where the result
  /// is exact; clamping makes the operator total so that comparing tallies
  /// from different frames (where one side may lack a kind) stays sane.
  AccessStats operator-(const AccessStats& o) const {
    auto sat = [](std::uint64_t a, std::uint64_t b) {
      return a >= b ? a - b : 0;
    };
    return AccessStats{sat(reads, o.reads), sat(writes, o.writes),
                       sat(buffer_hits, o.buffer_hits)};
  }
  bool operator==(const AccessStats& o) const {
    return reads == o.reads && writes == o.writes &&
           buffer_hits == o.buffer_hits;
  }
  bool operator!=(const AccessStats& o) const { return !(*this == o); }
};

/// Kind of database activity a scoped accounting frame belongs to.
enum class PageOpKind {
  kQuery = 0,   ///< path query evaluation (indexed or naive)
  kInsert = 1,  ///< object insertion (store write + index maintenance)
  kDelete = 2,  ///< object deletion (store + index maintenance)
  kBuild = 3,   ///< index construction (excluded from the main stats)
  kOther = 4,
};
inline constexpr std::size_t kPageOpKindCount = 5;

const char* ToString(PageOpKind kind);

class Pager;

/// One open ScopedAccessProbe, linked into the owning thread's frame
/// stack. Thread-private: Note* reaches a frame only through the calling
/// thread's own stack, so only the owning thread ever touches the
/// counters and accumulation needs no lock.
struct AccessFrame {
  Pager* pager = nullptr;
  bool exclude = false;
  AccessStats local;     ///< everything this frame observed
  AccessStats deferred;  ///< observed but not yet folded into the globals
  AccessFrame* prev = nullptr;      ///< next outer frame (any pager)
  AccessFrame* redirect = nullptr;  ///< enclosing excluded frame, same pager
};

namespace internal {
/// Top of the calling thread's open-frame stack.
inline thread_local AccessFrame* tls_frame_top = nullptr;

/// The innermost open frame of \p pager on the calling thread, if any.
inline AccessFrame* FrameFor(const Pager* pager) {
  for (AccessFrame* f = tls_frame_top; f != nullptr; f = f->prev) {
    if (f->pager == pager) return f;
  }
  return nullptr;
}
}  // namespace internal

/// \brief RAII pin on one buffer-pool frame.
///
/// Returned by Pager::PinRead / Pager::PinWrite. While a guard is live the
/// pinned page cannot be evicted — CLOCK skips pinned frames — so a
/// multi-touch operation (a B-tree descent, an object-slot access) keeps
/// its working set resident for the operation's duration. Guards are
/// move-only and unpin on destruction. When the pool is off (capacity 0),
/// the page was not admitted (all frames pinned), or the touch landed in
/// an excluded scope, the guard is empty (pinned() == false) and
/// destruction is a no-op — pin/unpin has zero cost in the cold default.
///
/// A guard carries the frame word it pinned (buffer_pool.h), so its
/// release is one CAS on that word. It takes a shard latch only when a
/// resize has frozen or moved the word, or while a shrink leaves the pool
/// holding pinned frames above capacity.
class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(PageGuard&& o) noexcept
      : pager_(o.pager_), page_(o.page_), frame_(o.frame_) {
    o.pager_ = nullptr;
  }
  PageGuard& operator=(PageGuard&& o) noexcept {
    if (this != &o) {
      Release();
      pager_ = o.pager_;
      page_ = o.page_;
      frame_ = o.frame_;
      o.pager_ = nullptr;
    }
    return *this;
  }
  ~PageGuard() { Release(); }

  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;

  bool pinned() const { return pager_ != nullptr; }
  PageId page() const { return page_; }

  /// Drops the pin early (idempotent).
  inline void Release();

 private:
  friend class Pager;
  PageGuard(Pager* pager, PageId page, FrameWord* frame)
      : pager_(pager), page_(page), frame_(frame) {}

  Pager* pager_ = nullptr;
  PageId page_ = kInvalidPage;
  FrameWord* frame_ = nullptr;  ///< the word the pin was taken on
};

/// \brief The pins one operation holds (e.g. a root-to-leaf descent path).
///
/// Guards live inline, so adding one never allocates; they are released in
/// the order they were added (root first for a descent) when the set dies.
/// A set holds kCapacity pins. That bounds a pinned descent at kCapacity
/// levels, far deeper than any tree of page-sized nodes grows; a guard
/// added to a full set is released at once, so its page stays charged but
/// is no longer held for the operation.
class PinSet {
 public:
  static constexpr std::size_t kCapacity = 32;

  PinSet() = default;
  ~PinSet() {
    for (std::size_t i = 0; i < size_; ++i) slots_[i].guard.~PageGuard();
  }
  PinSet(const PinSet&) = delete;
  PinSet& operator=(const PinSet&) = delete;

  /// Takes over \p guard's pin (an empty guard adds nothing).
  void Add(PageGuard guard) {
    if (!guard.pinned()) return;
    if (size_ == kCapacity) return;  // \p guard releases on return
    new (&slots_[size_].guard) PageGuard(std::move(guard));
    ++size_;
  }

  std::size_t size() const { return size_; }

 private:
  /// Storage a guard is constructed into only when added.
  union Slot {
    Slot() {}
    ~Slot() {}
    PageGuard guard;
  };

  Slot slots_[kCapacity];
  std::size_t size_ = 0;
};

/// \brief Allocates page ids, counts accesses, owns the buffer pool.
class Pager {
 public:
  explicit Pager(std::size_t page_size) : page_size_(page_size) {}

  std::size_t page_size() const { return page_size_; }

  /// Allocates a fresh page id (allocation itself is not counted; the
  /// first write to the page is).
  PageId Allocate() { return next_page_.fetch_add(1); }

  /// Sets the buffer pool capacity to \p capacity_pages (0 disables — the
  /// default, matching the cost model's cold assumption). Warm state is
  /// preserved: the same capacity is a no-op, growing keeps every resident
  /// frame, shrinking evicts from the cold end. Dirty frames that leave
  /// the pool (shrink, or disable's flush) are charged as page writes.
  void EnableBuffer(std::size_t capacity_pages);

  // Note*/Pin* route each page touch through Touch (below): to the calling
  // thread's innermost open frame when one exists — excluded scopes absorb
  // the touch (measured, not charged, buffer bypassed), counting scopes
  // accumulate it lock-free and defer the fold into the thread's cell to
  // frame close. With the buffer pool on, a single-page touch goes through
  // the pool first (latch-free on a hit, its sharded latches otherwise)
  // and the resulting charge (hit, read, or write-backs) is deferred the
  // same way — no cell is locked per touch on a framed path. Unframed
  // touches (the concurrent smoke tests, ad-hoc tooling) lock their
  // thread's cell directly, so the global stats stay exact without any
  // frame protocol.

  void NoteRead(PageId page) {
    Touch(page, PageIo::kRead, /*pin=*/false, 1);
  }
  void NoteWrite(PageId page) {
    Touch(page, PageIo::kWrite, /*pin=*/false, 1);
  }

  /// As NoteRead, additionally pinning the page's frame for the returned
  /// guard's lifetime (empty guard when nothing was admitted — pool off,
  /// excluded scope, or every frame pinned).
  PageGuard PinRead(PageId page) {
    return Touch(page, PageIo::kRead, /*pin=*/true, 1);
  }
  /// As NoteWrite, with the PinRead pin contract.
  PageGuard PinWrite(PageId page) {
    return Touch(page, PageIo::kWrite, /*pin=*/true, 1);
  }

  /// Convenience for counting n sequential page reads (scans / chains).
  /// Bulk traffic always bypasses the buffer pool.
  void NoteReads(std::uint64_t n) {
    Touch(kInvalidPage, PageIo::kRead, /*pin=*/false, n);
  }
  /// Convenience for counting n sequential page writes (bulk write-out).
  void NoteWrites(std::uint64_t n) {
    Touch(kInvalidPage, PageIo::kWrite, /*pin=*/false, n);
  }

  /// Snapshot of the global counters (consistent across the three fields).
  AccessStats stats() const;
  void ResetStats();

  // ------------------------------------------------------ scoped tallies

  /// Accesses folded in by ScopedAccessProbe frames of \p kind (excluded
  /// kBuild frames included — they are measured, just not charged).
  AccessStats tally(PageOpKind kind) const;
  /// Accesses per probe label (the queried path id), for labeled frames.
  /// Deterministically ordered.
  std::map<std::string, AccessStats> label_tallies() const;
  void ResetTallies();

  /// Pages allocated so far (storage footprint proxy).
  std::uint64_t allocated_pages() const { return next_page_.load(); }

  /// The buffer pool, for capacity/residency introspection (tests, bench
  /// reporting). Its counters are monotone across EnableBuffer calls.
  const BufferPool& buffer_pool() const { return pool_; }

  /// Mirrors the pager's counters into \p registry (obs/metrics.h):
  /// pathix_pager_io_total{io}, pathix_pager_pages_total{op,io},
  /// pathix_pager_path_pages_total{path,io} (io = read|write|hit),
  /// pathix_pager_buffer_hits_total, the pool's
  /// pathix_pager_buffer_{evictions,writebacks}_total and the
  /// pathix_pager_allocated_pages gauge. Counters are mirrored (MirrorTo)
  /// from the pager's own monotone tallies, so repeated exports converge
  /// to the same values. The pager's cells and the metric mutexes are both
  /// leaves: the tallies are copied out before any metric is touched.
  void ExportMetrics(obs::MetricsRegistry* registry) const;

 private:
  friend class ScopedAccessProbe;
  friend class PageGuard;

  enum class PageIo { kRead, kWrite };

  /// The one routing routine behind the six Note*/Pin* entry points: a
  /// single-page touch (\p page valid, \p n == 1) outside any excluded
  /// scope goes through the pool when it is on; everything else — excluded
  /// scopes, the cold default, and anonymous bulk touches of \p n pages
  /// (\p page == kInvalidPage), which always bypass the pool — is booked
  /// directly. Returns a pinned guard only for an admitted \p pin touch.
  /// Small enough to inline into every entry point: the pool and the
  /// unframed lock live out of line.
  PageGuard Touch(PageId page, PageIo io, bool pin, std::uint64_t n) {
    const bool pooled =
        page != kInvalidPage && buffered_.load(std::memory_order_relaxed);
    AccessFrame* f = internal::FrameFor(this);
    if (pooled && (f == nullptr || !(f->exclude || f->redirect != nullptr))) {
      return BufferedTouch(page, io, pin, f);
    }
    AccessStats d;
    (io == PageIo::kRead ? d.reads : d.writes) = n;
    Book(f, d);
    return PageGuard();
  }

  /// Books the charge \p d where the calling thread's accounting lands,
  /// given its innermost open frame \p f of this pager (nullptr when
  /// none): the enclosing excluded frame (measured, not charged), the open
  /// counting frame (deferred to its close), or the global stats.
  void Book(AccessFrame* f, AccessStats d) {
    if (f == nullptr) {
      BookUnframed(d);
      return;
    }
    if (AccessFrame* sink = f->exclude ? f : f->redirect) {
      sink->local += d;
      return;
    }
    f->local += d;
    f->deferred += d;
  }

  /// Book's unframed case: the global stats, in the calling thread's
  /// cell.
  void BookUnframed(AccessStats d);

  /// Buffered touch: routes \p page through the pool (latch-free on a hit,
  /// no cell lock on a framed path) and books the outcome (hit /
  /// read / write-backs) on frame \p f, or on the global stats when \p f
  /// is null. The guard is pinned when \p pin and the page was admitted.
  PageGuard BufferedTouch(PageId page, PageIo io, bool pin, AccessFrame* f);

  /// PageGuard's unpin hook (\p frame is the word the pin was taken on);
  /// charges any write-back the unpin triggered.
  void UnpinPage(PageId page, FrameWord* frame);

  /// Folds a closing frame into the calling thread's cell under that
  /// cell's lock: deferred counts into the main stats, the frame's full
  /// tally into the (kind, label) tallies.
  void CloseFrame(PageOpKind kind, std::string_view label,
                  const AccessFrame& frame);

  /// One thread slot's share of every counter; the readers sum the cells.
  struct Tally {
    AccessStats stats;
    std::array<AccessStats, kPageOpKindCount> kinds{};
    std::map<std::string, AccessStats, std::less<>> labels;
  };

  std::size_t page_size_;
  std::atomic<PageId> next_page_{0};
  ThreadCells<Tally> tallies_;

  /// Mirrors pool capacity > 0 so Note*/Pin* pick the lock-free cold path
  /// without taking any lock first.
  std::atomic<bool> buffered_{false};
  /// The pool synchronizes itself (latch-free hits and unpins; sharded
  /// latches, leaves like the tally cells, for the rest — the two are
  /// never held together).
  BufferPool pool_;
};

inline void PageGuard::Release() {
  if (pager_ != nullptr) {
    pager_->UnpinPage(page_, frame_);
    pager_ = nullptr;
  }
}

/// \brief RAII probe: captures the access delta over a scope.
class AccessProbe {
 public:
  explicit AccessProbe(const Pager& pager)
      : pager_(pager), start_(pager.stats()) {}

  AccessStats Delta() const { return pager_.stats() - start_; }

 private:
  const Pager& pager_;
  AccessStats start_;
};

/// \brief RAII scoped accounting frame: the accesses inside the scope are
/// tallied on the pager under (\p kind, \p label) when the frame closes.
///
/// With \p exclude set, the frame's accesses are redirected into the probe
/// (bypassing the buffer pool) instead of the pager's main stats: the
/// traffic is measured — Delta(), and the kBuild tally — but not charged to
/// whatever experiment is running. This is how index construction is routed
/// through the pager without becoming part of a replay's measured pages;
/// its price enters experiments through the transition accounting instead.
///
/// Frames are per-thread: each probe pushes an AccessFrame onto the calling
/// thread's stack and captures only that thread's traffic, accumulated
/// lock-free and folded into the pager's globals once at close. Frames may
/// nest per thread, but every frame folds its own delta into the tallies
/// when it closes — so the "kind tallies decompose stats()" invariant holds
/// only while *counting* frames do not nest on one thread (SimDatabase
/// opens exactly one per operation and closes it before observers run,
/// which guarantees this). Excluded frames nest freely (LIFO per thread):
/// a counting frame inside an excluded one observes no traffic, since its
/// thread's touches all land on the enclosing excluded frame by design.
/// Destruction must happen on the constructing thread (RAII makes this
/// automatic). The probe views \p label: the string must outlive it.
class ScopedAccessProbe {
 public:
  explicit ScopedAccessProbe(Pager* pager, PageOpKind kind,
                             std::string_view label = {},
                             bool exclude = false);
  ~ScopedAccessProbe();

  ScopedAccessProbe(const ScopedAccessProbe&) = delete;
  ScopedAccessProbe& operator=(const ScopedAccessProbe&) = delete;

  /// The accesses observed by this frame so far (this thread's traffic
  /// only; thread-private, so the read is race-free even mid-scope).
  AccessStats Delta() const { return frame_.local; }

 private:
  Pager* pager_;
  PageOpKind kind_;
  std::string_view label_;
  AccessFrame frame_;
};

}  // namespace pathix
