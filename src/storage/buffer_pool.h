#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/thread_slot.h"
#include "common/types.h"

/// \file buffer_pool.h
/// \brief Fixed-capacity buffer pool: frame table, pins, CLOCK eviction.
///
/// The pool is a passive page table — it knows which pages are resident,
/// which are pinned, and which are dirty, and reports per-touch outcomes so
/// its owner (the Pager) can do the access accounting. It performs no I/O
/// itself: "writing back" a dirty page is an accounting event surfaced
/// through TouchResult/Resize return values and the stats counters.
///
/// Replacement is CLOCK (second chance): every frame carries a reference
/// bit, set on admission and on every hit; the eviction hand sweeps the
/// frame array clearing reference bits and evicts the first unpinned frame
/// found clear. Pinned frames are skipped entirely — a page pinned through
/// a PageGuard (pager.h) cannot leave the pool until unpinned. If every
/// frame is pinned, the touch bypasses the pool (the caller charges a real
/// access), keeping the accounting exact instead of blocking.
///
/// Writes are write-back: a write touch marks the frame dirty and is
/// otherwise free; the deferred cost surfaces as one write-back when the
/// dirty frame is evicted or flushed. A write touch that cannot be admitted
/// (zero capacity, or all frames pinned) is charged through immediately.
///
/// Frame words. A frame's whole state is one FrameWord: the resident page
/// id in the high 32 bits (kInvalidPage when the frame is free), then a
/// frozen bit, the dirty bit and the CLOCK reference bit, an 8-bit resize
/// generation, and a 21-bit pin count in the low bits. The words live in
/// one table laid out shard by shard, beside a direct-mapped hint table
/// (slot page & mask, at least twice the frame count) naming the frame
/// each page was last admitted to.
///
/// Hits take no latch. A touch reads the page's hint, checks that the
/// frame word still holds the page and is not frozen, and sets ref (and
/// dirty) and adds its pin with one CAS; when the word already says all
/// that, the hit stores nothing. An empty, stale or colliding hint only
/// sends the touch to the latched path: the word names its page, so a
/// hint can never produce a wrong hit. A pinned touch hands its frame word
/// to the caller, and Unpin with that word drops the pin with one CAS.
/// Hits are counted in per-thread cells (common/thread_slot.h).
///
/// Misses, the CLOCK sweep, Resize, FlushAll and GetStats run under the
/// shard latches in the victim order described above. They still change
/// words by atomic read-modify-write, since latch-free hits and unpins race
/// with them: the sweep clears a reference bit and claims a victim by CAS,
/// so a racing hit or pin wins and the frame stays.
///
/// Resize freezes every frame word (sets the frozen bit) before it reads
/// one. A latch-free touch or unpin that meets a frozen word, or loses its
/// CAS to the freeze, falls back to the latched path, which waits for the
/// resize and then finds the page wherever the rebuild put it. Resize
/// stamps every word it republishes with a new generation, so a CAS
/// prepared on a word from before it fails even when the frame comes back
/// unchanged. While a shrink leaves some shard holding pinned frames above
/// its capacity, every unpin takes the latch, so the last unpin of such a
/// frame retires it. Resize rewrites the words in place when the new
/// layout fits the table and otherwise builds a table at least twice as
/// large; a replaced table is kept, its words frozen, until the pool is
/// destroyed, because guards may still point into it. Tables only double,
/// so frame storage stays within a small multiple of the largest capacity
/// ever set, however many resizes run.
///
/// Thread safety: the frame table is sharded by page id. Small pools
/// (< 2 * kShardingThreshold pages) run a single shard so tiny-capacity
/// eviction sequences stay deterministic; larger pools stripe pages across
/// up to kMaxShards shards, each behind its own Mutex. Shard mutexes are
/// leaves of the lock hierarchy (common/mutex.h): no pool method calls out
/// while holding one. Resize()/FlushAll()/GetStats() take every shard
/// mutex (in index order) to act on a consistent snapshot; GetStats' hit
/// counts are summed from the per-thread cells, so while hits run they
/// are a value between the counts before and after the call.
namespace pathix {

/// One frame's state word (layout in the file comment).
using FrameWord = std::atomic<std::uint64_t>;

/// Outcome of one page touch against the pool.
struct BufferTouchResult {
  bool hit = false;       ///< the page was resident before the touch
  bool admitted = false;  ///< the page is resident after the touch
  /// Dirty frames evicted by this touch to make room; the caller owes one
  /// page write per write-back.
  std::uint32_t writebacks = 0;
  /// For a pin touch that was admitted: the frame word holding the pin.
  /// Pass it back to Unpin so the release can skip the latch.
  FrameWord* frame = nullptr;
};

/// Monotone counters of everything the pool did since construction.
struct BufferPoolStats {
  std::uint64_t read_hits = 0;
  std::uint64_t read_misses = 0;
  std::uint64_t write_hits = 0;
  std::uint64_t write_misses = 0;
  std::uint64_t evictions = 0;     ///< frames evicted (clean or dirty)
  std::uint64_t writebacks = 0;    ///< dirty frames evicted or flushed
  std::uint64_t pin_bypasses = 0;  ///< touches that found every frame pinned

  BufferPoolStats& operator+=(const BufferPoolStats& o) {
    read_hits += o.read_hits;
    read_misses += o.read_misses;
    write_hits += o.write_hits;
    write_misses += o.write_misses;
    evictions += o.evictions;
    writebacks += o.writebacks;
    pin_bypasses += o.pin_bypasses;
    return *this;
  }
};

/// \brief The pool.
class BufferPool {
 public:
  BufferPool() = default;
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Read touch of a valid page id. A hit sets the reference bit; a miss
  /// admits the page (evicting if full). With \p pin the frame's pin count
  /// is raised when the page is resident after the touch (admitted ==
  /// true) — balance with Unpin().
  BufferTouchResult TouchRead(PageId page, bool pin) {
    return Touch(page, /*write=*/false, pin);
  }

  /// Write touch (write-back): marks the frame dirty; misses admit. Same
  /// pin contract as TouchRead. When admitted is false the caller must
  /// charge the write through immediately.
  BufferTouchResult TouchWrite(PageId page, bool pin) {
    return Touch(page, /*write=*/true, pin);
  }

  /// Drops one pin from \p page's frame. Given the word the pin was taken
  /// on (BufferTouchResult::frame), the release is one CAS while that word
  /// still holds the page unfrozen and no shard is above its capacity;
  /// otherwise it takes the shard latch. A frame only the pin was keeping
  /// above capacity (a shrink raced an outstanding PageGuard) is evicted on
  /// its last unpin; as everywhere, the returned write-back count is owed
  /// one page write each by the caller. No-op if the page is not resident.
  std::uint64_t Unpin(PageId page, FrameWord* frame = nullptr);

  /// Sets the pool capacity, preserving warm state: the same capacity is a
  /// no-op, growing keeps every resident frame, shrinking evicts from the
  /// cold end (CLOCK victim order) until the new capacity fits — skipping
  /// pinned frames, which are kept even above capacity and absorbed as
  /// they unpin. Returns the number of dirty pages written back; the
  /// caller owes one page write each.
  std::uint64_t Resize(std::size_t capacity_pages);

  /// Writes back every dirty frame (frames stay resident, now clean).
  /// Returns the number of write-backs; the caller owes one write each.
  std::uint64_t FlushAll();

  std::size_t capacity() const {
    return capacity_.load(std::memory_order_relaxed);
  }

  /// Aggregated counters across all shards and hit cells.
  BufferPoolStats GetStats() const;

  /// Number of resident frames (diagnostics; takes every shard mutex).
  std::size_t ResidentPages() const;

  /// True when \p page is resident (test hook).
  bool Resident(PageId page) const;

  /// True when \p page is resident and dirty (test hook).
  bool Dirty(PageId page) const;

  /// Frame words allocated across every table the pool has built, the
  /// replaced ones included (test hook for the memory bound).
  std::size_t AllocatedFrames() const;

 private:
  /// Above this many pages per shard the pool stripes across more shards.
  static constexpr std::size_t kShardingThreshold = 64;
  static constexpr std::size_t kMaxShards = 8;

  /// The frame words of every shard (shard i owns the words from its base
  /// on) and the hint table over them. Immutable in shape; replaced only
  /// by a Resize that needs more frames.
  struct FrameTable {
    explicit FrameTable(std::size_t frames);
    const std::size_t frame_count;
    const std::size_t hint_mask;  ///< hint slots - 1 (a power of two)
    const std::unique_ptr<FrameWord[]> words;
    const std::unique_ptr<std::atomic<std::uint32_t>[]> hints;
  };

  struct Shard {
    mutable Mutex mu;
    /// Resident page -> slot; the shard's slot i is word base + i.
    std::unordered_map<PageId, std::size_t> slots GUARDED_BY(mu);
    std::vector<std::size_t> free_slots GUARDED_BY(mu);
    std::size_t base GUARDED_BY(mu) = 0;
    std::size_t used GUARDED_BY(mu) = 0;      ///< slots handed out so far
    std::size_t reserved GUARDED_BY(mu) = 0;  ///< words the shard owns
    std::size_t hand GUARDED_BY(mu) = 0;
    std::size_t capacity GUARDED_BY(mu) = 0;
    bool over GUARDED_BY(mu) = false;  ///< more resident frames than capacity
    /// Everything but the hits, which go to the pool's hit cells.
    BufferPoolStats stats GUARDED_BY(mu);
  };

  /// Power-of-two shard count for \p capacity (1 for small pools).
  static std::size_t ShardCountFor(std::size_t capacity);
  static std::size_t ShardIndex(PageId page, std::size_t shard_count) {
    return static_cast<std::size_t>(page) & (shard_count - 1);
  }

  /// The hit fast path, then the page's shard under its latch.
  BufferTouchResult Touch(PageId page, bool write, bool pin);
  /// Counts a hit that TryHit recorded on \p word.
  BufferTouchResult Hit(FrameWord& word, bool write, bool pin);
  BufferTouchResult TouchLocked(Shard& s, PageId page, bool write, bool pin)
      REQUIRES(s.mu);
  /// Evicts one unpinned frame in CLOCK order; false if all are pinned.
  /// \p wrote_back reports whether the victim was dirty.
  bool EvictOne(Shard& s, bool* wrote_back) REQUIRES(s.mu);
  /// Frees slot \p slot of \p s after its word was cleared from \p word:
  /// counts the eviction (and write-back), updates the shard's overflow.
  void Retire(Shard& s, std::size_t slot, std::uint64_t word) REQUIRES(s.mu);
  FrameWord& WordAt(const Shard& s, std::size_t slot) const REQUIRES(s.mu) {
    return live_.load(std::memory_order_relaxed)->words[s.base + slot];
  }

  /// The shard currently responsible for \p page, locked. Loops to absorb
  /// a concurrent Resize changing the shard count: holding any shard mutex
  /// blocks Resize from completing, so once the count is re-validated
  /// under the lock it cannot change until release.
  class LockedShard;
  void LockAllShards() const NO_THREAD_SAFETY_ANALYSIS;
  void UnlockAllShards() const NO_THREAD_SAFETY_ANALYSIS;

  /// Total capacity (0 = pool off). Relaxed mirror for capacity(); the
  /// authoritative per-shard splits live behind the shard mutexes.
  std::atomic<std::size_t> capacity_{0};
  /// Current shard fan-out; changes only inside Resize with every shard
  /// mutex held.
  std::atomic<std::size_t> shard_count_{1};
  mutable std::array<Shard, kMaxShards> shards_;
  /// Shards whose `over` is set; a latch-free unpin runs only at zero.
  std::atomic<std::size_t> over_shards_{0};
  /// The table hits read; null until the first Resize. Replaced only in
  /// Resize with every shard mutex held, which is also what guards
  /// `tables_` (every table ever built, the live one last).
  std::atomic<FrameTable*> live_{nullptr};
  std::vector<std::unique_ptr<FrameTable>> tables_;
  /// Resize count, stamped (mod 256) into the words it publishes; written
  /// with every shard mutex held, read under any one.
  std::uint64_t generation_ = 0;
  /// Read and write hit counts.
  ThreadCounters<2> hits_;
};

}  // namespace pathix
