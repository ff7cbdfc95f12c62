// BufferPool unit tests: CLOCK (second-chance) eviction order, pins
// blocking eviction, dirty write-back accounting, and capacity resizes
// that preserve warm state. Small capacities keep the pool single-shard,
// so every eviction sequence here is deterministic.

#include <gtest/gtest.h>

#include "storage/buffer_pool.h"

namespace pathix {
namespace {

// A read touch without pinning; returns the result.
BufferTouchResult Read(BufferPool& pool, PageId page) {
  return pool.TouchRead(page, /*pin=*/false);
}

BufferTouchResult Write(BufferPool& pool, PageId page) {
  return pool.TouchWrite(page, /*pin=*/false);
}

TEST(BufferPoolTest, MissAdmitsAndHitFollows) {
  BufferPool pool;
  EXPECT_EQ(pool.Resize(3), 0u);
  EXPECT_FALSE(Read(pool, 1).hit);
  EXPECT_TRUE(Read(pool, 1).hit);
  EXPECT_TRUE(pool.Resident(1));
  EXPECT_FALSE(pool.Resident(2));
  const BufferPoolStats s = pool.GetStats();
  EXPECT_EQ(s.read_hits, 1u);
  EXPECT_EQ(s.read_misses, 1u);
}

TEST(BufferPoolTest, ClockEvictsInSweepOrderWhenAllReferenced) {
  BufferPool pool;
  pool.Resize(2);
  Read(pool, 1);
  Read(pool, 2);
  // Both frames carry the reference bit; the sweep clears 1 then 2, wraps,
  // and evicts 1 — CLOCK's FIFO degeneration, not LRU (LRU would evict 2
  // if 1 were re-touched; CLOCK gives the re-touch only a second chance).
  Read(pool, 1);  // hit: ref bit already set, changes nothing
  EXPECT_FALSE(Read(pool, 3).hit);
  EXPECT_FALSE(pool.Resident(1));
  EXPECT_TRUE(pool.Resident(2));
  EXPECT_TRUE(pool.Resident(3));
  EXPECT_EQ(pool.GetStats().evictions, 1u);
}

TEST(BufferPoolTest, SecondChanceSavesARecentlyTouchedFrame) {
  BufferPool pool;
  pool.Resize(3);
  Read(pool, 1);
  Read(pool, 2);
  Read(pool, 3);
  // Admit 4: the sweep clears every reference bit and evicts 1 (oldest in
  // sweep order). Hand now sits past slot 0.
  Read(pool, 4);
  EXPECT_FALSE(pool.Resident(1));
  // Re-touch 2: sets its reference bit again.
  EXPECT_TRUE(Read(pool, 2).hit);
  // Admit 5: the hand reaches 2 first, but the fresh reference bit grants
  // it a second chance; 3 (bit still clear) is evicted instead.
  Read(pool, 5);
  EXPECT_TRUE(pool.Resident(2));
  EXPECT_FALSE(pool.Resident(3));
  EXPECT_TRUE(pool.Resident(4));
  EXPECT_TRUE(pool.Resident(5));
}

TEST(BufferPoolTest, PinnedFramesAreNeverEvicted) {
  BufferPool pool;
  pool.Resize(2);
  ASSERT_TRUE(pool.TouchRead(1, /*pin=*/true).admitted);
  Read(pool, 2);
  // Evictions must skip the pinned frame however often the hand passes it.
  Read(pool, 3);
  Read(pool, 4);
  Read(pool, 5);
  EXPECT_TRUE(pool.Resident(1));
  EXPECT_EQ(pool.GetStats().evictions, 3u);  // 2, 3, 4 cycled through
  // Once unpinned the frame is an ordinary eviction candidate again.
  EXPECT_EQ(pool.Unpin(1), 0u);
  Read(pool, 6);
  Read(pool, 7);
  EXPECT_FALSE(pool.Resident(1));
}

TEST(BufferPoolTest, AllFramesPinnedBypassesInsteadOfBlocking) {
  BufferPool pool;
  pool.Resize(2);
  ASSERT_TRUE(pool.TouchRead(1, /*pin=*/true).admitted);
  ASSERT_TRUE(pool.TouchRead(2, /*pin=*/true).admitted);
  const BufferTouchResult r = Read(pool, 3);
  EXPECT_FALSE(r.hit);
  EXPECT_FALSE(r.admitted);  // caller charges a real read; pool unchanged
  EXPECT_FALSE(pool.Resident(3));
  EXPECT_EQ(pool.GetStats().pin_bypasses, 1u);
  pool.Unpin(1);
  pool.Unpin(2);
}

TEST(BufferPoolTest, WritesAreWriteBack) {
  BufferPool pool;
  pool.Resize(2);
  const BufferTouchResult w = Write(pool, 1);
  EXPECT_TRUE(w.admitted);
  EXPECT_EQ(w.writebacks, 0u);  // dirtied, not written through
  EXPECT_TRUE(pool.Dirty(1));
  // A read of the dirty frame is an ordinary hit.
  EXPECT_TRUE(Read(pool, 1).hit);
  // Evicting the dirty frame surfaces the deferred write.
  Read(pool, 2);
  BufferTouchResult evicting = Read(pool, 3);  // sweeps, evicts 1
  EXPECT_EQ(evicting.writebacks, 1u);
  const BufferPoolStats s = pool.GetStats();
  EXPECT_EQ(s.writebacks, 1u);
  EXPECT_EQ(s.evictions, 1u);
}

TEST(BufferPoolTest, CleanEvictionCostsNoWriteback) {
  BufferPool pool;
  pool.Resize(1);
  Read(pool, 1);
  EXPECT_EQ(Read(pool, 2).writebacks, 0u);
  EXPECT_EQ(pool.GetStats().writebacks, 0u);
  EXPECT_EQ(pool.GetStats().evictions, 1u);
}

TEST(BufferPoolTest, FlushAllCleansButKeepsFramesResident) {
  BufferPool pool;
  pool.Resize(4);
  Write(pool, 1);
  Write(pool, 2);
  Read(pool, 3);
  EXPECT_EQ(pool.FlushAll(), 2u);
  EXPECT_TRUE(pool.Resident(1));
  EXPECT_FALSE(pool.Dirty(1));
  EXPECT_EQ(pool.FlushAll(), 0u);  // already clean
  EXPECT_EQ(pool.GetStats().writebacks, 2u);
}

TEST(BufferPoolTest, SameCapacityResizeIsANoOp) {
  BufferPool pool;
  pool.Resize(3);
  Read(pool, 1);
  Write(pool, 2);
  EXPECT_EQ(pool.Resize(3), 0u);
  EXPECT_TRUE(pool.Resident(1));
  EXPECT_TRUE(pool.Resident(2));
  EXPECT_TRUE(pool.Dirty(2));  // warm *and* dirty state untouched
  EXPECT_EQ(pool.GetStats().evictions, 0u);
}

TEST(BufferPoolTest, GrowKeepsEveryResidentFrame) {
  BufferPool pool;
  pool.Resize(2);
  Read(pool, 1);
  Write(pool, 2);
  EXPECT_EQ(pool.Resize(8), 0u);
  EXPECT_TRUE(pool.Resident(1));
  EXPECT_TRUE(pool.Resident(2));
  EXPECT_TRUE(pool.Dirty(2));
  // And the extra room is usable without evicting the old frames.
  Read(pool, 3);
  Read(pool, 4);
  EXPECT_TRUE(pool.Resident(1));
  EXPECT_EQ(pool.GetStats().evictions, 0u);
}

TEST(BufferPoolTest, ShrinkEvictsFromTheColdEnd) {
  BufferPool pool;
  pool.Resize(4);
  Read(pool, 1);
  Read(pool, 2);
  Read(pool, 3);
  Read(pool, 4);
  // No sweep has run, so victim order is admission order: 1 is coldest.
  EXPECT_EQ(pool.Resize(3), 0u);
  EXPECT_FALSE(pool.Resident(1));
  EXPECT_TRUE(pool.Resident(2));
  EXPECT_TRUE(pool.Resident(3));
  EXPECT_TRUE(pool.Resident(4));
}

TEST(BufferPoolTest, ShrinkPrefersReferenceClearFramesAsColder) {
  BufferPool pool;
  pool.Resize(3);
  Read(pool, 1);
  Read(pool, 2);
  Read(pool, 3);
  // Admit 4: sweep clears all bits, evicts 1; 4 admits with its bit set.
  Read(pool, 4);
  // 2 and 3 now have clear bits, 4 a set bit: shrinking to one frame must
  // keep 4 (the only warm frame).
  EXPECT_EQ(pool.Resize(1), 0u);
  EXPECT_TRUE(pool.Resident(4));
  EXPECT_FALSE(pool.Resident(2));
  EXPECT_FALSE(pool.Resident(3));
}

TEST(BufferPoolTest, ShrinkWritesBackDirtyVictims) {
  BufferPool pool;
  pool.Resize(3);
  Write(pool, 1);
  Write(pool, 2);
  Read(pool, 3);
  // Shrink to 1: victims are 1 and 2 (cold end), both dirty.
  EXPECT_EQ(pool.Resize(1), 2u);
  EXPECT_EQ(pool.GetStats().writebacks, 2u);
  EXPECT_TRUE(pool.Resident(3));
}

TEST(BufferPoolTest, DisableFlushesEverything) {
  BufferPool pool;
  pool.Resize(3);
  Write(pool, 1);
  Read(pool, 2);
  EXPECT_EQ(pool.Resize(0), 1u);  // one dirty page written back
  EXPECT_FALSE(pool.Resident(1));
  EXPECT_FALSE(pool.Resident(2));
  EXPECT_EQ(pool.ResidentPages(), 0u);
  // With the pool off every touch passes through.
  const BufferTouchResult r = Read(pool, 1);
  EXPECT_FALSE(r.hit);
  EXPECT_FALSE(r.admitted);
}

TEST(BufferPoolTest, ShrinkKeepsPinnedOverflowUntilUnpin) {
  BufferPool pool;
  pool.Resize(2);
  ASSERT_TRUE(pool.TouchWrite(1, /*pin=*/true).admitted);
  Read(pool, 2);
  // Shrink below the pinned frame: the unpinned frame goes, the pinned one
  // is kept above capacity.
  EXPECT_EQ(pool.Resize(0), 0u);
  EXPECT_TRUE(pool.Resident(1));
  EXPECT_FALSE(pool.Resident(2));
  // The last unpin retires the overflow frame — and owes its write-back.
  EXPECT_EQ(pool.Unpin(1), 1u);
  EXPECT_FALSE(pool.Resident(1));
  EXPECT_EQ(pool.ResidentPages(), 0u);
}

TEST(BufferPoolTest, ReenableAfterDisableStartsCold) {
  BufferPool pool;
  pool.Resize(2);
  Read(pool, 1);
  pool.Resize(0);
  pool.Resize(2);
  EXPECT_FALSE(Read(pool, 1).hit);  // cold again: the flush dropped it
}

TEST(BufferPoolTest, CollidingHintsBothHitAndCountOnce) {
  // 1 and 1 + 2^20 share a hint slot in any hint table under 2^20 slots:
  // the later admission takes the slot, so the earlier page's hits find a
  // hint naming the other page's frame and go through the latched path.
  BufferPool pool;
  pool.Resize(4);
  const PageId a = 1;
  const PageId b = 1 + (PageId{1} << 20);
  EXPECT_FALSE(Read(pool, a).hit);
  EXPECT_FALSE(Read(pool, b).hit);
  EXPECT_TRUE(Read(pool, a).hit);
  EXPECT_TRUE(Read(pool, b).hit);
  EXPECT_TRUE(Write(pool, a).hit);
  const BufferPoolStats s = pool.GetStats();
  EXPECT_EQ(s.read_hits, 2u);
  EXPECT_EQ(s.read_misses, 2u);
  EXPECT_EQ(s.write_hits, 1u);
  EXPECT_EQ(s.write_misses, 0u);
  EXPECT_TRUE(pool.Dirty(a));
  EXPECT_FALSE(pool.Dirty(b));
  // Pins taken through either path name their own frame and release.
  const BufferTouchResult pa = pool.TouchRead(a, /*pin=*/true);
  const BufferTouchResult pb = pool.TouchRead(b, /*pin=*/true);
  ASSERT_NE(pa.frame, nullptr);
  ASSERT_NE(pb.frame, nullptr);
  EXPECT_NE(pa.frame, pb.frame);
  EXPECT_EQ(pool.Unpin(a, pa.frame), 0u);
  EXPECT_EQ(pool.Unpin(b, pb.frame), 0u);
  // Both unpinned: four fresh pages push both out.
  for (PageId p = 10; p < 14; ++p) Read(pool, p);
  EXPECT_FALSE(pool.Resident(a));
  EXPECT_FALSE(pool.Resident(b));
  EXPECT_EQ(pool.GetStats().pin_bypasses, 0u);
}

TEST(BufferPoolTest, FrameStorageIsBoundedByTheLargestCapacity) {
  BufferPool pool;
  pool.Resize(2048);
  for (PageId p = 0; p < 2048; ++p) Read(pool, p);
  const std::size_t allocated = pool.AllocatedFrames();
  EXPECT_GE(allocated, 2048u);
  EXPECT_LE(allocated, std::size_t{4} * 2048);
  // Resizes below the largest capacity reuse the frame table.
  for (int i = 0; i < 200; ++i) {
    pool.Resize(i % 2 == 0 ? 8 : 2048);
    for (PageId p = 0; p < 64; ++p) Read(pool, p);
  }
  EXPECT_EQ(pool.AllocatedFrames(), allocated);
}

TEST(BufferPoolTest, LargePoolsShardButStillAccountExactly) {
  BufferPool pool;
  pool.Resize(512);  // sharded fan-out
  const int kPages = 1000;
  for (int p = 0; p < kPages; ++p) Read(pool, static_cast<PageId>(p));
  for (int p = 0; p < kPages; ++p) Read(pool, static_cast<PageId>(p));
  const BufferPoolStats s = pool.GetStats();
  EXPECT_EQ(s.read_hits + s.read_misses, 2u * kPages);
  EXPECT_EQ(pool.ResidentPages(), 512u);
  EXPECT_EQ(s.evictions, s.read_misses - 512u);  // every miss past capacity
  // Growing a sharded pool re-stripes without losing frames.
  const std::size_t resident_before = pool.ResidentPages();
  EXPECT_EQ(pool.Resize(1024), 0u);
  EXPECT_EQ(pool.ResidentPages(), resident_before);
}

}  // namespace
}  // namespace pathix
