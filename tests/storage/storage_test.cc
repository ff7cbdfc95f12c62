#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "storage/object_store.h"

namespace pathix {
namespace {

TEST(PagerTest, CountsReadsAndWrites) {
  Pager pager(4096);
  const PageId a = pager.Allocate();
  const PageId b = pager.Allocate();
  EXPECT_NE(a, b);
  pager.NoteRead(a);
  pager.NoteRead(b);
  pager.NoteWrite(a);
  EXPECT_EQ(pager.stats().reads, 2u);
  EXPECT_EQ(pager.stats().writes, 1u);
  EXPECT_EQ(pager.stats().total(), 3u);
  pager.ResetStats();
  EXPECT_EQ(pager.stats().total(), 0u);
}

TEST(PagerTest, ProbeCapturesDelta) {
  Pager pager(4096);
  pager.NoteReads(5);
  AccessProbe probe(pager);
  pager.NoteReads(3);
  pager.NoteWrite(0);
  EXPECT_EQ(probe.Delta().reads, 3u);
  EXPECT_EQ(probe.Delta().writes, 1u);
}

TEST(PagerBufferTest, RepeatedReadsHitTheBuffer) {
  Pager pager(4096);
  pager.EnableBuffer(4);
  pager.NoteRead(1);
  pager.NoteRead(1);
  pager.NoteRead(1);
  EXPECT_EQ(pager.stats().reads, 1u);
  EXPECT_EQ(pager.stats().buffer_hits, 2u);
}

TEST(PagerBufferTest, ClockEvictionChargesReEnteringPages) {
  Pager pager(4096);
  pager.EnableBuffer(2);
  pager.NoteRead(1);  // miss, admits {1}
  pager.NoteRead(2);  // miss, admits {1,2}
  pager.NoteRead(1);  // hit (reference bit set)
  // CLOCK sweep: both frames spend their second chance, 1 (first in sweep
  // order) is evicted — re-reading it later would be a real read again.
  pager.NoteRead(3);  // miss, evicts 1 -> {3,2}
  pager.NoteRead(2);  // hit: 2 survived the sweep
  EXPECT_EQ(pager.stats().reads, 3u);
  EXPECT_EQ(pager.stats().buffer_hits, 2u);
  EXPECT_FALSE(pager.buffer_pool().Resident(1));
  pager.NoteRead(1);  // the evicted page charges a real read
  EXPECT_EQ(pager.stats().reads, 4u);
}

TEST(PagerBufferTest, WritesAreWriteBackAndAdmit) {
  Pager pager(4096);
  pager.EnableBuffer(4);
  pager.NoteWrite(7);
  pager.NoteWrite(7);
  // Write-back: both writes are absorbed into the dirty frame.
  EXPECT_EQ(pager.stats().writes, 0u);
  EXPECT_TRUE(pager.buffer_pool().Dirty(7));
  pager.NoteRead(7);  // admitted by the writes
  EXPECT_EQ(pager.stats().reads, 0u);
  EXPECT_EQ(pager.stats().buffer_hits, 1u);
  // logical_total() is the cold model's view of the reads only: the hit
  // counts as the read it replaced, the two absorbed writes not at all.
  EXPECT_EQ(pager.stats().logical_total(), 1u);
  // Disabling flushes the pool: the dirty page surfaces as one real write,
  // however many times it was dirtied.
  pager.EnableBuffer(0);
  EXPECT_EQ(pager.stats().writes, 1u);
  EXPECT_EQ(pager.stats().logical_total(), 2u);
}

TEST(PagerBufferTest, GuardAcrossGrowUnpinsTheMovedFrame) {
  Pager pager(4096);
  pager.EnableBuffer(2);
  PageGuard guard = pager.PinRead(1);
  ASSERT_TRUE(guard.pinned());
  // Growing past the sharding threshold re-stripes every frame into a
  // larger frame table; the guard's word stays frozen in the old one.
  pager.EnableBuffer(1024);
  EXPECT_TRUE(pager.buffer_pool().Resident(1));
  EXPECT_EQ(pager.stats().buffer_hits, 0u);
  pager.NoteRead(1);  // the moved frame still hits
  EXPECT_EQ(pager.stats().buffer_hits, 1u);
  guard.Release();  // falls back to the latch and finds the moved frame
  // Unpinned, so disabling drops the frame instead of keeping it above
  // capacity for a pin that would never come back.
  pager.EnableBuffer(0);
  EXPECT_FALSE(pager.buffer_pool().Resident(1));
  EXPECT_EQ(pager.buffer_pool().ResidentPages(), 0u);
}

TEST(PagerBufferTest, GuardAcrossShrinkRetiresItsFrameOnRelease) {
  Pager pager(4096);
  pager.EnableBuffer(4);
  PageGuard guard = pager.PinWrite(1);  // pinned and dirty
  pager.NoteRead(2);
  // Shrink to one frame: 2 (unpinned, warmest) fits, 1 stays pinned above
  // capacity.
  pager.EnableBuffer(1);
  EXPECT_TRUE(pager.buffer_pool().Resident(1));
  EXPECT_TRUE(pager.buffer_pool().Resident(2));
  EXPECT_EQ(pager.stats().writes, 0u);
  // The release finds the pool over capacity, takes the latch, and retires
  // the frame; its write-back is charged as a page write.
  guard.Release();
  EXPECT_FALSE(pager.buffer_pool().Resident(1));
  EXPECT_TRUE(pager.buffer_pool().Resident(2));
  EXPECT_EQ(pager.stats().writes, 1u);
  EXPECT_EQ(pager.buffer_pool().GetStats().writebacks, 1u);
}

TEST(PagerBufferTest, PinSetReleasesInPushOrder) {
  Pager pager(4096);
  pager.EnableBuffer(4);
  {
    PinSet pins;
    pins.Add(pager.PinRead(1));
    pins.Add(pager.PinRead(2));
    pins.Add(pager.PinRead(3));
    pins.Add(PageGuard());  // empty guards add nothing
    EXPECT_EQ(pins.size(), 3u);
    // Shrink to one frame under three pins: all stay, above capacity.
    pager.EnableBuffer(1);
    EXPECT_EQ(pager.buffer_pool().ResidentPages(), 3u);
  }
  // Each release retires its frame while the pool is still over capacity:
  // released 1, 2, 3 in that order, only 3 remains.
  EXPECT_FALSE(pager.buffer_pool().Resident(1));
  EXPECT_FALSE(pager.buffer_pool().Resident(2));
  EXPECT_TRUE(pager.buffer_pool().Resident(3));
}

TEST(PagerBufferTest, FullPinSetReleasesTheExtraGuardAtOnce) {
  constexpr PageId kFull = static_cast<PageId>(PinSet::kCapacity);
  Pager pager(4096);
  pager.EnableBuffer(kFull + 1);
  PinSet pins;
  for (PageId p = 0; p <= kFull; ++p) pins.Add(pager.PinRead(p));
  EXPECT_EQ(pins.size(), PinSet::kCapacity);
  // Pages 0..kFull-1 stay pinned; page kFull's guard was released, so it
  // is the one frame a new admission can evict.
  pager.NoteRead(1000);
  EXPECT_FALSE(pager.buffer_pool().Resident(kFull));
  EXPECT_TRUE(pager.buffer_pool().Resident(1000));
  EXPECT_TRUE(pager.buffer_pool().Resident(0));
  EXPECT_EQ(pager.buffer_pool().GetStats().pin_bypasses, 0u);
}

TEST(PagerBufferTest, ResizePreservesWarmState) {
  Pager pager(4096);
  pager.EnableBuffer(4);
  pager.NoteRead(1);
  pager.NoteRead(2);
  // Re-enabling at the same capacity is a no-op: the warm frames survive.
  pager.EnableBuffer(4);
  pager.NoteRead(1);
  EXPECT_EQ(pager.stats().buffer_hits, 1u);
  // Growing keeps every resident frame.
  pager.EnableBuffer(8);
  pager.NoteRead(2);
  EXPECT_EQ(pager.stats().buffer_hits, 2u);
  // Shrinking evicts from the cold end: in CLOCK victim order (no sweep
  // has run) 1 and 2 sit in front of the hand, so they go first and the
  // youngest admissions survive.
  pager.NoteRead(3);
  pager.NoteRead(4);
  pager.EnableBuffer(2);
  EXPECT_FALSE(pager.buffer_pool().Resident(1));
  EXPECT_FALSE(pager.buffer_pool().Resident(2));
  EXPECT_TRUE(pager.buffer_pool().Resident(3));
  EXPECT_TRUE(pager.buffer_pool().Resident(4));
  EXPECT_EQ(pager.stats().reads, 4u);  // resizes charged nothing new
}

TEST(PagerBufferTest, DisablingRestoresColdCounting) {
  Pager pager(4096);
  pager.EnableBuffer(4);
  pager.NoteRead(1);
  pager.NoteRead(1);
  pager.EnableBuffer(0);
  pager.NoteRead(1);
  pager.NoteRead(1);
  EXPECT_EQ(pager.stats().reads, 3u);  // 1 cold + 2 after disable
}

TEST(PagerBufferTest, BulkReadsBypassTheBuffer) {
  Pager pager(4096);
  pager.EnableBuffer(4);
  pager.NoteReads(5);
  pager.NoteReads(5);
  EXPECT_EQ(pager.stats().reads, 10u);
  EXPECT_EQ(pager.stats().buffer_hits, 0u);
}

TEST(ScopedAccessProbeTest, FoldsKindAndLabelTallies) {
  Pager pager(4096);
  {
    ScopedAccessProbe probe(&pager, PageOpKind::kQuery, "people");
    pager.NoteReads(3);
    pager.NoteWrite(0);
    EXPECT_EQ(probe.Delta().reads, 3u);
  }
  {
    ScopedAccessProbe probe(&pager, PageOpKind::kInsert);
    pager.NoteWrite(1);
  }
  EXPECT_EQ(pager.tally(PageOpKind::kQuery).reads, 3u);
  EXPECT_EQ(pager.tally(PageOpKind::kQuery).writes, 1u);
  EXPECT_EQ(pager.tally(PageOpKind::kInsert).writes, 1u);
  ASSERT_EQ(pager.label_tallies().count("people"), 1u);
  EXPECT_EQ(pager.label_tallies().at("people").reads, 3u);
  // Main stats saw everything: the tallies decompose, they do not replace.
  EXPECT_EQ(pager.stats().reads, 3u);
  EXPECT_EQ(pager.stats().writes, 2u);
  pager.ResetTallies();
  EXPECT_EQ(pager.tally(PageOpKind::kQuery).total(), 0u);
  EXPECT_TRUE(pager.label_tallies().empty());
  EXPECT_EQ(pager.stats().reads, 3u);  // tallies reset, stats untouched
}

TEST(ScopedAccessProbeTest, ExcludedScopeMeasuresWithoutCharging) {
  Pager pager(4096);
  pager.NoteReads(2);
  {
    ScopedAccessProbe probe(&pager, PageOpKind::kBuild, {}, /*exclude=*/true);
    pager.NoteReads(7);
    pager.NoteWrites(5);
    pager.NoteRead(9);
    pager.NoteWrite(9);
    EXPECT_EQ(probe.Delta().reads, 8u);
    EXPECT_EQ(probe.Delta().writes, 6u);
  }
  // Main stats never moved; the kBuild tally holds the measurement.
  EXPECT_EQ(pager.stats().reads, 2u);
  EXPECT_EQ(pager.stats().writes, 0u);
  EXPECT_EQ(pager.tally(PageOpKind::kBuild).reads, 8u);
  EXPECT_EQ(pager.tally(PageOpKind::kBuild).writes, 6u);
}

TEST(ScopedAccessProbeTest, ExcludedScopeBypassesTheBuffer) {
  Pager pager(4096);
  pager.EnableBuffer(4);
  {
    ScopedAccessProbe probe(&pager, PageOpKind::kBuild, {}, /*exclude=*/true);
    pager.NoteRead(1);
    pager.NoteRead(1);
    EXPECT_EQ(probe.Delta().reads, 2u);  // no hits inside the exclusion
  }
  pager.NoteRead(1);  // page 1 was never admitted: still a cold miss
  EXPECT_EQ(pager.stats().reads, 1u);
  EXPECT_EQ(pager.stats().buffer_hits, 0u);
}

TEST(ScopedAccessProbeTest, ExcludedScopesNestLifo) {
  Pager pager(4096);
  ScopedAccessProbe outer(&pager, PageOpKind::kBuild, {}, /*exclude=*/true);
  pager.NoteReads(1);
  {
    ScopedAccessProbe inner(&pager, PageOpKind::kBuild, {}, /*exclude=*/true);
    pager.NoteReads(4);
    EXPECT_EQ(inner.Delta().reads, 4u);
  }
  pager.NoteReads(1);
  EXPECT_EQ(outer.Delta().reads, 2u);  // the inner frame kept its own counts
  EXPECT_EQ(pager.stats().reads, 0u);
}

TEST(AccessStatsTest, Operators) {
  AccessStats a{5, 3, 1};
  const AccessStats b{2, 1, 0};
  EXPECT_EQ(a - b, (AccessStats{3, 2, 1}));
  a += b;
  EXPECT_EQ(a, (AccessStats{7, 4, 1}));
  EXPECT_NE(a, b);
}

TEST(ValueTest, KindsAndEquality) {
  EXPECT_EQ(Value::Int(5), Value::Int(5));
  EXPECT_FALSE(Value::Int(5) == Value::Int(6));
  EXPECT_FALSE(Value::Int(5) == Value::Str("5"));
  EXPECT_EQ(Value::Ref(9).as_ref(), 9u);
  EXPECT_EQ(Value::Str("hi").as_string(), "hi");
}

TEST(ObjectTest, RefsFilterReferenceValues) {
  Object obj;
  obj.attrs["owns"] = {Value::Ref(3), Value::Ref(4)};
  obj.attrs["name"] = {Value::Str("rossi")};
  EXPECT_EQ(obj.refs("owns"), (std::vector<Oid>{3, 4}));
  EXPECT_TRUE(obj.refs("name").empty());
  EXPECT_TRUE(obj.values("missing").empty());
  EXPECT_GT(obj.bytes(), 20u);
}

class ObjectStoreTest : public ::testing::Test {
 protected:
  Pager pager_{256};  // tiny pages force multi-page segments
  ObjectStore store_{&pager_};

  Oid Put(ClassId cls, std::int64_t tag) {
    Object obj;
    obj.cls = cls;
    obj.attrs["tag"] = {Value::Int(tag)};
    return store_.Insert(std::move(obj));
  }
};

TEST_F(ObjectStoreTest, InsertAssignsDistinctOids) {
  const Oid a = Put(0, 1);
  const Oid b = Put(0, 2);
  EXPECT_NE(a, b);
  EXPECT_NE(a, kInvalidOid);
  EXPECT_EQ(store_.live_objects(), 2u);
}

TEST_F(ObjectStoreTest, PeekReturnsTheStoredObject) {
  const Oid a = Put(0, 1);
  ASSERT_NE(store_.Peek(a), nullptr);
  EXPECT_EQ(store_.Peek(a)->values("tag")[0].as_int(), 1);
  ASSERT_NE(store_.PeekRef(a), nullptr);
  EXPECT_EQ(store_.PeekRef(a).get(), store_.Peek(a));
  EXPECT_EQ(store_.Peek(a + 1), nullptr);
}

TEST_F(ObjectStoreTest, PagesHoldOnlyOneClass) {
  const Oid a = Put(0, 1);
  const Oid b = Put(1, 2);
  EXPECT_NE(store_.PageOf(a), store_.PageOf(b));
}

TEST_F(ObjectStoreTest, SegmentGrowsByPage) {
  // ~30 bytes per object, 256-byte pages -> several objects per page.
  for (int i = 0; i < 50; ++i) Put(0, i);
  EXPECT_GT(store_.SegmentPages(0), 3u);
  EXPECT_EQ(store_.PeekAll(0).size(), 50u);
}

TEST_F(ObjectStoreTest, PlacedPagesCoverTheSegment) {
  for (int i = 0; i < 50; ++i) Put(0, i);
  std::set<PageId> pages;
  for (const PlacedObject& p : store_.PeekAllPlaced(0)) pages.insert(p.page);
  EXPECT_EQ(pages.size(), store_.SegmentPages(0));
}

TEST_F(ObjectStoreTest, DeleteRemovesAndCounts) {
  const Oid a = Put(0, 1);
  pager_.ResetStats();
  ASSERT_TRUE(store_.Delete(a).ok());
  EXPECT_EQ(pager_.stats().reads, 1u);
  EXPECT_EQ(pager_.stats().writes, 1u);
  EXPECT_EQ(store_.Peek(a), nullptr);
  EXPECT_FALSE(store_.Delete(a).ok());  // double delete
  EXPECT_TRUE(store_.PeekAll(0).empty());
}

TEST_F(ObjectStoreTest, PeekIsUncounted) {
  const Oid a = Put(0, 1);
  pager_.ResetStats();
  ASSERT_NE(store_.Peek(a), nullptr);
  EXPECT_EQ(pager_.stats().total(), 0u);
}

TEST_F(ObjectStoreTest, PeekAllPlacedListsPeekAllsObjectsInItsOrder) {
  std::vector<Oid> oids;
  for (int i = 0; i < 50; ++i) oids.push_back(Put(0, i));
  Put(1, 99);
  for (std::size_t i = 0; i < oids.size(); i += 3) {
    ASSERT_TRUE(store_.Delete(oids[i]).ok());
  }
  for (int i = 0; i < 10; ++i) Put(0, 100 + i);
  pager_.ResetStats();

  const std::vector<Oid> want = store_.PeekAll(0);
  const std::vector<PlacedObject> got = store_.PeekAllPlaced(0);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].obj->oid, want[i]) << i;
    EXPECT_EQ(got[i].obj.get(), store_.Peek(want[i])) << i;
    EXPECT_EQ(got[i].page, store_.PageOf(want[i])) << i;
  }
  EXPECT_TRUE(store_.PeekAllPlaced(7).empty());  // a class never stored

  EXPECT_TRUE(store_.Contains(oids[1]));
  EXPECT_FALSE(store_.Contains(oids[0]));  // deleted
  EXPECT_FALSE(store_.Contains(kInvalidOid));
  EXPECT_EQ(pager_.stats().total(), 0u);
}

}  // namespace
}  // namespace pathix
