// The buffer pool is a pure accounting device: enabling it must never
// change query results or index contents, only the counted page traffic.

#include <gtest/gtest.h>

#include "datagen/generator.h"
#include "datagen/paper_schema.h"
#include "exec/database.h"

namespace pathix {
namespace {

constexpr char kPeople[] = "people";

TEST(BufferEquivalenceTest, ResultsIdenticalWithAndWithoutBuffer) {
  const PaperSetup setup = MakeExample51Setup();
  SimDatabase db(setup.schema, PhysicalParams{});
  CheckOk(db.RegisterPath(kPeople, setup.path));
  PathDataGenerator gen(321);
  gen.Populate(&db, setup.path,
               {
                   {setup.division, 30, 15, 1.0},
                   {setup.company, 30, 0, 2.0},
                   {setup.vehicle, 60, 0, 1.5},
                   {setup.bus, 30, 0, 1.0},
                   {setup.person, 400, 0, 1.5},
               });
  CheckOk(db.ConfigureIndexes(
      kPeople, IndexConfiguration({{Subpath{1, 2}, IndexOrg::kNIX},
                                   {Subpath{3, 4}, IndexOrg::kMX}})));

  for (int i = 0; i < 15; ++i) {
    const Key value = Key::FromString(EndingValue(i));
    db.pager().EnableBuffer(0);
    const std::vector<Oid> cold =
        db.Query(kPeople, value, setup.person).value();
    db.pager().EnableBuffer(64);
    const std::vector<Oid> warm =
        db.Query(kPeople, value, setup.person).value();
    EXPECT_EQ(cold, warm) << i;
  }
  db.pager().EnableBuffer(0);
  CheckOk(db.ValidateIndexesDeep());
}

TEST(BufferEquivalenceTest, WarmRepeatIsCheaperThanCold) {
  const PaperSetup setup = MakeExample51Setup();
  SimDatabase db(setup.schema, PhysicalParams{});
  CheckOk(db.RegisterPath(kPeople, setup.path));
  PathDataGenerator gen(654);
  gen.Populate(&db, setup.path,
               {
                   {setup.division, 30, 15, 1.0},
                   {setup.company, 30, 0, 2.0},
                   {setup.vehicle, 120, 0, 1.5},
                   {setup.person, 800, 0, 1.5},
               });
  CheckOk(db.ConfigureIndexes(
      kPeople, IndexConfiguration({{Subpath{1, 4}, IndexOrg::kMIX}})));
  const Key value = Key::FromString(EndingValue(3));

  db.pager().ResetStats();
  CheckOk(db.Query(kPeople, value, setup.person).status());
  const std::uint64_t cold = db.pager().stats().total();

  db.pager().EnableBuffer(256);
  CheckOk(db.Query(kPeople, value, setup.person).status());  // warms the pool
  db.pager().ResetStats();
  CheckOk(db.Query(kPeople, value, setup.person).status());
  const std::uint64_t warm = db.pager().stats().total();
  EXPECT_LT(warm, cold);
  EXPECT_GT(db.pager().stats().buffer_hits, 0u);
}

// Eviction order end to end: a pool too small for the query's working set
// must keep charging real reads (CLOCK evicts between touches), while a
// pool that covers it turns the repeat into hits — eviction is observable
// through nothing but the counters.
TEST(BufferEquivalenceTest, TinyPoolThrashesWhereBigPoolHits) {
  const PaperSetup setup = MakeExample51Setup();
  SimDatabase db(setup.schema, PhysicalParams{});
  CheckOk(db.RegisterPath(kPeople, setup.path));
  PathDataGenerator gen(654);
  gen.Populate(&db, setup.path,
               {
                   {setup.division, 30, 15, 1.0},
                   {setup.company, 30, 0, 2.0},
                   {setup.vehicle, 120, 0, 1.5},
                   {setup.person, 800, 0, 1.5},
               });
  CheckOk(db.ConfigureIndexes(
      kPeople, IndexConfiguration({{Subpath{1, 4}, IndexOrg::kMIX}})));
  const Key value = Key::FromString(EndingValue(3));

  db.pager().EnableBuffer(1);
  // "Warms" one frame.
  CheckOk(db.Query(kPeople, value, setup.person).status());
  db.pager().ResetStats();
  CheckOk(db.Query(kPeople, value, setup.person).status());
  const AccessStats tiny = db.pager().stats();

  db.pager().EnableBuffer(0);  // drop the frame
  db.pager().EnableBuffer(256);
  CheckOk(db.Query(kPeople, value, setup.person).status());
  db.pager().ResetStats();
  CheckOk(db.Query(kPeople, value, setup.person).status());
  const AccessStats big = db.pager().stats();

  EXPECT_GT(tiny.reads, big.reads);
  EXPECT_LT(tiny.buffer_hits, big.buffer_hits);
}

// A pinned frame survives arbitrary cross-traffic evictions; releasing the
// guard makes it an ordinary victim again.
TEST(BufferEquivalenceTest, PinBlocksEvictionUntilReleased) {
  Pager pager(4096);
  pager.EnableBuffer(2);
  PageGuard root = pager.PinRead(1);
  ASSERT_TRUE(root.pinned());
  pager.NoteRead(2);  // cross traffic cycles through the other frame
  pager.NoteRead(3);
  pager.NoteRead(4);
  EXPECT_TRUE(pager.buffer_pool().Resident(1));
  pager.NoteRead(1);
  EXPECT_EQ(pager.stats().buffer_hits, 1u);  // the pin kept it resident
  root.Release();
  pager.NoteRead(5);  // now 1 is evictable like anything else
  EXPECT_FALSE(pager.buffer_pool().Resident(1));
}

// Dirty write-back through real operations: repeated inserts dirty the
// same slot pages, the pool absorbs the repeats, and disabling it
// surfaces each distinct dirty page once.
TEST(BufferEquivalenceTest, WriteBackAbsorbsRepeatedSlotWrites) {
  const PaperSetup setup = MakeExample51Setup();
  SimDatabase cold(setup.schema, PhysicalParams{});
  SimDatabase warm(setup.schema, PhysicalParams{});
  warm.pager().EnableBuffer(64);
  for (int i = 0; i < 20; ++i) {
    cold.Insert(setup.person, {});
    warm.Insert(setup.person, {});
  }
  const std::uint64_t cold_writes = cold.pager().stats().writes;
  const std::uint64_t live_writes = warm.pager().stats().writes;
  EXPECT_LT(live_writes, cold_writes);

  warm.pager().EnableBuffer(0);  // flush: dirty pages become real writes
  const std::uint64_t settled = warm.pager().stats().writes;
  EXPECT_GT(settled, live_writes);
  EXPECT_LE(settled, cold_writes);  // repeats collapsed into one write-back
  EXPECT_GT(warm.pager().buffer_pool().GetStats().writebacks, 0u);
  EXPECT_EQ(warm.store().live_objects(), cold.store().live_objects());
}

TEST(BufferEquivalenceTest, MaintenanceStaysCorrectUnderBuffering) {
  const PaperSetup setup = MakeExample51Setup();
  SimDatabase db(setup.schema, PhysicalParams{});
  CheckOk(db.RegisterPath(kPeople, setup.path));
  const Oid d = db.Insert(setup.division, {{"name", {Value::Str("x")}}});
  const Oid c = db.Insert(setup.company, {{"divs", {Value::Ref(d)}}});
  const Oid v = db.Insert(setup.vehicle, {{"man", {Value::Ref(c)}}});
  const Oid p = db.Insert(setup.person, {{"owns", {Value::Ref(v)}}});
  CheckOk(db.ConfigureIndexes(
      kPeople, IndexConfiguration({{Subpath{1, 4}, IndexOrg::kNIX}})));
  db.pager().EnableBuffer(32);
  CheckOk(db.Delete(v));
  CheckOk(db.ValidateIndexesDeep());
  EXPECT_TRUE(
      db.Query(kPeople, Key::FromString("x"), setup.person).value().empty());
  (void)p;
}

}  // namespace
}  // namespace pathix
