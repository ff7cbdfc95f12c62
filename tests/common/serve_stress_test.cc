// Concurrent query-vs-reconfigure stress: worker threads run queries and
// updates against one SimDatabase while configuration epochs are swapped
// under them — the serving engine's core claim. Asserts the no-lost-ops
// invariant (every op accounted exactly once on the store), that every
// query finds a published configuration (in-flight queries finish on the
// old epoch; there is never a window with none), that every swap completed
// during active traffic, and that part refcounts return when the indexes
// drop. Deliberately NOT labeled `slow`: the TSan CI job (ctest -LE slow)
// must pick this up — it is the dynamic race backstop for the epoch-swap
// and latching protocols.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "datagen/generator.h"
#include "datagen/paper_schema.h"
#include "serve/serve_driver.h"

namespace pathix {
namespace {

constexpr int kWorkers = 4;

TEST(ServeStressTest, QueriesAndUpdatesAcrossEpochSwaps) {
  constexpr int kOpsPerWorker = 400;
  constexpr int kSwaps = 30;

  PaperSetup setup = MakeExample51Setup();
  SimDatabase db(setup.schema, PhysicalParams{});
  CheckOk(db.RegisterPath("people", setup.path));
  PathDataGenerator gen(99);
  gen.Populate(&db, {&setup.path},
               {
                   {setup.division, 8, 4, 1.0},
                   {setup.company, 8, 0, 2.0},
                   {setup.vehicle, 30, 0, 2.0},
                   {setup.person, 150, 0, 1.0},
               });
  CheckOk(db.ConfigureIndexes(
      "people", IndexConfiguration({{Subpath{1, 4}, IndexOrg::kNIX}})));

  const std::vector<Oid> vehicles = db.store().PeekAll(setup.vehicle);
  ASSERT_FALSE(vehicles.empty());
  const std::size_t live_before = db.store().LiveCount(setup.person);
  const double epochs_before =
      db.metrics().CounterAt("pathix_db_config_epochs_total").Value();

  // The reconfigurer: rotates through the paper's split, a MIX/NIX split
  // and the whole-path NIX while the workers keep serving. Every swap must
  // find the old epoch still serving and leave the new one published. The
  // splits hand a downstream part's oids to the next part as a key batch,
  // so the MX, MIX and NIX sorted walks (which keep node pointers across
  // keys under the part's shared latch) all race concurrent maintenance.
  std::atomic<int> swaps_done{0};
  std::thread reconfigurer([&] {
    const IndexConfiguration rotation[] = {
        IndexConfiguration({{Subpath{1, 2}, IndexOrg::kNIX},
                            {Subpath{3, 4}, IndexOrg::kMX}}),
        IndexConfiguration({{Subpath{1, 2}, IndexOrg::kMIX},
                            {Subpath{3, 4}, IndexOrg::kNIX}}),
        IndexConfiguration({{Subpath{1, 4}, IndexOrg::kNIX}}),
    };
    for (int i = 0; i < kSwaps; ++i) {
      CheckOk(db.ReconfigureIndexes("people", rotation[i % 3]));
      swaps_done.fetch_add(1, std::memory_order_relaxed);
    }
  });

  // Workers: 2 queries : 1 insert : 1 delete. Each worker deletes only
  // oids it inserted itself, so every delete must succeed — the accounting
  // below is exact, not statistical.
  std::vector<std::uint64_t> inserted(kWorkers);
  std::vector<std::uint64_t> deleted(kWorkers);
  std::vector<std::thread> workers;
  workers.reserve(kWorkers);
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      std::vector<Oid> own;
      for (int i = 0; i < kOpsPerWorker; ++i) {
        switch (i % 4) {
          case 0:
          case 1: {
            const Key key = Key::FromString("v" + std::to_string(i % 4));
            const Result<SimDatabase::QueryOutcome> r =
                db.QueryAny("people", key, setup.person);
            // A published configuration must always be found: epoch swaps
            // never leave a queryable gap (and with one installed, QueryAny
            // routes indexed, never naive).
            ASSERT_TRUE(r.ok()) << r.status().ToString();
            EXPECT_FALSE(r.value().naive);
            break;
          }
          case 2: {
            const Oid v =
                vehicles[static_cast<std::size_t>(w + i) % vehicles.size()];
            own.push_back(db.Insert(setup.person, {{"owns", {Value::Ref(v)}}}));
            ++inserted[static_cast<std::size_t>(w)];
            break;
          }
          default: {
            if (own.empty()) break;
            const Oid victim = own.back();
            own.pop_back();
            CheckOk(db.Delete(victim));
            ++deleted[static_cast<std::size_t>(w)];
            break;
          }
        }
      }
    });
  }
  for (std::thread& t : workers) t.join();
  reconfigurer.join();

  // No lost or doubled ops: the store's live count reconciles exactly
  // against the per-worker tallies.
  std::uint64_t total_inserted = 0;
  std::uint64_t total_deleted = 0;
  for (int w = 0; w < kWorkers; ++w) {
    total_inserted += inserted[static_cast<std::size_t>(w)];
    total_deleted += deleted[static_cast<std::size_t>(w)];
  }
  EXPECT_EQ(db.store().LiveCount(setup.person),
            live_before + total_inserted - total_deleted);

  // Every swap published exactly one epoch, all during active traffic.
  EXPECT_EQ(swaps_done.load(), kSwaps);
  const double epochs_after =
      db.metrics().CounterAt("pathix_db_config_epochs_total").Value();
  EXPECT_EQ(epochs_after - epochs_before, static_cast<double>(kSwaps));

  // The surviving configuration is internally consistent with the store.
  CheckOk(db.ValidateIndexesDeep());

  // Refcounts return: dropping the final epoch releases every part (old
  // epochs' parts were already released when their last query finished).
  db.DropIndexes("people");
  EXPECT_EQ(db.registry().live_parts(), 0u);
}

TEST(ServeStressTest, IndexedAnswersEqualNaiveAnswersAcrossEpochSwaps) {
  // No writers: the store stays put, so whatever epoch an indexed query
  // pins, its answer must equal the naive walk's. Four workers ask the same
  // (value, target class) pairs both ways, over every class of the path and
  // with and without subclasses, while the reconfigurer rotates MX, MIX,
  // NIX and NONE parts (a NONE part over three levels among them) under
  // them.
  constexpr int kPairsPerWorker = 60;
  constexpr int kSwaps = 25;

  PaperSetup setup = MakeExample51Setup();
  SimDatabase db(setup.schema, PhysicalParams{});
  CheckOk(db.RegisterPath("people", setup.path));
  PathDataGenerator gen(41);
  gen.Populate(&db, {&setup.path},
               {
                   {setup.division, 8, 4, 1.0},
                   {setup.company, 8, 0, 2.0},
                   {setup.vehicle, 30, 0, 2.0},
                   {setup.bus, 10, 0, 2.0},
                   {setup.truck, 10, 0, 2.0},
                   {setup.person, 150, 0, 1.0},
               });
  const IndexConfiguration rotation[] = {
      IndexConfiguration({{Subpath{1, 3}, IndexOrg::kNone},
                          {Subpath{4, 4}, IndexOrg::kMX}}),
      IndexConfiguration({{Subpath{1, 2}, IndexOrg::kNIX},
                          {Subpath{3, 4}, IndexOrg::kMX}}),
      IndexConfiguration({{Subpath{1, 1}, IndexOrg::kMX},
                          {Subpath{2, 2}, IndexOrg::kNone},
                          {Subpath{3, 4}, IndexOrg::kMIX}}),
      IndexConfiguration({{Subpath{1, 2}, IndexOrg::kMIX},
                          {Subpath{3, 4}, IndexOrg::kNIX}}),
      IndexConfiguration({{Subpath{1, 4}, IndexOrg::kNIX}}),
  };
  constexpr int kRotation = 5;
  CheckOk(db.ConfigureIndexes("people", rotation[0]));

  std::atomic<int> swaps_done{0};
  std::thread reconfigurer([&] {
    for (int i = 1; i <= kSwaps; ++i) {
      CheckOk(db.ReconfigureIndexes("people", rotation[i % kRotation]));
      swaps_done.fetch_add(1, std::memory_order_relaxed);
    }
  });

  const std::vector<ClassId> scope = setup.path.Scope(setup.schema);
  std::atomic<int> nonempty{0};
  std::vector<std::thread> workers;
  workers.reserve(kWorkers);
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      for (int i = 0; i < kPairsPerWorker; ++i) {
        const int pick = w + i * kWorkers;
        const Key key = Key::FromString(EndingValue(pick % 5));
        const ClassId target =
            scope[static_cast<std::size_t>(pick) % scope.size()];
        const bool subclasses = (pick / 7) % 2 == 1;
        Result<std::vector<Oid>> indexed =
            db.Query("people", key, target, subclasses);
        Result<std::vector<Oid>> naive =
            db.QueryNaive("people", key, target, subclasses);
        ASSERT_TRUE(indexed.ok()) << indexed.status().ToString();
        ASSERT_TRUE(naive.ok()) << naive.status().ToString();
        std::vector<Oid> want = std::move(naive).value();
        std::vector<Oid> got = std::move(indexed).value();
        std::sort(want.begin(), want.end());
        std::sort(got.begin(), got.end());
        EXPECT_EQ(got, want) << setup.schema.GetClass(target).name()
                             << (subclasses ? "+ " : " ")
                             << EndingValue(pick % 5);
        if (!want.empty()) nonempty.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : workers) t.join();
  reconfigurer.join();

  EXPECT_EQ(swaps_done.load(), kSwaps);
  // Most pairs select something: the comparison is not of empty sets.
  EXPECT_GT(nonempty.load(), kWorkers * kPairsPerWorker / 3);
  db.DropIndexes("people");
  EXPECT_EQ(db.registry().live_parts(), 0u);
}

TEST(ServeStressTest, ServeDriverCommitsEpochSwapsMidPhase) {
  // The full serving stack: ServeDriver workers replay a mix-flipping
  // trace while the online controller (riding the workers' own Notify
  // callbacks) installs and re-solves mid-phase.
  constexpr const char* kSpec = R"(
class Submission 80000 8000 1
class Forum      400 400 1

ref Submission forum Forum
attr Forum name string

path Submission forum name
orgs MX MIX NIX NONE

populate Submission 1200 0 1.0
populate Forum      40 40 1.0
trace_seed 7

phase search 2500
mix Submission 0.9 0.06 0.04

phase ingest 2500
mix Submission 0.04 0.58 0.38
)";
  Result<TraceSpec> spec = ParseTraceSpec(kSpec);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  const TraceSpec& s = spec.value();

  SimDatabase db(s.schema, s.catalog.params());
  ServeDriver driver(&db, s, ServeOptions{kWorkers});
  driver.Populate();

  JointReconfigurationController controller(&db, ControllerOptionsFor(s));
  db.SetObserver(&controller);

  std::uint64_t epoch_swaps = 0;
  for (std::size_t i = 0; i < s.phases.size(); ++i) {
    const ServePhaseReport r = driver.RunPhase(i, &controller);
    // The no-lost-ops invariant again, through the driver's merged report.
    std::uint64_t executed = r.phase.insert_ops + r.phase.delete_ops +
                             r.phase.noop_ops;
    for (const auto& [id, n] : r.phase.query_ops) executed += n;
    for (const auto& [id, n] : r.phase.naive_query_ops) executed += n;
    EXPECT_EQ(executed, r.phase.ops) << s.phases[i].name;
    epoch_swaps += r.epoch_swaps;
  }
  db.SetObserver(nullptr);
  CheckOk(controller.status());

  // The controller committed at least its first install while the workers
  // were replaying — an epoch swap under live multi-threaded traffic.
  EXPECT_GE(epoch_swaps, 1u);
  EXPECT_TRUE(db.has_indexes(s.paths.front().id));
  CheckOk(db.ValidateIndexesDeep());
}

TEST(ServeStressTest, BufferedServingReconcilesUnderFourWorkers) {
  // The full serving stack again, now through a deliberately small buffer
  // pool (evictions guaranteed): four workers replay both phases with the
  // controller live, and the pager's view must reconcile exactly with the
  // pool's — every buffer hit the workers were credited is a read hit the
  // pool recorded, with no op lost along the way. This is the TSan job's
  // end-to-end pass over the latched buffered fast path.
  constexpr const char* kSpec = R"(
class Submission 80000 8000 1
class Forum      400 400 1

ref Submission forum Forum
attr Forum name string

path Submission forum name
orgs MX MIX NIX NONE

populate Submission 1200 0 1.0
populate Forum      40 40 1.0
trace_seed 11

phase search 2500
mix Submission 0.9 0.06 0.04

phase ingest 2500
mix Submission 0.04 0.58 0.38
)";
  Result<TraceSpec> spec = ParseTraceSpec(kSpec);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  const TraceSpec& s = spec.value();

  SimDatabase db(s.schema, s.catalog.params());
  ServeDriver driver(&db, s, ServeOptions{kWorkers});
  driver.Populate();
  // A handful of frames, far below the working set: CLOCK must evict (and
  // write back dirty slot pages) while all four workers are serving.
  db.pager().EnableBuffer(8);

  JointReconfigurationController controller(&db, ControllerOptionsFor(s));
  db.SetObserver(&controller);

  for (std::size_t i = 0; i < s.phases.size(); ++i) {
    const ServePhaseReport r = driver.RunPhase(i, &controller);
    std::uint64_t executed = r.phase.insert_ops + r.phase.delete_ops +
                             r.phase.noop_ops;
    for (const auto& [id, n] : r.phase.query_ops) executed += n;
    for (const auto& [id, n] : r.phase.naive_query_ops) executed += n;
    // Zero lost ops, buffered exactly as unbuffered.
    EXPECT_EQ(executed, r.phase.ops) << s.phases[i].name;
  }
  db.SetObserver(nullptr);
  CheckOk(controller.status());

  const AccessStats stats = db.pager().stats();
  const BufferPoolStats pool = db.pager().buffer_pool().GetStats();
  // Exact hit accounting: a buffer hit is credited if and only if the pool
  // recorded a read hit — the charge never detaches from the frame table.
  EXPECT_EQ(stats.buffer_hits, pool.read_hits);
  EXPECT_GT(stats.buffer_hits, 0u);
  // Every pool read miss was charged as a real read (bulk scans bypass the
  // pool, so the pager may have charged more reads — never fewer).
  EXPECT_GE(stats.reads, pool.read_misses);
  EXPECT_GT(pool.read_misses, 0u);
  // The undersized pool actually cycled, and only dirty frames wrote back.
  EXPECT_GT(pool.evictions, 0u);
  EXPECT_LE(pool.writebacks, pool.evictions);
  EXPECT_LE(db.pager().buffer_pool().ResidentPages(), 8u);

  // Disabling flushes every remaining dirty frame into the write counters
  // and drains the pool completely.
  const std::uint64_t writes_before = stats.writes;
  db.pager().EnableBuffer(0);
  EXPECT_EQ(db.pager().buffer_pool().ResidentPages(), 0u);
  EXPECT_GE(db.pager().stats().writes, writes_before);
  CheckOk(db.ValidateIndexesDeep());
}

}  // namespace
}  // namespace pathix
