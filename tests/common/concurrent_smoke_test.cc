// The first genuinely multi-threaded code in the repo: a deliberately tiny
// hammer over the two shared-state hot spots the annotated locking layer
// protects — Pager accounting and PhysicalPartRegistry acquire/release —
// plus the buffer pool's latch-free hits under live resizes, the
// WorkloadMonitor's decayed counters and the ObjectStore's maps.
// Run it under -fsanitize=thread (cmake -DPATHIX_SANITIZE=thread): TSan is
// the dynamic backstop for what Clang's -Wthread-safety proves statically.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "datagen/generator.h"
#include "datagen/paper_schema.h"
#include "exec/database.h"
#include "index/part_registry.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "online/workload_monitor.h"
#include "storage/pager.h"

namespace pathix {
namespace {

constexpr int kThreads = 4;

void RunInParallel(int threads, const std::function<void(int)>& body) {
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (int t = 0; t < threads; ++t) pool.emplace_back(body, t);
  for (std::thread& th : pool) th.join();
}

TEST(ConcurrentSmokeTest, PagerAccountingFromManyThreads) {
  constexpr std::uint64_t kOpsPerThread = 5000;
  Pager pager(4096);
  RunInParallel(kThreads, [&pager](int t) {
    // Two threads share each label, so one label entry gathers folds from
    // two threads' cells.
    const std::string label = "p" + std::to_string(t % 2);
    for (std::uint64_t i = 0; i < kOpsPerThread; ++i) {
      const PageId page = pager.Allocate();
      {
        ScopedAccessProbe frame(&pager, PageOpKind::kQuery, label);
        pager.NoteWrite(page);
        pager.NoteRead(page);
        if (i % 16 == 0) pager.NoteReads(2);
      }
      if (i % 64 == 0) {
        // Concurrent readers merge every cell while the writers fold.
        (void)pager.stats();
        (void)pager.tally(PageOpKind::kQuery);
        (void)pager.label_tallies();
      }
    }
  });
  constexpr std::uint64_t kReadsPerThread =
      kOpsPerThread + 2 * ((kOpsPerThread + 15) / 16);
  const AccessStats all{kThreads * kReadsPerThread, kThreads * kOpsPerThread,
                        0};
  EXPECT_EQ(pager.allocated_pages(), kThreads * kOpsPerThread);
  EXPECT_EQ(pager.stats(), all);
  EXPECT_EQ(pager.tally(PageOpKind::kQuery), all);

  const std::map<std::string, AccessStats> labels = pager.label_tallies();
  ASSERT_EQ(labels.size(), 2u);
  const AccessStats per_label{kThreads / 2 * kReadsPerThread,
                              kThreads / 2 * kOpsPerThread, 0};
  EXPECT_EQ(labels.at("p0"), per_label);
  EXPECT_EQ(labels.at("p1"), per_label);

  // Every touch ran inside a counting frame: the kind tallies decompose
  // stats() exactly.
  AccessStats kinds;
  for (std::size_t k = 0; k < kPageOpKindCount; ++k) {
    kinds += pager.tally(static_cast<PageOpKind>(k));
  }
  EXPECT_EQ(kinds, pager.stats());
}

TEST(ConcurrentSmokeTest, PagerBufferPoolUnderContention) {
  constexpr std::uint64_t kOpsPerThread = 5000;
  Pager pager(4096);
  pager.EnableBuffer(8);
  // All threads hammer the same tiny page set: every access is either a
  // counted read or a buffer hit, never lost.
  std::vector<PageId> pages;
  pages.reserve(4);
  for (int i = 0; i < 4; ++i) pages.push_back(pager.Allocate());
  RunInParallel(kThreads, [&pager, &pages](int t) {
    for (std::uint64_t i = 0; i < kOpsPerThread; ++i) {
      pager.NoteRead(pages[(t + i) % pages.size()]);
    }
  });
  const AccessStats stats = pager.stats();
  EXPECT_EQ(stats.reads + stats.buffer_hits, kThreads * kOpsPerThread);
  EXPECT_GT(stats.buffer_hits, 0u);
}

TEST(ConcurrentSmokeTest, BufferPoolHammerReconcilesExactly) {
  // Four threads drive a sharded pool (512 frames -> 8 latched shards)
  // through the full frame life cycle at once: hot hits, cold misses that
  // force CLOCK sweeps, dirty frames, pins held across cross-traffic, and
  // a final flush. Accounting must reconcile exactly — a lost or
  // double-counted touch anywhere in the latched fast path shows up here.
  constexpr std::uint64_t kOpsPerThread = 4000;
  constexpr PageId kPageSpan = 2048;
  Pager pager(4096);
  pager.EnableBuffer(512);
  std::atomic<std::uint64_t> read_touches{0};
  std::atomic<std::uint64_t> write_touches{0};
  RunInParallel(kThreads, [&](int t) {
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    for (std::uint64_t i = 0; i < kOpsPerThread; ++i) {
      // Skewed page choice: a small hot set yields hits, the wide tail
      // forces evictions through every shard.
      const PageId page = static_cast<PageId>(
          (i % 8 == 0) ? (i * 37 + static_cast<std::uint64_t>(t) * 911) %
                             kPageSpan
                       : (i * 13 + static_cast<std::uint64_t>(t)) % 64);
      if (i % 5 == 4) {
        pager.NoteWrite(page);
        ++writes;
      } else if (i % 7 == 3) {
        PageGuard guard = pager.PinRead(page);
        ++reads;
        pager.NoteRead((page + 1) % kPageSpan);  // traffic while pinned
        ++reads;
        guard.Release();
      } else {
        pager.NoteRead(page);
        ++reads;
      }
      if (i % 512 == 0) (void)pager.stats();  // concurrent snapshots
    }
    read_touches += reads;
    write_touches += writes;
  });
  pager.EnableBuffer(0);  // surface every remaining dirty frame
  const AccessStats stats = pager.stats();
  const BufferPoolStats pool = pager.buffer_pool().GetStats();
  // Honest read accounting: every touch is exactly one hit or one charged
  // read, and the pager's view agrees with the pool's.
  EXPECT_EQ(stats.reads + stats.buffer_hits, read_touches.load());
  EXPECT_EQ(stats.buffer_hits, pool.read_hits);
  EXPECT_EQ(stats.reads, pool.read_misses);
  EXPECT_EQ(pool.read_hits + pool.read_misses, read_touches.load());
  EXPECT_EQ(pool.write_hits + pool.write_misses, write_touches.load());
  // Write-back collapses repeats but never invents writes: after the
  // flush, total charged writes cannot exceed the write touches.
  EXPECT_LE(stats.writes, write_touches.load());
  EXPECT_GT(stats.writes, 0u);
  EXPECT_GT(stats.buffer_hits, 0u);
  EXPECT_GT(pool.evictions, 0u);
  EXPECT_GT(pool.writebacks, 0u);
}

TEST(ConcurrentSmokeTest, SweepNeverEvictsAFrameAPinJustTook) {
  // Two threads pin and release one hot page each, mostly through the
  // latch-free hit path, while two others stream cold pages through a
  // four-frame pool, so the CLOCK sweep keeps reaching the hot frames in
  // the instant they are unpinned. The sweep claims a victim by CAS: a pin
  // that lands first must win and keep its frame resident.
  constexpr std::uint64_t kOpsPerThread = 100000;
  Pager pager(4096);
  pager.EnableBuffer(4);
  std::atomic<std::uint64_t> evicted_while_pinned{0};
  RunInParallel(kThreads, [&](int t) {
    for (std::uint64_t i = 0; i < kOpsPerThread; ++i) {
      if (t < 2) {
        const PageId hot = static_cast<PageId>(t);
        PageGuard guard = pager.PinRead(hot);
        if (guard.pinned() && !pager.buffer_pool().Resident(hot)) {
          ++evicted_while_pinned;
        }
      } else {
        pager.NoteRead(static_cast<PageId>(100 + (2 * i + t) % 1000));
      }
    }
  });
  EXPECT_EQ(evicted_while_pinned.load(), 0u);
  EXPECT_GT(pager.buffer_pool().GetStats().evictions, 0u);
}

TEST(ConcurrentSmokeTest, ResizeWhileHittingAndPinning) {
  // Four threads hit, miss, dirty and pin pages while a fifth resizes the
  // pool across shard-count changes (8 and 64 frames run one shard, 512
  // and 2048 run eight). Each resize freezes the frame words under the
  // latch-free hits and guard releases, which must then fall back to the
  // latched path without losing a touch, counting one twice, or leaking a
  // pin. The resizer makes a fixed number of resizes, each after the
  // workers advanced a few hundred ops, and the workers keep going until
  // it is done, so the resizes land across the traffic however the threads
  // are scheduled.
  constexpr std::uint64_t kMinOpsPerThread = 1500;
  constexpr std::uint64_t kPageSpan = 1500;
  constexpr int kResizes = 120;
  constexpr std::uint64_t kStepsPerResize = 3;  // 64 worker ops per step
  Pager pager(4096);
  pager.EnableBuffer(512);
  std::atomic<std::uint64_t> read_touches{0};
  std::atomic<std::uint64_t> evicted_while_pinned{0};
  std::atomic<std::uint64_t> steps{0};
  std::atomic<bool> resizing{true};
  std::thread resizer([&] {
    const std::size_t capacities[] = {8, 64, 512, 2048};
    for (int i = 0; i < kResizes; ++i) {
      pager.EnableBuffer(capacities[i % 4]);
      const std::uint64_t next = steps.load() + kStepsPerResize;
      while (steps.load() < next) std::this_thread::yield();
    }
    resizing = false;
  });
  RunInParallel(kThreads, [&](int t) {
    std::uint64_t reads = 0;
    for (std::uint64_t i = 0; i < kMinOpsPerThread || resizing.load(); ++i) {
      // A small hot set yields hits; every fourth op spans the whole range
      // and forces misses and sweeps.
      const std::uint64_t x =
          i * 7919 + static_cast<std::uint64_t>(t) * 104729;
      const PageId page =
          static_cast<PageId>(i % 4 == 0 ? x % kPageSpan : x % 48);
      const PageId next = static_cast<PageId>((page + 1) % kPageSpan);
      switch (i % 6) {
        case 2: {
          // A descent's worth of pins held across more traffic.
          PinSet pins;
          pins.Add(pager.PinRead(page));
          pins.Add(pager.PinRead(next));
          pager.NoteRead(page);
          reads += 3;
          break;
        }
        case 4: {
          PageGuard guard = pager.PinWrite(page);
          pager.NoteRead(next);
          ++reads;
          // No sweep or resize may drop a pinned frame.
          if (guard.pinned() && !pager.buffer_pool().Resident(page)) {
            ++evicted_while_pinned;
          }
          break;
        }
        case 5:
          pager.NoteWrite(page);
          break;
        default:
          pager.NoteRead(page);
          ++reads;
      }
      if (i % 64 == 63) steps.fetch_add(1);
    }
    read_touches += reads;
  });
  resizer.join();
  pager.EnableBuffer(0);
  const AccessStats stats = pager.stats();
  const BufferPoolStats pool = pager.buffer_pool().GetStats();
  EXPECT_EQ(stats.reads + stats.buffer_hits, read_touches.load());
  EXPECT_EQ(stats.buffer_hits, pool.read_hits);
  EXPECT_EQ(stats.reads, pool.read_misses);
  EXPECT_GT(stats.buffer_hits, 0u);
  EXPECT_EQ(evicted_while_pinned.load(), 0u);
  // Every guard was released: a leaked pin would keep its frame above the
  // zero capacity.
  EXPECT_EQ(pager.buffer_pool().ResidentPages(), 0u);
  // Frame storage follows the largest capacity, not the resize count.
  EXPECT_LE(pager.buffer_pool().AllocatedFrames(), std::size_t{4} * 2048);
}

/// A populated Example 5.1 database (small) whose store backs concurrent
/// registry builds.
struct SmokeInstance {
  SmokeInstance() : setup(MakeExample51Setup()), db(setup.schema, {}) {
    CheckOk(db.RegisterPath("people", setup.path));
    PathDataGenerator gen(1234);
    gen.Populate(&db, {&setup.path},
                 {
                     {setup.division, 8, 4, 1.0},
                     {setup.company, 8, 0, 2.0},
                     {setup.vehicle, 40, 0, 2.0},
                     {setup.person, 200, 0, 1.0},
                 });
  }

  PaperSetup setup;
  SimDatabase db;
};

TEST(ConcurrentSmokeTest, RegistryAcquireReleaseFromManyThreads) {
  constexpr int kRounds = 50;
  SmokeInstance inst;
  PhysicalPartRegistry registry;
  const IndexedSubpath shared{{1, 4}, IndexOrg::kNIX};
  const StructuralKey shared_key =
      StructuralKey::ForSubpath(inst.setup.path, 1, 4, IndexOrg::kNIX);
  // Per-thread distinct parts: each thread also churns its own single-level
  // MX part so builds and releases interleave with the shared key's.
  const IndexOrg own_orgs[kThreads] = {IndexOrg::kMX, IndexOrg::kNIX,
                                       IndexOrg::kMIX, IndexOrg::kMX};
  RunInParallel(kThreads, [&](int t) {
    const IndexedSubpath own{{t % 2 + 1, t % 2 + 1}, own_orgs[t]};
    for (int i = 0; i < kRounds; ++i) {
      auto a = registry.Acquire(&inst.db.pager(), inst.setup.schema,
                                inst.setup.path, shared, inst.db.store());
      ASSERT_TRUE(a.ok()) << a.status().ToString();
      ASSERT_NE(a.value()->index, nullptr);
      auto b = registry.Acquire(&inst.db.pager(), inst.setup.schema,
                                inst.setup.path, own, inst.db.store());
      ASSERT_TRUE(b.ok()) << b.status().ToString();
      // Concurrent holders of the same key share one structure.
      auto again = registry.Acquire(&inst.db.pager(), inst.setup.schema,
                                    inst.setup.path, shared, inst.db.store());
      ASSERT_TRUE(again.ok());
      EXPECT_EQ(a.value().get(), again.value().get());
      (void)registry.live_parts();
      (void)registry.cumulative_build_io();
    }
  });
  // Everything was released on scope exit; the registry holds only weak
  // references, and every build was accounted.
  EXPECT_EQ(registry.use_count(shared_key), 0);
  EXPECT_EQ(registry.live_parts(), 0u);
  EXPECT_GT(registry.parts_built(), 0u);
  EXPECT_GT(registry.cumulative_build_io().total(), 0u);
}

TEST(ConcurrentSmokeTest, RegistryBuildsSharedKeyOnceWhileHeld) {
  SmokeInstance inst;
  PhysicalPartRegistry registry;
  const IndexedSubpath shared{{1, 4}, IndexOrg::kNIX};
  // All threads race to acquire the same key and keep it alive until after
  // the join: exactly one build may happen.
  std::vector<std::shared_ptr<PhysicalPart>> held(kThreads);
  RunInParallel(kThreads, [&](int t) {
    auto part = registry.Acquire(&inst.db.pager(), inst.setup.schema,
                                 inst.setup.path, shared, inst.db.store());
    ASSERT_TRUE(part.ok());
    held[static_cast<std::size_t>(t)] = std::move(part).value();
  });
  EXPECT_EQ(registry.parts_built(), 1u);
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(held[0].get(), held[t].get());
  held.clear();
  EXPECT_EQ(registry.live_parts(), 0u);
}

TEST(ConcurrentSmokeTest, WorkloadMonitorObserveAndEstimate) {
  constexpr std::uint64_t kOpsPerThread = 2000;
  WorkloadMonitor monitor(/*half_life_ops=*/256);
  std::vector<std::vector<std::uint64_t>> assigned(kThreads);
  // The anonymous stream (path "") with every observed class's updates.
  std::set<ClassId> classes;
  for (int t = 0; t < kThreads; ++t) classes.insert(static_cast<ClassId>(t));
  RunInParallel(kThreads, [&monitor, &assigned, &classes](int t) {
    for (std::uint64_t i = 0; i < kOpsPerThread; ++i) {
      const DbOpKind kind = i % 3 == 0   ? DbOpKind::kQuery
                            : i % 3 == 1 ? DbOpKind::kInsert
                                         : DbOpKind::kDelete;
      assigned[static_cast<std::size_t>(t)].push_back(
          monitor.Observe({kind, static_cast<ClassId>(t), {}, false, {}}));
      if (i % 64 == 0) (void)monitor.Snapshot({""}, {classes});
    }
  });
  const MonitorSnapshot snap = monitor.Snapshot({}, {});
  EXPECT_EQ(snap.op_index, kThreads * kOpsPerThread);
  EXPECT_GT(snap.decayed_total, 0.0);
  // Every observation got its own op index: together exactly 1..N.
  std::vector<std::uint64_t> all;
  for (const std::vector<std::uint64_t>& mine : assigned) {
    all.insert(all.end(), mine.begin(), mine.end());
  }
  std::sort(all.begin(), all.end());
  ASSERT_EQ(all.size(), kThreads * kOpsPerThread);
  for (std::size_t i = 0; i < all.size(); ++i) ASSERT_EQ(all[i], i + 1);
}

// Four threads observe mixed events on shared entries while a fifth keeps
// draining through the estimate reads, so records arrive late and batches
// fill and drain on the observers' own threads. The result must be the
// one-thread fold of the same events in op-index order: exact without
// decay, and within rounding with it (a late record is decayed by its own
// age instead of being folded in sequence).
void ExpectMonitorMatchesSortedReplay(double half_life_ops,
                                      double tolerance) {
  constexpr std::uint64_t kOpsPerThread = 3000;
  const std::vector<PathId> paths{"p", "q"};
  const std::set<ClassId> scope{0, 1, 2};
  const std::vector<std::set<ClassId>> scopes{scope, scope};
  WorkloadMonitor monitor(half_life_ops);
  std::vector<std::vector<std::pair<std::uint64_t, DbOpEvent>>> seen(
      kThreads);
  std::atomic<int> observing{kThreads};
  std::atomic<int> ready{0};
  std::thread reader([&] {
    while (observing.load() > 0) {
      (void)monitor.Snapshot(paths, scopes);
    }
  });
  RunInParallel(kThreads, [&](int t) {
    // Start together, so the observers overlap until the end: late records
    // near the end are the ones the decayed comparison can see.
    ready.fetch_add(1);
    while (ready.load() < kThreads) std::this_thread::yield();
    for (std::uint64_t i = 0; i < kOpsPerThread; ++i) {
      const auto cls =
          static_cast<ClassId>((i + static_cast<std::uint64_t>(t)) % 3);
      const AccessStats pages{10 + i % 7, i % 3, 0};
      DbOpEvent ev{DbOpKind::kQuery, cls, i % 2 == 0 ? "p" : "q",
                   i % 5 == 0, pages};
      if (i % 4 == 3) ev = {DbOpKind::kInsert, cls, {}, false, pages};
      if (i % 8 == 7) ev = {DbOpKind::kDelete, cls, {}, false, pages};
      seen[static_cast<std::size_t>(t)].emplace_back(monitor.Observe(ev), ev);
    }
    observing.fetch_sub(1);
  });
  reader.join();

  std::vector<std::pair<std::uint64_t, DbOpEvent>> all;
  for (const auto& mine : seen) {
    all.insert(all.end(), mine.begin(), mine.end());
  }
  std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
    return a.first < b.first;
  });
  WorkloadMonitor replay(half_life_ops);
  for (const auto& [index, ev] : all) ASSERT_EQ(replay.Observe(ev), index);

  const auto expect_close = [tolerance](double got, double want) {
    EXPECT_NEAR(got, want, tolerance * std::abs(want)) << want;
  };
  const MonitorSnapshot got_snap = monitor.Snapshot(paths, scopes);
  const MonitorSnapshot want_snap = replay.Snapshot(paths, scopes);
  expect_close(got_snap.decayed_total, want_snap.decayed_total);
  for (std::size_t i = 0; i < paths.size(); ++i) {
    expect_close(got_snap.naive_pages_per_op[i],
                 want_snap.naive_pages_per_op[i]);
    const LoadDistribution& got = got_snap.loads[i];
    const LoadDistribution& want = want_snap.loads[i];
    for (ClassId cls : scope) {
      expect_close(got.Get(cls).query, want.Get(cls).query);
      expect_close(got.Get(cls).insert, want.Get(cls).insert);
      expect_close(got.Get(cls).del, want.Get(cls).del);
    }
  }
}

// A round without a late record near its end cannot tell a wrong late
// fold from a right one, so the decayed case runs several rounds.
constexpr int kMonitorReplayRounds = 4;

TEST(ConcurrentSmokeTest, WorkloadMonitorMatchesItsSortedReplayWithoutDecay) {
  for (int round = 0; round < kMonitorReplayRounds; ++round) {
    SCOPED_TRACE(round);
    ExpectMonitorMatchesSortedReplay(/*half_life_ops=*/0, /*tolerance=*/0);
  }
}

TEST(ConcurrentSmokeTest, WorkloadMonitorMatchesItsSortedReplayWithDecay) {
  for (int round = 0; round < kMonitorReplayRounds; ++round) {
    SCOPED_TRACE(round);
    ExpectMonitorMatchesSortedReplay(/*half_life_ops=*/256,
                                     /*tolerance=*/1e-12);
  }
}

TEST(ConcurrentSmokeTest, MetricsRegistryFromManyThreads) {
  constexpr std::uint64_t kOpsPerThread = 4000;
  obs::MetricsRegistry registry;
  RunInParallel(kThreads, [&registry](int t) {
    // Handles resolve through the registry map concurrently; updates go
    // through the per-metric leaf mutexes. Every count must land.
    obs::Counter& shared = registry.CounterAt("hammer_total");
    obs::Counter& own =
        registry.CounterAt("hammer_total",
                           {{"thread", std::to_string(t)}});
    obs::Histogram& lat = registry.HistogramAt("hammer_latency_us");
    obs::Gauge& gauge = registry.GaugeAt("hammer_gauge");
    for (std::uint64_t i = 0; i < kOpsPerThread; ++i) {
      shared.Increment();
      own.Increment();
      lat.Observe(static_cast<double>(i % 1000));
      gauge.Set(static_cast<double>(i));
      if (i % 256 == 0) (void)registry.Snapshot();  // concurrent exports
    }
  });
  const obs::MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.Value("hammer_total"),
            static_cast<double>(kThreads * kOpsPerThread));
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(snap.Value("hammer_total", {{"thread", std::to_string(t)}}),
              static_cast<double>(kOpsPerThread));
  }
  const obs::MetricSample* lat = snap.Find("hammer_latency_us", {});
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->histogram.count, kThreads * kOpsPerThread);
}

TEST(ConcurrentSmokeTest, TracerSpansFromManyThreads) {
  constexpr int kSpansPerThread = 500;
  obs::Tracer tracer;
  tracer.SetEnabled(true);
  RunInParallel(kThreads, [&tracer](int t) {
    for (int i = 0; i < kSpansPerThread; ++i) {
      obs::ObsSpan outer(&tracer, "outer", "test");
      outer.AddArg("i", static_cast<double>(i));
      obs::ObsSpan inner(&tracer, "inner", "test");
      (void)t;
      if (i % 128 == 0) (void)tracer.Snapshot();
    }
  });
  tracer.SetEnabled(false);
  const std::vector<obs::TraceEvent> events = tracer.Snapshot();
  EXPECT_EQ(events.size(),
            static_cast<std::size_t>(kThreads * kSpansPerThread * 4));
  // Per thread, the interleaved stream must still be a valid span stack:
  // every E matches the name of the B on top of its thread's stack.
  std::map<int, std::vector<const obs::TraceEvent*>> stacks;
  for (const obs::TraceEvent& e : events) {
    std::vector<const obs::TraceEvent*>& stack = stacks[e.tid];
    if (e.phase == 'B') {
      stack.push_back(&e);
      continue;
    }
    ASSERT_EQ(e.phase, 'E');
    ASSERT_FALSE(stack.empty()) << "unmatched end on tid " << e.tid;
    EXPECT_EQ(stack.back()->name, e.name);
    stack.pop_back();
  }
  for (const auto& [tid, stack] : stacks) {
    EXPECT_TRUE(stack.empty()) << "unclosed span on tid " << tid;
  }
}

TEST(ConcurrentSmokeTest, ObjectStoreReadersAlongsideWriter) {
  SmokeInstance inst;
  ObjectStore& store = inst.db.store();
  const ClassId person = inst.setup.person;
  const std::size_t before = store.LiveCount(person);
  std::thread writer([&inst, person] {
    for (int i = 0; i < 500; ++i) {
      inst.db.Insert(person, {{"name", {Value::Str("extra")}}});
    }
  });
  RunInParallel(kThreads - 1, [&store, person](int) {
    for (int i = 0; i < 500; ++i) {
      (void)store.PeekAll(person);
      (void)store.LiveCount(person);
      (void)store.SegmentPages(person);
      (void)store.live_objects();
    }
  });
  writer.join();
  EXPECT_EQ(store.LiveCount(person), before + 500);
}

}  // namespace
}  // namespace pathix
