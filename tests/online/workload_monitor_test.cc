// WorkloadMonitor: exponentially-decayed load estimation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <set>
#include <thread>
#include <vector>

#include "online/workload_monitor.h"

namespace pathix {
namespace {

constexpr ClassId kA = 0;
constexpr ClassId kB = 1;

// Anonymous-path operations with no measured pages attached.
const DbOpEvent kQueryA{DbOpKind::kQuery, kA, {}, false, {}};
const DbOpEvent kInsertB{DbOpKind::kInsert, kB, {}, false, {}};
const DbOpEvent kDeleteB{DbOpKind::kDelete, kB, {}, false, {}};

// The paths' estimates from one drain (no update classes in scope).
MonitorSnapshot SnapshotOf(const WorkloadMonitor& monitor,
                           const std::vector<PathId>& paths = {}) {
  return monitor.Snapshot(paths,
                          std::vector<std::set<ClassId>>(paths.size()));
}

// The anonymous stream's estimate (path ""), with both classes' updates.
LoadDistribution AnonymousLoad(const WorkloadMonitor& monitor) {
  return monitor.Snapshot({""}, {{kA, kB}}).loads[0];
}

TEST(WorkloadMonitorTest, EmptyMonitorEstimatesZero) {
  WorkloadMonitor monitor;
  const MonitorSnapshot snap = SnapshotOf(monitor, {"p"});
  EXPECT_EQ(snap.op_index, 0u);
  EXPECT_DOUBLE_EQ(snap.decayed_total, 0.0);
  EXPECT_DOUBLE_EQ(snap.naive_pages_per_op[0], 0.0);
  const LoadDistribution load = AnonymousLoad(monitor);
  EXPECT_DOUBLE_EQ(load.Get(kA).query, 0.0);
}

TEST(WorkloadMonitorTest, StationaryStreamConvergesToMixProportions) {
  WorkloadMonitor monitor(/*half_life_ops=*/64);
  // Repeating block of 10 ops: 6 A-queries, 3 B-inserts, 1 B-delete.
  for (int round = 0; round < 200; ++round) {
    for (int i = 0; i < 6; ++i) monitor.Observe(kQueryA);
    for (int i = 0; i < 3; ++i) monitor.Observe(kInsertB);
    monitor.Observe(kDeleteB);
  }
  const LoadDistribution load = AnonymousLoad(monitor);
  EXPECT_NEAR(load.Get(kA).query, 0.6, 0.05);
  EXPECT_NEAR(load.Get(kB).insert, 0.3, 0.05);
  EXPECT_NEAR(load.Get(kB).del, 0.1, 0.05);
  // Normalized: everything sums to 1.
  const OpLoad a = load.Get(kA), b = load.Get(kB);
  EXPECT_NEAR(a.query + a.insert + a.del + b.query + b.insert + b.del, 1.0,
              1e-9);
}

TEST(WorkloadMonitorTest, PhaseShiftForgetsOldTrafficWithinHalfLives) {
  WorkloadMonitor monitor(/*half_life_ops=*/32);
  for (int i = 0; i < 1000; ++i) monitor.Observe(kQueryA);
  // Shift: pure B-inserts. After 10 half-lives the A weight is ~2^-10.
  for (int i = 0; i < 320; ++i) monitor.Observe(kInsertB);
  const LoadDistribution load = AnonymousLoad(monitor);
  EXPECT_GT(load.Get(kB).insert, 0.97);
  EXPECT_LT(load.Get(kA).query, 0.03);
}

TEST(WorkloadMonitorTest, NoDecayCountsPlainly) {
  WorkloadMonitor monitor(/*half_life_ops=*/0);  // decay disabled
  for (int i = 0; i < 30; ++i) monitor.Observe(kQueryA);
  for (int i = 0; i < 10; ++i) monitor.Observe(kInsertB);
  EXPECT_DOUBLE_EQ(SnapshotOf(monitor).decayed_total, 40.0);
  const LoadDistribution load = AnonymousLoad(monitor);
  EXPECT_DOUBLE_EQ(load.Get(kA).query, 0.75);
  EXPECT_DOUBLE_EQ(load.Get(kB).insert, 0.25);
}

TEST(WorkloadMonitorTest, ResetClearsState) {
  WorkloadMonitor monitor;
  monitor.Observe({DbOpKind::kQuery, kA, "p", true, AccessStats{7, 0, 0}});
  monitor.Reset();
  const MonitorSnapshot snap = SnapshotOf(monitor, {"p"});
  EXPECT_EQ(snap.op_index, 0u);
  EXPECT_DOUBLE_EQ(snap.decayed_total, 0.0);
  EXPECT_DOUBLE_EQ(snap.naive_pages_per_op[0], 0.0);
}

TEST(WorkloadMonitorTest, PricesNaiveScanPagesPerOperation) {
  WorkloadMonitor monitor(/*half_life_ops=*/0);  // decay disabled
  // Two naive queries of 100 pages each on "p", one indexed query (ignored
  // for pricing) and one insert: 200 pages over 4 operations.
  monitor.Observe({DbOpKind::kQuery, kA, "p", true, AccessStats{60, 40, 0}});
  monitor.Observe({DbOpKind::kQuery, kA, "p", true, AccessStats{100, 0, 0}});
  monitor.Observe({DbOpKind::kQuery, kA, "q", false, AccessStats{5, 0, 0}});
  monitor.Observe({DbOpKind::kInsert, kB, {}, false, AccessStats{0, 1, 0}});
  const MonitorSnapshot snap = SnapshotOf(monitor, {"p", "q"});
  EXPECT_DOUBLE_EQ(snap.naive_pages_per_op[0], 50.0);
  EXPECT_DOUBLE_EQ(snap.naive_pages_per_op[1], 0.0);
}

TEST(WorkloadMonitorTest, NaivePagesDecayLikeTheCounts) {
  WorkloadMonitor monitor(/*half_life_ops=*/2);
  monitor.Observe({DbOpKind::kQuery, kA, "p", true, AccessStats{64, 0, 0}});
  const double fresh = SnapshotOf(monitor, {"p"}).naive_pages_per_op[0];
  EXPECT_GT(fresh, 0.0);
  // Cheap indexed traffic dilutes the estimate: the decayed page sum fades
  // at the same rate as the op weights, so the per-op price falls.
  for (int i = 0; i < 8; ++i) {
    monitor.Observe({DbOpKind::kQuery, kA, "p", false, AccessStats{1, 0, 0}});
  }
  EXPECT_LT(SnapshotOf(monitor, {"p"}).naive_pages_per_op[0], fresh);
}

// Queries on two paths (some naive, with pages), inserts and deletes, in
// an order that revisits every entry at varying gaps.
std::vector<DbOpEvent> MixedEvents(std::size_t n) {
  std::vector<DbOpEvent> events;
  events.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const AccessStats pages{40 + i % 13, i % 5, i % 3};
    switch ((i * 7 + i / 11) % 8) {
      case 0:
      case 5:
        events.push_back({DbOpKind::kQuery, kA, "p", false, pages});
        break;
      case 1:
        events.push_back({DbOpKind::kQuery, kB, "q", false, pages});
        break;
      case 2:
        events.push_back({DbOpKind::kQuery, kA, "p", true, pages});
        break;
      case 3:
        events.push_back({DbOpKind::kInsert, kB, {}, false, pages});
        break;
      case 4:
        events.push_back({DbOpKind::kDelete, kA, {}, false, pages});
        break;
      case 6:
        events.push_back({DbOpKind::kQuery, kB, "q", true, pages});
        break;
      default:
        events.push_back({DbOpKind::kInsert, kA, {}, false, pages});
        break;
    }
  }
  return events;
}

// Every estimate the monitor offers, compared bit for bit.
void ExpectSameEstimates(const WorkloadMonitor& a, const WorkloadMonitor& b) {
  const std::vector<PathId> paths{"p", "q"};
  const std::set<ClassId> scope{kA, kB};
  const std::vector<std::set<ClassId>> scopes{scope, {kB}};
  const MonitorSnapshot sa = a.Snapshot(paths, scopes);
  const MonitorSnapshot sb = b.Snapshot(paths, scopes);
  EXPECT_EQ(sa.op_index, sb.op_index);
  EXPECT_EQ(sa.decayed_total, sb.decayed_total);
  EXPECT_EQ(sa.naive_pages_per_op, sb.naive_pages_per_op);
  const LoadDistribution loads[][2] = {{sa.loads[0], sb.loads[0]},
                                       {sa.loads[1], sb.loads[1]}};
  for (const auto& pair : loads) {
    for (ClassId cls : scope) {
      EXPECT_EQ(pair[0].Get(cls).query, pair[1].Get(cls).query) << cls;
      EXPECT_EQ(pair[0].Get(cls).insert, pair[1].Get(cls).insert) << cls;
      EXPECT_EQ(pair[0].Get(cls).del, pair[1].Get(cls).del) << cls;
    }
  }
}

// Past three full batches, draining on every read or only when a batch
// fills folds the same records in the same order: bit-identical estimates.
TEST(WorkloadMonitorTest, EstimatesDoNotDependOnWhenReadsDrain) {
  const std::vector<DbOpEvent> events =
      MixedEvents(3 * kMonitorBatchCap + 17);
  WorkloadMonitor every_op(/*half_life_ops=*/64);
  WorkloadMonitor at_end(/*half_life_ops=*/64);
  const std::set<ClassId> scope{kA, kB};
  for (const DbOpEvent& ev : events) {
    every_op.Observe(ev);
    at_end.Observe(ev);
    (void)every_op.Snapshot({"p", "q"}, {scope, {}});
  }
  ExpectSameEstimates(every_op, at_end);
  const MonitorSnapshot snap = SnapshotOf(at_end, {"p", "q"});
  EXPECT_GT(snap.naive_pages_per_op[0], 0.0);
  EXPECT_GT(snap.naive_pages_per_op[1], 0.0);
}

// 17 threads observing one after another take 17 consecutive thread slots,
// so the slot numbers wrap and one batch holds two threads' records while
// the batches in between hold later ones. The drain's sort restores op
// order: the estimates match a one-thread run bit for bit.
TEST(WorkloadMonitorTest, WrappedThreadSlotsFoldInOpOrder) {
  constexpr std::size_t kThreads = kThreadSlots + 1;
  const std::vector<DbOpEvent> events =
      MixedEvents(3 * kMonitorBatchCap + 17);
  WorkloadMonitor one_thread(/*half_life_ops=*/64);
  for (const DbOpEvent& ev : events) one_thread.Observe(ev);
  WorkloadMonitor relay(/*half_life_ops=*/64);
  const std::size_t chunk = (events.size() + kThreads - 1) / kThreads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    const std::size_t begin = std::min(events.size(), t * chunk);
    const std::size_t end = std::min(events.size(), begin + chunk);
    std::thread([&relay, &events, begin, end] {
      for (std::size_t i = begin; i < end; ++i) relay.Observe(events[i]);
    }).join();
  }
  ExpectSameEstimates(one_thread, relay);
}

}  // namespace
}  // namespace pathix
