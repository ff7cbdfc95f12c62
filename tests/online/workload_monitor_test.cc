// WorkloadMonitor: exponentially-decayed load estimation.

#include <gtest/gtest.h>

#include "online/workload_monitor.h"

namespace pathix {
namespace {

constexpr ClassId kA = 0;
constexpr ClassId kB = 1;

// Anonymous-path operations with no measured pages attached.
const DbOpEvent kQueryA{DbOpKind::kQuery, kA, {}, false, {}};
const DbOpEvent kInsertB{DbOpKind::kInsert, kB, {}, false, {}};
const DbOpEvent kDeleteB{DbOpKind::kDelete, kB, {}, false, {}};

TEST(WorkloadMonitorTest, EmptyMonitorEstimatesZero) {
  WorkloadMonitor monitor;
  EXPECT_EQ(monitor.ops_observed(), 0u);
  EXPECT_DOUBLE_EQ(monitor.DecayedTotal(), 0.0);
  const LoadDistribution load = monitor.EstimatedLoad();
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
  const LoadDistribution load = monitor.EstimatedLoad();
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
  const LoadDistribution load = monitor.EstimatedLoad();
  EXPECT_GT(load.Get(kB).insert, 0.97);
  EXPECT_LT(load.Get(kA).query, 0.03);
}

TEST(WorkloadMonitorTest, NoDecayCountsPlainly) {
  WorkloadMonitor monitor(/*half_life_ops=*/0);  // decay disabled
  for (int i = 0; i < 30; ++i) monitor.Observe(kQueryA);
  for (int i = 0; i < 10; ++i) monitor.Observe(kInsertB);
  EXPECT_DOUBLE_EQ(monitor.DecayedTotal(), 40.0);
  const LoadDistribution load = monitor.EstimatedLoad();
  EXPECT_DOUBLE_EQ(load.Get(kA).query, 0.75);
  EXPECT_DOUBLE_EQ(load.Get(kB).insert, 0.25);
}

TEST(WorkloadMonitorTest, ResetClearsState) {
  WorkloadMonitor monitor;
  monitor.Observe(kQueryA);
  monitor.Reset();
  EXPECT_EQ(monitor.ops_observed(), 0u);
  EXPECT_DOUBLE_EQ(monitor.DecayedTotal(), 0.0);
  EXPECT_DOUBLE_EQ(monitor.MeasuredNaiveQueryPagesPerOp(), 0.0);
}

TEST(WorkloadMonitorTest, PricesNaiveScanPagesPerOperation) {
  WorkloadMonitor monitor(/*half_life_ops=*/0);  // decay disabled
  // Two naive queries of 100 pages each on "p", one indexed query (ignored
  // for pricing) and one insert: 200 pages over 4 operations.
  monitor.Observe({DbOpKind::kQuery, kA, "p", true, AccessStats{60, 40, 0}});
  monitor.Observe({DbOpKind::kQuery, kA, "p", true, AccessStats{100, 0, 0}});
  monitor.Observe({DbOpKind::kQuery, kA, "q", false, AccessStats{5, 0, 0}});
  monitor.Observe({DbOpKind::kInsert, kB, {}, false, AccessStats{0, 1, 0}});
  EXPECT_DOUBLE_EQ(monitor.MeasuredNaiveQueryPagesPerOp("p"), 50.0);
  EXPECT_DOUBLE_EQ(monitor.MeasuredNaiveQueryPagesPerOp("q"), 0.0);
  EXPECT_DOUBLE_EQ(monitor.MeasuredNaiveQueryPagesPerOp(), 50.0);
}

TEST(WorkloadMonitorTest, NaivePagesDecayLikeTheCounts) {
  WorkloadMonitor monitor(/*half_life_ops=*/2);
  monitor.Observe({DbOpKind::kQuery, kA, "p", true, AccessStats{64, 0, 0}});
  const double fresh = monitor.MeasuredNaiveQueryPagesPerOp("p");
  EXPECT_GT(fresh, 0.0);
  // Cheap indexed traffic dilutes the estimate: the decayed page sum fades
  // at the same rate as the op weights, so the per-op price falls.
  for (int i = 0; i < 8; ++i) {
    monitor.Observe({DbOpKind::kQuery, kA, "p", false, AccessStats{1, 0, 0}});
  }
  EXPECT_LT(monitor.MeasuredNaiveQueryPagesPerOp("p"), fresh);
}

}  // namespace
}  // namespace pathix
