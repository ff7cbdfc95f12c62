// Acceptance criteria of the online subsystem, on the shipped three-phase
// drift trace: total online page cost (including modeled transition
// charges) beats the best single static configuration and stays within 2x
// of the per-phase offline oracle; and the cost model stays within its
// measured-vs-modeled envelope on the avg-mix static's replay.

#include <gtest/gtest.h>

#include "online/joint_experiment.h"

namespace pathix {
namespace {

TEST(DriftTraceTest, OnlineBeatsBestStaticAndTracksTheOracle) {
  Result<TraceSpec> spec = ParseTraceSpecFile(
      std::string(PATHIX_SOURCE_DIR) +
      "/examples/specs/vehicle_drift_trace.pix");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  ASSERT_EQ(spec.value().phases.size(), 3u);

  Result<JointExperimentReport> result =
      RunJointOnlineExperiment(spec.value(), ControllerOptions{});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const JointExperimentReport& r = result.value();

  // The drift is real: the oracle changes its configuration across phases,
  // and the online controller actually reconfigured (beyond the initial
  // install) to follow it.
  ASSERT_EQ(r.oracle_configs.size(), 3u);
  EXPECT_FALSE(r.oracle_configs[0] == r.oracle_configs[1]);
  std::size_t switches = 0;
  for (const PhaseReport& phase : r.online.phases) {
    for (const DecisionRecord& rec : phase.decisions) {
      if (rec.verdict == "switch") ++switches;
    }
  }
  EXPECT_GE(switches, 1u);

  // Acceptance: beat every static choice, stay within 2x of clairvoyance.
  ASSERT_GE(r.best_static_joint, 0);
  ASSERT_GE(r.statics.size(), 2u);  // avg-mix plus distinct phase optima
  EXPECT_LT(r.online.total_cost(), r.best_static_joint_cost());
  EXPECT_LE(r.online_vs_oracle(), 2.0);

  // Transition charges are included in the online total and are not free.
  EXPECT_GT(r.online.transition_pages(), 0.0);
  EXPECT_DOUBLE_EQ(
      r.online.total_cost(),
      r.online.measured_pages() + r.online.transition_pages());

  // The oracle is a genuine lower envelope per phase construction: no
  // static candidate (same candidate set, free install) beats it.
  for (const JointStaticCandidate& c : r.statics) {
    EXPECT_GE(c.run.total_cost(), r.oracle.total_cost() * 0.999);
  }

  // The cost model stays inside a stated envelope of pager-measured
  // reality over the whole replayed trace, per path and per phase, on the
  // avg-mix static's replay (statics[0]). This extends model_vs_sim_test.cc
  // (single queries, fresh statistics) to what the selection pipeline
  // consumes: trace-long expectations under drifting mixes, with
  // shared-part maintenance deduped exactly as the joint advisor prices it.
  // The envelope is asymmetric and documented in the README ("Measured vs
  // modeled costs"):
  //  - per-path query cells: measured within [1/3, 3] of the matrix — the
  //    same factor the single-query validation grants each organization
  //    model (observed on the shipped specs: 0.59..1.06);
  //  - whole-phase totals (queries + maintenance + store baseline): within
  //    [1/2, 2] — maintenance models are the loosest component (observed:
  //    1.05..1.40, the update-heavy ingest phase being the worst).
  constexpr double kCellFactor = 3.0;
  constexpr double kPhaseFactor = 2.0;
  const MeasuredVsModeled& report = r.measured_vs_modeled;
  ASSERT_EQ(r.statics[0].label, "avg-mix");
  ASSERT_EQ(r.statics[0].configs.size(), spec.value().paths.size());
  ASSERT_EQ(report.phases.size(), spec.value().phases.size());
  ASSERT_FALSE(report.cells.empty());

  for (const MeasuredVsModeledCell& cell : report.cells) {
    ASSERT_GT(cell.modeled_pages_per_op, 0)
        << cell.phase << "/" << cell.path;
    EXPECT_LE(cell.measured_pages_per_op,
              cell.modeled_pages_per_op * kCellFactor)
        << cell.phase << "/" << cell.path << " over " << cell.query_ops
        << " query ops";
    EXPECT_LE(cell.modeled_pages_per_op,
              cell.measured_pages_per_op * kCellFactor)
        << cell.phase << "/" << cell.path << " over " << cell.query_ops
        << " query ops";
  }
  for (const MeasuredVsModeledPhase& phase : report.phases) {
    ASSERT_GT(phase.modeled_pages_per_op, 0) << phase.phase;
    EXPECT_LE(phase.measured_pages_per_op,
              phase.modeled_pages_per_op * kPhaseFactor)
        << phase.phase;
    EXPECT_LE(phase.modeled_pages_per_op,
              phase.measured_pages_per_op * kPhaseFactor)
        << phase.phase;
  }
}

}  // namespace
}  // namespace pathix
