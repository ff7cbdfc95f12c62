// Fast coverage of the experiment's measured-vs-modeled check on a small
// embedded two-path trace. Unlike the whole-trace envelope checks on the
// shipped specs (online_drift_test and online_joint_drift_test, labeled
// `slow`), this one runs in every configuration — including the sanitizer
// CI jobs, so the tally reset/read around the avg-mix replay and the
// per-phase catalog plumbing stay under ASan/UBSan and TSan on every push.

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "online/joint_experiment.h"

namespace pathix {
namespace {

// Two head classes querying through one shared ending class: both paths
// produce per-path cells, and the shared tail exercises the deduped
// maintenance accounting.
constexpr const char* kSmallSpec = R"(
class H1 300 1 1
class H2 300 1 1
class M  60 60 1

ref H1 r M multi
ref H2 r M multi
attr M name string

path a H1 r name
path b H2 r name
orgs MX NIX NONE

populate H1 200 1 1.0
populate H2 200 1 1.0
populate M  50 50 1.0
trace_seed 5

phase search 600
mix a H1 0.40 0.02 0.02
mix b H2 0.40 0 0

phase churn 600
mix a H1 0.05 0.30 0.20
mix b H2 0.30 0 0
)";

TEST(MeasuredValidationTest, SmallTraceProducesComparableCells) {
  Result<TraceSpec> parsed = ParseTraceSpec(kSmallSpec);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  Result<JointExperimentReport> result =
      RunJointOnlineExperiment(parsed.value(), ControllerOptions{});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const JointExperimentReport& r = result.value();
  ASSERT_FALSE(r.statics.empty());
  EXPECT_EQ(r.statics[0].label, "avg-mix");
  const MeasuredVsModeled& report = r.measured_vs_modeled;

  ASSERT_EQ(r.statics[0].configs.size(), 2u);
  ASSERT_EQ(report.phases.size(), 2u);
  // Both paths clear the min-query-ops bar in the search phase; path b in
  // both phases.
  ASSERT_GE(report.cells.size(), 3u);

  // At laptop scale the envelope is looser than on the shipped traces
  // (small trees, coarse page rounding), but measured and modeled must
  // stay within one order of magnitude cell by cell.
  for (const MeasuredVsModeledCell& cell : report.cells) {
    EXPECT_GT(cell.modeled_pages_per_op, 0) << cell.phase << "/" << cell.path;
    EXPECT_GT(cell.measured_pages_per_op, 0)
        << cell.phase << "/" << cell.path;
    EXPECT_LE(cell.measured_pages_per_op, cell.modeled_pages_per_op * 8)
        << cell.phase << "/" << cell.path;
    EXPECT_LE(cell.modeled_pages_per_op, cell.measured_pages_per_op * 8)
        << cell.phase << "/" << cell.path;
  }
  for (const MeasuredVsModeledPhase& phase : report.phases) {
    EXPECT_GT(phase.modeled_pages_per_op, 0) << phase.phase;
    EXPECT_LE(phase.measured_pages_per_op, phase.modeled_pages_per_op * 8)
        << phase.phase;
    EXPECT_LE(phase.modeled_pages_per_op, phase.measured_pages_per_op * 8)
        << phase.phase;
  }
}

// Every runner of a spec — the experiment here, pathix_serve through the
// examples_serve_rejects_range_predicates ctest — rejects unreplayable
// specs through one shared guard: NX/PX are model-only organizations, a
// replay runs equality probes only (matching_keys 1), and a replay needs
// a path.
TEST(MeasuredValidationTest, RunnersShareTheReplayGuard) {
  std::string nx_text = kSmallSpec;
  const std::string orgs_line = "orgs MX NIX NONE";
  nx_text.replace(nx_text.find(orgs_line), orgs_line.size(), "orgs MX NX");
  Result<TraceSpec> nx = ParseTraceSpec(nx_text);
  ASSERT_TRUE(nx.ok()) << nx.status().ToString();

  std::string range_text = kSmallSpec;
  range_text.replace(range_text.find(orgs_line), orgs_line.size(),
                     orgs_line + "\nmatching_keys 20");
  Result<TraceSpec> range = ParseTraceSpec(range_text);
  ASSERT_TRUE(range.ok()) << range.status().ToString();

  Result<TraceSpec> parsed = ParseTraceSpec(kSmallSpec);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  TraceSpec no_paths = parsed.value();
  no_paths.paths.clear();

  const std::pair<const TraceSpec*, StatusCode> cases[] = {
      {&nx.value(), StatusCode::kFailedPrecondition},
      {&range.value(), StatusCode::kFailedPrecondition},
      {&no_paths, StatusCode::kInvalidArgument}};
  for (const auto& [spec, code] : cases) {
    EXPECT_EQ(CheckReplayableSpec(*spec).code(), code);
    EXPECT_EQ(
        RunJointOnlineExperiment(*spec, ControllerOptions{}).status().code(),
        code);
  }
}

// Determinism of the check itself: a second run reproduces every number
// bit for bit (the envelope would be meaningless over a noisy measurement).
TEST(MeasuredValidationTest, HarnessIsDeterministic) {
  Result<TraceSpec> parsed = ParseTraceSpec(kSmallSpec);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  const JointExperimentReport run_a =
      RunJointOnlineExperiment(parsed.value(), ControllerOptions{}).value();
  const JointExperimentReport run_b =
      RunJointOnlineExperiment(parsed.value(), ControllerOptions{}).value();
  const MeasuredVsModeled& a = run_a.measured_vs_modeled;
  const MeasuredVsModeled& b = run_b.measured_vs_modeled;
  ASSERT_FALSE(a.cells.empty());
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_EQ(a.cells[i].phase, b.cells[i].phase);
    EXPECT_EQ(a.cells[i].path, b.cells[i].path);
    EXPECT_EQ(a.cells[i].measured_pages_per_op,
              b.cells[i].measured_pages_per_op);
    EXPECT_EQ(a.cells[i].modeled_pages_per_op,
              b.cells[i].modeled_pages_per_op);
    EXPECT_EQ(a.cells[i].query_ops, b.cells[i].query_ops);
  }
  ASSERT_EQ(a.phases.size(), b.phases.size());
  for (std::size_t i = 0; i < a.phases.size(); ++i) {
    EXPECT_EQ(a.phases[i].measured_pages_per_op,
              b.phases[i].measured_pages_per_op);
    EXPECT_EQ(a.phases[i].modeled_pages_per_op,
              b.phases[i].modeled_pages_per_op);
  }
}

}  // namespace
}  // namespace pathix
