// Fast coverage of the measured-vs-modeled harness on a small embedded
// two-path trace. Unlike the whole-trace envelope test on the shipped specs
// (integration_measured_vs_modeled_test, labeled `slow`), this one runs in
// every configuration — including the sanitizer CI job, so the harness's
// observer re-attach, tally iteration and catalog plumbing stay under
// ASan/UBSan on every push.

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "online/joint_experiment.h"
#include "online/measured_validation.h"

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
measure on

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
  ASSERT_TRUE(parsed.value().measure);

  Result<MeasuredVsModeledReport> result =
      RunMeasuredVsModeled(parsed.value());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const MeasuredVsModeledReport& report = result.value();

  ASSERT_EQ(report.configs.size(), 2u);
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

// Both trace runners reject unreplayable specs through one shared guard:
// NX/PX are model-only organizations, and a replay needs a path.
TEST(MeasuredValidationTest, RunnersShareTheReplayGuard) {
  std::string nx_text = kSmallSpec;
  const std::string orgs_line = "orgs MX NIX NONE";
  nx_text.replace(nx_text.find(orgs_line), orgs_line.size(), "orgs MX NX");
  Result<TraceSpec> nx = ParseTraceSpec(nx_text);
  ASSERT_TRUE(nx.ok()) << nx.status().ToString();

  Result<TraceSpec> parsed = ParseTraceSpec(kSmallSpec);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  TraceSpec no_paths = parsed.value();
  no_paths.paths.clear();

  const std::pair<const TraceSpec*, StatusCode> cases[] = {
      {&nx.value(), StatusCode::kFailedPrecondition},
      {&no_paths, StatusCode::kInvalidArgument}};
  for (const auto& [spec, code] : cases) {
    EXPECT_EQ(RunMeasuredVsModeled(*spec).status().code(), code);
    EXPECT_EQ(
        RunJointOnlineExperiment(*spec, ControllerOptions{}).status().code(),
        code);
  }
}

}  // namespace
}  // namespace pathix
