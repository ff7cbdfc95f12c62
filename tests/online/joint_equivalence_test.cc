// The paper's problem — one path, no storage budget — is the one-path case
// of the joint controller. This golden pins its commit records on the
// shipped drift trace: every committed reconfiguration's op index,
// configuration change and modeled and measured transition totals, plus
// the number of drift checks. The values come from a controller that
// solved each drift check with the O(n^2) interval DP (Jordan et al.'s
// per-step selection), so the joint solver's recombination enumeration
// must make the identical one-path decisions.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "online/joint_controller.h"
#include "serve/serve_driver.h"

namespace pathix {
namespace {

struct GoldenCommit {
  std::uint64_t op_index;
  const char* from;  ///< rendered configuration; "{}" on the install
  const char* to;
  double modeled_pages;
  double measured_pages;
};

constexpr std::uint64_t kGoldenChecks = 15;
const GoldenCommit kGoldenCommits[] = {
    {256, "{}", "{(Person.owns.man.divs.name, NIX)}", 138, 250},
    {3072, "{(Person.owns.man.divs.name, NIX)}",
     "{(Person.owns.man, NIX), (Company.divs.name, NIX)}", 310, 383},
    {3840, "{(Person.owns.man, NIX), (Company.divs.name, NIX)}",
     "{(Person.owns, MX), (Vehicle.man.divs.name, NIX)}", 206, 241},
    {4096, "{(Person.owns, MX), (Vehicle.man.divs.name, NIX)}",
     "{(Person.owns, MX), (Vehicle.man, MIX), (Company.divs.name, NIX)}", 51,
     56},
    {4864, "{(Person.owns, MX), (Vehicle.man, MIX), (Company.divs.name, NIX)}",
     "{(Person.owns, NONE), (Vehicle.man, NONE), (Company.divs.name, NIX)}",
     43, 43},
};

TEST(JointEquivalenceTest, OnePathNoBudgetMatchesTheSinglePathGolden) {
  Result<TraceSpec> parsed = ParseTraceSpecFile(
      std::string(PATHIX_SOURCE_DIR) +
      "/examples/specs/vehicle_drift_trace.pix");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const TraceSpec& spec = parsed.value();
  ASSERT_EQ(spec.paths.size(), 1u);
  ASSERT_FALSE(spec.has_budget);

  SimDatabase db(spec.schema, spec.catalog.params());
  ServeDriver driver(&db, spec, ServeOptions{1});
  driver.Populate();
  JointReconfigurationController controller(&db, ControllerOptionsFor(spec));
  db.SetObserver(&controller);
  for (std::size_t i = 0; i < spec.phases.size(); ++i) {
    driver.RunPhase(i, &controller);
  }
  db.SetObserver(nullptr);
  CheckOk(controller.status());

  EXPECT_EQ(controller.checks_run(), kGoldenChecks);
  ASSERT_EQ(controller.events_committed(), std::size(kGoldenCommits));
  std::vector<const DecisionRecord*> commits;
  for (const DecisionRecord& rec : controller.decisions()) {
    if (rec.verdict != "hold") commits.push_back(&rec);
  }
  ASSERT_EQ(commits.size(), std::size(kGoldenCommits));
  for (std::size_t i = 0; i < commits.size(); ++i) {
    const DecisionRecord& rec = *commits[i];
    const GoldenCommit& golden = kGoldenCommits[i];
    SCOPED_TRACE("commit " + std::to_string(i));
    EXPECT_EQ(rec.op_index, golden.op_index);
    EXPECT_EQ(rec.verdict, i == 0 ? "install" : "switch");
    ASSERT_EQ(rec.changes.size(), 1u);
    EXPECT_EQ(rec.changes[0].path, spec.paths[0].id);
    EXPECT_EQ(rec.changes[0].from, golden.from);
    EXPECT_EQ(rec.changes[0].to, golden.to);
    EXPECT_DOUBLE_EQ(rec.hysteresis.modeled.total(), golden.modeled_pages);
    EXPECT_DOUBLE_EQ(rec.hysteresis.measured.total(), golden.measured_pages);
  }
  // The install is gated against the measured naive-scan status quo.
  EXPECT_GT(commits.front()->hysteresis.savings_per_op, 0.0);
  EXPECT_DOUBLE_EQ(controller.transition_pages_charged(), 748);
  EXPECT_DOUBLE_EQ(controller.measured_transition_pages_charged(), 973);
}

}  // namespace
}  // namespace pathix
