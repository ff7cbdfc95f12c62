// The paper's problem — one path, no storage budget — is the one-path case
// of the joint controller. This golden pins its event log on the shipped
// drift trace: every committed reconfiguration's op index, configuration
// change and modeled and measured transition totals, plus the number of
// drift checks. The values come from a controller that solved each drift
// check with the O(n^2) interval DP (Jordan et al.'s per-step selection),
// so the joint solver's recombination enumeration must make the identical
// one-path decisions.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "online/joint_controller.h"
#include "serve/serve_driver.h"

namespace pathix {
namespace {

struct GoldenEvent {
  std::uint64_t op_index;
  const char* from;  ///< IndexConfiguration::ToString; "{}" when initial
  const char* to;
  double modeled_pages;
  double measured_pages;
};

constexpr std::uint64_t kGoldenChecks = 15;
const GoldenEvent kGoldenEvents[] = {
    {256, "{}", "{(S[1,4], NIX)}", 138, 250},
    {3072, "{(S[1,4], NIX)}", "{(S[1,2], NIX), (S[3,4], NIX)}", 310, 383},
    {3840, "{(S[1,2], NIX), (S[3,4], NIX)}", "{(S[1,1], MX), (S[2,4], NIX)}",
     206, 241},
    {4096, "{(S[1,1], MX), (S[2,4], NIX)}",
     "{(S[1,1], MX), (S[2,2], MIX), (S[3,4], NIX)}", 51, 56},
    {4864, "{(S[1,1], MX), (S[2,2], MIX), (S[3,4], NIX)}",
     "{(S[1,1], NONE), (S[2,2], NONE), (S[3,4], NIX)}", 43, 43},
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
  const std::vector<JointReconfigurationEvent>& events = controller.events();
  ASSERT_EQ(events.size(), std::size(kGoldenEvents));
  for (std::size_t i = 0; i < events.size(); ++i) {
    const JointReconfigurationEvent& ev = events[i];
    const GoldenEvent& golden = kGoldenEvents[i];
    SCOPED_TRACE("event " + std::to_string(i));
    EXPECT_EQ(ev.op_index, golden.op_index);
    EXPECT_EQ(ev.initial, i == 0);
    ASSERT_EQ(ev.changes.size(), 1u);
    EXPECT_EQ(ev.changes[0].path, spec.paths[0].id);
    EXPECT_EQ(ev.changes[0].from.ToString(), golden.from);
    EXPECT_EQ(ev.changes[0].to.ToString(), golden.to);
    EXPECT_DOUBLE_EQ(ev.transition.total(), golden.modeled_pages);
    EXPECT_DOUBLE_EQ(ev.measured.total(), golden.measured_pages);
  }
  // The install is gated against the measured naive-scan status quo.
  EXPECT_GT(events.front().predicted_savings_per_op, 0.0);
  EXPECT_DOUBLE_EQ(controller.transition_pages_charged(), 748);
  EXPECT_DOUBLE_EQ(controller.measured_transition_pages_charged(), 973);
}

}  // namespace
}  // namespace pathix
