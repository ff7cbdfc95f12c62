// Acceptance criteria of the multi-path online subsystem, on the shipped
// two-path three-phase drift trace with its binding storage budget: total
// joint online page cost (including modeled transition charges) beats the
// best static *joint* assignment and stays within 2x of the per-phase
// joint oracle; and the cost model stays within its measured-vs-modeled
// envelope on the avg-mix static's replay, per path and per phase.

#include <gtest/gtest.h>

#include "exec/analyze.h"
#include "online/joint_experiment.h"
#include "serve/serve_driver.h"

namespace pathix {
namespace {

TEST(JointDriftTraceTest, OnlineBeatsBestStaticJointAndTracksTheOracle) {
  Result<TraceSpec> parsed = ParseTraceSpecFile(
      std::string(PATHIX_SOURCE_DIR) +
      "/examples/specs/vehicle_joint_trace.pix");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const TraceSpec& spec = parsed.value();
  ASSERT_EQ(spec.paths.size(), 2u);
  ASSERT_EQ(spec.phases.size(), 3u);
  ASSERT_TRUE(spec.has_budget);

  Result<JointExperimentReport> result =
      RunJointOnlineExperiment(spec, ControllerOptions{});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const JointExperimentReport& r = result.value();

  // The drift is real: the joint oracle changes its assignment across
  // phases, and the online controller reconfigured (beyond the initial
  // install) to follow it. Every commit saves more than the solver's tie
  // tolerance: a relabeling of the installed layout's cost (two on this
  // trace) is a hold, so the run commits 5 reconfigurations.
  ASSERT_EQ(r.oracle_configs.size(), 3u);
  EXPECT_FALSE(r.oracle_configs[0] == r.oracle_configs[1]);
  std::size_t commits = 0;
  std::size_t switches = 0;
  for (const PhaseReport& phase : r.online.phases) {
    for (const DecisionRecord& rec : phase.decisions) {
      if (rec.verdict == "hold") continue;
      ++commits;
      if (rec.verdict == "switch") ++switches;
      EXPECT_GT(rec.hysteresis.savings_per_op, kJointCostTolerance)
          << "check " << rec.check_number;
    }
  }
  EXPECT_EQ(commits, 5u);
  EXPECT_GE(switches, 1u);

  // Acceptance: beat every budget-feasible static assignment, stay within
  // 2x of clairvoyance. Transition charges are part of the online total.
  ASSERT_GE(r.best_static_joint, 0);
  EXPECT_LT(r.online.total_cost(), r.best_static_joint_cost());
  EXPECT_LE(r.online_vs_oracle(), 2.0);
  EXPECT_GT(r.online.transition_pages(), 0.0);
  EXPECT_DOUBLE_EQ(
      r.online.total_cost(),
      r.online.measured_pages() + r.online.transition_pages());

  // The joint oracle is a genuine lower envelope: no budget-feasible static
  // assignment (same candidate set, free install) beats it.
  for (const JointStaticCandidate& c : r.statics) {
    if (!c.respects_budget) continue;
    EXPECT_GE(c.run.total_cost(), r.oracle.total_cost() * 0.999) << c.label;
  }

  // The cost model's envelope on the avg-mix static's replay (statics[0]),
  // as in drift_test.cc: per-path query cells within a factor 3 of the
  // matrix (observed here: 0.59..1.06, fleet's registry cell the lowest),
  // whole-phase totals within 2 (observed: 1.06..1.40).
  constexpr double kCellFactor = 3.0;
  constexpr double kPhaseFactor = 2.0;
  const MeasuredVsModeled& report = r.measured_vs_modeled;
  ASSERT_EQ(r.statics[0].label, "avg-mix");
  ASSERT_EQ(r.statics[0].configs.size(), spec.paths.size());
  ASSERT_EQ(report.phases.size(), spec.phases.size());
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

TEST(JointDriftTraceTest, BudgetBindsAndIsRespectedByEveryOnlineSelection) {
  Result<TraceSpec> parsed = ParseTraceSpecFile(
      std::string(PATHIX_SOURCE_DIR) +
      "/examples/specs/vehicle_joint_trace.pix");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const TraceSpec& spec = parsed.value();

  // Binding: solved without the budget, the first phase's joint optimum
  // picks a different (bigger) assignment than under it.
  TraceSpec unbudgeted = spec;
  unbudgeted.storage_budget_bytes =
      std::numeric_limits<double>::infinity();
  unbudgeted.has_budget = false;

  SimDatabase db(spec.schema, spec.catalog.params());
  ServeDriver driver(&db, spec, ServeOptions{1});
  driver.Populate();

  const auto solve = [&](const TraceSpec& s) {
    PhysicalParams params = s.catalog.params();
    params.page_size = static_cast<double>(db.pager().page_size());
    Catalog catalog(params);
    std::vector<PathWorkload> workloads;
    for (std::size_t p = 0; p < s.paths.size(); ++p) {
      std::set<ClassId> scope;
      const std::vector<ClassId> scope_vec =
          s.paths[p].path.Scope(s.schema);
      scope.insert(scope_vec.begin(), scope_vec.end());
      RefreshStatistics(db.store(), s.schema, s.paths[p].path, scope,
                        &catalog);
      PathWorkload w;
      w.name = s.paths[p].id;
      w.path = s.paths[p].path;
      w.load = s.phases[0].mixes[p];
      workloads.push_back(std::move(w));
    }
    AdvisorOptions advisor_options;
    advisor_options.orgs = s.options.orgs;
    CandidatePool pool =
        CandidatePool::Build(s.schema, catalog, workloads, advisor_options)
            .value();
    JointOptions joint_options;
    joint_options.storage_budget_bytes = s.storage_budget_bytes;
    return SelectJointConfiguration(pool, joint_options).value();
  };

  const JointSelectionResult budgeted = solve(spec);
  const JointSelectionResult free_solve = solve(unbudgeted);
  EXPECT_LE(budgeted.total_storage_bytes, spec.storage_budget_bytes + 1e-6);
  EXPECT_GT(free_solve.total_storage_bytes, spec.storage_budget_bytes);
  bool differs = false;
  for (std::size_t p = 0; p < budgeted.per_path.size(); ++p) {
    if (!(budgeted.per_path[p].config == free_solve.per_path[p].config)) {
      differs = true;
    }
  }
  EXPECT_TRUE(differs) << "the shipped budget does not bind";

  // Served under the options the spec implies, every assignment the online
  // controller commits fits the budget (the chosen rows of an install or
  // switch record carry the whole assignment's distinct-index storage).
  JointReconfigurationController controller(&db, ControllerOptionsFor(spec));
  db.SetObserver(&controller);
  for (std::size_t i = 0; i < spec.phases.size(); ++i) {
    driver.RunPhase(i, &controller);
  }
  db.SetObserver(nullptr);
  CheckOk(controller.status());
  int commits = 0;
  for (const DecisionRecord& rec : controller.decisions()) {
    if (rec.verdict != "install" && rec.verdict != "switch") continue;
    ++commits;
    for (const DecisionCandidate& cand : rec.candidates) {
      if (!cand.chosen) continue;
      EXPECT_GT(cand.storage_bytes, 0.0) << "check " << rec.check_number;
      EXPECT_LE(cand.storage_bytes, spec.storage_budget_bytes + 1e-6)
          << "check " << rec.check_number;
    }
  }
  EXPECT_GT(commits, 1);
}

}  // namespace
}  // namespace pathix
