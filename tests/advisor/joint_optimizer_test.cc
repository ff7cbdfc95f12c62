#include "advisor/joint_optimizer.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "advisor/workload_advisor.h"
#include "datagen/paper_schema.h"

namespace pathix {
namespace {

/// Recomputes a joint result's total from its parts: per-path query/prefix
/// shares plus one maintenance charge per distinct chosen entry.
double RecomputeTotal(const CandidatePool& pool,
                      const JointSelectionResult& joint) {
  double total = 0;
  std::map<int, double> max_maint;
  for (std::size_t i = 0; i < joint.per_path.size(); ++i) {
    for (const IndexedSubpath& part : joint.per_path[i].config.parts()) {
      const CandidateUse& use =
          pool.UseFor(static_cast<int>(i), part.subpath, part.org);
      total += use.query_prefix;
      const int entry =
          pool.EntryFor(static_cast<int>(i), part.subpath, part.org);
      max_maint[entry] = std::max(max_maint[entry], use.maintain);
    }
  }
  for (const auto& [entry, maint] : max_maint) total += maint;
  return total;
}

class JointOptimizerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    setup_ = MakeExample51Setup();
    paths_.push_back(PathWorkload{"", setup_.path, setup_.load});

    LoadDistribution audit_load;
    audit_load.Set(setup_.company, 0.5, 0.05, 0.05);
    audit_load.Set(setup_.vehicle, 0.3, 0.0, 0.05);
    audit_load.Set(setup_.division, 0.15, 0.1, 0.05);
    paths_.push_back(PathWorkload{
        "",
        Path::Create(setup_.schema, setup_.vehicle, {"man", "divs", "name"})
            .value(),
        audit_load});

    LoadDistribution div_load;
    div_load.Set(setup_.division, 0.8, 0.1, 0.1);
    div_load.Set(setup_.company, 0.1, 0.1, 0.1);
    paths_.push_back(PathWorkload{
        "",
        Path::Create(setup_.schema, setup_.company, {"divs", "name"}).value(),
        div_load});
  }

  PaperSetup setup_;
  std::vector<PathWorkload> paths_;
};

TEST_F(JointOptimizerTest, AcceptanceJointLeqGreedyLeqIndependent) {
  // The headline invariant on >= 3 overlapping paths.
  const WorkloadRecommendation rec =
      AdviseWorkload(setup_.schema, setup_.catalog, paths_).value();
  EXPECT_LE(rec.total_cost_joint, rec.total_cost_greedy + 1e-9);
  EXPECT_LE(rec.total_cost_greedy, rec.total_cost_independent + 1e-9);
  // On this workload the joint optimum strictly beats the greedy seed: the
  // seed keeps per-path optima that disagree on the shared tail's org.
  EXPECT_LT(rec.total_cost_joint, rec.total_cost_greedy - 1e-6);
  // Every path still gets a valid configuration.
  for (std::size_t i = 0; i < paths_.size(); ++i) {
    EXPECT_TRUE(rec.joint.per_path[i]
                    .config.Validate(paths_[i].path.length())
                    .ok());
  }
}

TEST_F(JointOptimizerTest, TotalCostMatchesSharedAccounting) {
  const CandidatePool pool =
      CandidatePool::Build(setup_.schema, setup_.catalog, paths_).value();
  const JointSelectionResult joint =
      SelectJointConfiguration(pool).value();
  EXPECT_NEAR(joint.total_cost, RecomputeTotal(pool, joint), 1e-9);

  // Reported storage equals the sum over the distinct chosen entries.
  double storage = 0;
  for (const ChosenIndex& c : joint.chosen) {
    storage +=
        pool.entries()[static_cast<std::size_t>(c.entry_id)].storage_bytes;
  }
  EXPECT_NEAR(joint.total_storage_bytes, storage, 1e-6);
}

TEST_F(JointOptimizerTest, ExhaustiveAndBranchAndBoundAgree) {
  const CandidatePool pool =
      CandidatePool::Build(setup_.schema, setup_.catalog, paths_).value();
  JointOptions ex_opts;
  ex_opts.algorithm = JointOptions::Algorithm::kExhaustive;
  JointOptions bb_opts;
  bb_opts.algorithm = JointOptions::Algorithm::kBranchAndBound;
  const JointSelectionResult ex = SelectJointConfiguration(pool, ex_opts).value();
  const JointSelectionResult bb = SelectJointConfiguration(pool, bb_opts).value();
  EXPECT_NEAR(ex.total_cost, bb.total_cost, 1e-9);
  EXPECT_LT(bb.nodes_explored, ex.nodes_explored);
}

TEST_F(JointOptimizerTest, DefaultSolveIsTheBoundedSearch) {
  const CandidatePool pool =
      CandidatePool::Build(setup_.schema, setup_.catalog, {paths_[0]})
          .value();
  JointOptions bb_opts;
  bb_opts.algorithm = JointOptions::Algorithm::kBranchAndBound;
  JointOptions ex_opts;
  ex_opts.algorithm = JointOptions::Algorithm::kExhaustive;
  const JointSelectionResult def = SelectJointConfiguration(pool).value();
  const JointSelectionResult bb = SelectJointConfiguration(pool, bb_opts).value();
  const JointSelectionResult ex = SelectJointConfiguration(pool, ex_opts).value();
  EXPECT_TRUE(def.per_path[0].config == bb.per_path[0].config);
  EXPECT_EQ(def.total_cost, bb.total_cost);
  EXPECT_EQ(def.nodes_explored, bb.nodes_explored);
  EXPECT_LT(def.nodes_explored, ex.nodes_explored);
}

TEST_F(JointOptimizerTest, SinglePathMatchesStandaloneAdvisor) {
  const CandidatePool pool =
      CandidatePool::Build(setup_.schema, setup_.catalog,
                           {paths_[0]})
          .value();
  const JointSelectionResult joint = SelectJointConfiguration(pool).value();
  const Recommendation single =
      AdviseIndexConfiguration(setup_.schema, setup_.path, setup_.catalog,
                               setup_.load)
          .value();
  EXPECT_NEAR(joint.total_cost, single.result.cost, 1e-9);
}

TEST_F(JointOptimizerTest, BindingBudgetReturnsFeasibleConfiguration) {
  const CandidatePool pool =
      CandidatePool::Build(setup_.schema, setup_.catalog, paths_).value();
  const JointSelectionResult unconstrained =
      SelectJointConfiguration(pool).value();

  JointOptions opts;
  opts.storage_budget_bytes = unconstrained.total_storage_bytes * 0.6;
  const Result<JointSelectionResult> constrained =
      SelectJointConfiguration(pool, opts);
  ASSERT_TRUE(constrained.ok()) << constrained.status().ToString();
  EXPECT_LE(constrained.value().total_storage_bytes,
            opts.storage_budget_bytes + 1e-6);
  // Feasibility costs something: the constrained optimum cannot beat the
  // unconstrained one.
  EXPECT_GE(constrained.value().total_cost, unconstrained.total_cost - 1e-9);
  for (std::size_t i = 0; i < paths_.size(); ++i) {
    EXPECT_TRUE(constrained.value()
                    .per_path[i]
                    .config.Validate(paths_[i].path.length())
                    .ok());
  }
}

TEST_F(JointOptimizerTest, ZeroBudgetWithoutNoneIsAClearError) {
  const CandidatePool pool =
      CandidatePool::Build(setup_.schema, setup_.catalog, paths_).value();
  JointOptions opts;
  opts.storage_budget_bytes = 0;
  const Result<JointSelectionResult> r = SelectJointConfiguration(pool, opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(r.status().message().find("storage budget"), std::string::npos);
}

TEST_F(JointOptimizerTest, ZeroBudgetWithNoneDegradesToScans) {
  AdvisorOptions options;
  options.orgs = {IndexOrg::kMX, IndexOrg::kMIX, IndexOrg::kNIX,
                  IndexOrg::kNone};
  const CandidatePool pool =
      CandidatePool::Build(setup_.schema, setup_.catalog, paths_, options)
          .value();
  JointOptions opts;
  opts.storage_budget_bytes = 0;
  const Result<JointSelectionResult> r = SelectJointConfiguration(pool, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NEAR(r.value().total_storage_bytes, 0, 1e-9);
  // Everything degraded to the cheapest feasible (index-free) candidates.
  for (const JointPathSelection& sel : r.value().per_path) {
    for (const IndexedSubpath& part : sel.config.parts()) {
      EXPECT_EQ(part.org, IndexOrg::kNone);
    }
  }
}

TEST_F(JointOptimizerTest, MxOnlyUnderABindingBudgetIsAClearError) {
  // Only the one-level rows have an MX entry: every configuration is the
  // per-level MX split, and none fits a one-byte budget.
  AdvisorOptions options;
  options.orgs = {IndexOrg::kMX};
  const CandidatePool pool =
      CandidatePool::Build(setup_.schema, setup_.catalog, paths_, options)
          .value();
  JointOptions opts;
  opts.storage_budget_bytes = 1;
  const Result<JointSelectionResult> r = SelectJointConfiguration(pool, opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(r.status().message().find("storage budget"), std::string::npos);
  // Without the budget the split is the one configuration per path.
  const JointSelectionResult free_solve =
      SelectJointConfiguration(pool).value();
  EXPECT_EQ(free_solve.configs_enumerated, 3);
  for (std::size_t i = 0; i < paths_.size(); ++i) {
    EXPECT_EQ(free_solve.per_path[i].config.parts().size(),
              static_cast<std::size_t>(paths_[i].path.length()));
  }
}

TEST_F(JointOptimizerTest, MxAndNoneWithoutBudgetMatchesExhaustive) {
  AdvisorOptions options;
  options.orgs = {IndexOrg::kMX, IndexOrg::kNone};
  const CandidatePool pool =
      CandidatePool::Build(setup_.schema, setup_.catalog, paths_, options)
          .value();
  JointOptions ex_opts;
  ex_opts.algorithm = JointOptions::Algorithm::kExhaustive;
  const Result<JointSelectionResult> bb = SelectJointConfiguration(pool);
  ASSERT_TRUE(bb.ok()) << bb.status().ToString();
  const JointSelectionResult ex =
      SelectJointConfiguration(pool, ex_opts).value();
  EXPECT_NEAR(bb.value().total_cost, ex.total_cost, 1e-9);
  EXPECT_NEAR(bb.value().total_cost, RecomputeTotal(pool, bb.value()), 1e-9);
  for (std::size_t i = 0; i < paths_.size(); ++i) {
    for (const IndexedSubpath& part : bb.value().per_path[i].config.parts()) {
      EXPECT_EQ(part.subpath.length(), 1);
    }
  }
}

TEST_F(JointOptimizerTest, IdenticalPathsPayMaintenanceOnce) {
  const std::vector<PathWorkload> twins = {paths_[0], paths_[0]};
  const CandidatePool pool =
      CandidatePool::Build(setup_.schema, setup_.catalog, twins).value();
  const JointSelectionResult joint = SelectJointConfiguration(pool).value();
  const Recommendation single =
      AdviseIndexConfiguration(setup_.schema, setup_.path, setup_.catalog,
                               setup_.load)
          .value();
  // Twice the retrieval share, one maintenance charge: strictly cheaper
  // than two independent copies.
  EXPECT_LT(joint.total_cost, 2 * single.result.cost - 1e-9);
  for (const ChosenIndex& c : joint.chosen) {
    EXPECT_EQ(c.path_indexes.size(), 2u);
  }
}

/// A one-path pool over the reference chain C0 -> ... -> C_depth ending in
/// an atomic attribute: a path of n = depth + 1 attributes.
CandidatePool ChainPool(int depth) {
  Schema schema;
  Catalog catalog;
  std::vector<ClassId> classes;
  for (int i = 0; i <= depth; ++i) {
    classes.push_back(schema.AddClass("C" + std::to_string(i)).value());
    catalog.SetClassStats(classes.back(), ClassStats{10000, 5000, 1, 64});
  }
  std::vector<std::string> attrs;
  for (int i = 0; i < depth; ++i) {
    attrs.push_back("a" + std::to_string(i));
    EXPECT_TRUE(schema
                    .AddReferenceAttribute(
                        classes[static_cast<std::size_t>(i)], attrs.back(),
                        classes[static_cast<std::size_t>(i + 1)],
                        /*multi_valued=*/false)
                    .ok());
  }
  attrs.push_back("name");
  EXPECT_TRUE(
      schema.AddAtomicAttribute(classes.back(), "name", AtomicType::kString)
          .ok());
  PathWorkload w;
  w.path = Path::Create(schema, classes.front(), attrs).value();
  for (const ClassId cls : classes) w.load.Set(cls, 0.5, 0.1, 0.1);
  return CandidatePool::Build(schema, catalog, {w}).value();
}

TEST(JointOptimizerCapTest, PathPastTheCapFailsBeforeEnumerating) {
  const auto expect_over_cap = [](const Result<JointSelectionResult>& r,
                                  const char* count) {
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(r.status().message().find(count), std::string::npos)
        << r.status().ToString();
  };
  // Under a budget a one-level block keeps all three organizations and a
  // longer one MIX and NIX: 1542841 configurations at n = 11 (413403 at
  // n = 10, inside the cap).
  JointOptions budgeted;
  budgeted.storage_budget_bytes = 1e12;
  expect_over_cap(SelectJointConfiguration(ChainPool(10), budgeted),
                  "1542841");
  // Without one, each block keeps its cheapest: 2^19 = 524288 at n = 20.
  expect_over_cap(SelectJointConfiguration(ChainPool(19)), "524288");
  // 2^8 = 256 at n = 9 is well inside the cap.
  const Result<JointSelectionResult> inside =
      SelectJointConfiguration(ChainPool(8));
  ASSERT_TRUE(inside.ok()) << inside.status().ToString();
  EXPECT_EQ(inside.value().configs_enumerated, 256);
}

}  // namespace
}  // namespace pathix
