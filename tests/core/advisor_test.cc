#include "core/advisor.h"

#include <gtest/gtest.h>

#include "datagen/paper_schema.h"

namespace pathix {
namespace {

// ------------------------------------------------------- Example 5.1 (E7)

class Example51Test : public ::testing::Test {
 protected:
  void SetUp() override {
    setup_ = MakeExample51Setup();
    Result<Recommendation> rec = AdviseIndexConfiguration(
        setup_.schema, setup_.path, setup_.catalog, setup_.load);
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    rec_ = std::make_unique<Recommendation>(std::move(rec).value());
  }

  PaperSetup setup_;
  std::unique_ptr<Recommendation> rec_;
};

TEST_F(Example51Test, OptimalConfigurationMatchesThePaper) {
  // The paper's Opt_Ind_Con result:
  // {(Per.owns.man, NIX), (Comp.divs.name, MX)}.
  ASSERT_EQ(rec_->result.config.degree(), 2);
  EXPECT_EQ(rec_->result.config.parts()[0],
            (IndexedSubpath{Subpath{1, 2}, IndexOrg::kNIX}));
  EXPECT_EQ(rec_->result.config.parts()[1],
            (IndexedSubpath{Subpath{3, 4}, IndexOrg::kMX}));
  EXPECT_EQ(rec_->result.config.ToString(setup_.schema, setup_.path),
            "{(Person.owns.man, NIX), (Company.divs.name, MX)}");
}

TEST_F(Example51Test, WholePathSingleIndexIsWorseAndNIXCompetitive) {
  // Paper: a whole-path NIX costs 42.84 (the best single index) vs 16.03
  // for the configuration — a factor 2.7. Our physical parameters differ
  // from the unavailable report [7]: the whole-path row is a NIX/MIX
  // near-tie (within a few percent; EXPERIMENTS.md), and splitting
  // improves by a clear margin either way.
  const Subpath whole{1, 4};
  const double nix = rec_->matrix.Cost(whole, IndexOrg::kNIX);
  // NIX lands within 15% of the whole-path winner; which of NIX/MIX is
  // first depends on the physical constants of [7].
  EXPECT_LE(nix, rec_->whole_path_cost * 1.15);
  EXPECT_GT(rec_->improvement_factor, 1.3);
  EXPECT_LT(rec_->result.cost, rec_->whole_path_cost);
}

TEST_F(Example51Test, BranchAndBoundExploresFewerThanExhaustive) {
  // Paper: 4 configurations explored instead of all 8.
  EXPECT_LT(rec_->result.evaluated, 8);
  EXPECT_GT(rec_->result.pruned, 0);
  const OptimizeResult ex = SelectExhaustive(rec_->matrix);
  EXPECT_EQ(ex.evaluated, 8);
  EXPECT_DOUBLE_EQ(ex.cost, rec_->result.cost);
}

TEST_F(Example51Test, PartCostsCoverTheConfiguration) {
  ASSERT_EQ(rec_->part_costs.size(), 2u);
  double total = 0;
  for (const SubpathCost& c : rec_->part_costs) total += c.total();
  EXPECT_NEAR(total, rec_->result.cost, 1e-9);
}

TEST_F(Example51Test, MatrixRowMinimaAreConsistent) {
  const CostMatrix& m = rec_->matrix;
  for (const Subpath& sp : m.subpaths()) {
    const double min_cost = m.MinCost(sp);
    for (IndexOrg org : m.orgs()) {
      EXPECT_LE(min_cost, m.Cost(sp, org));
    }
    EXPECT_DOUBLE_EQ(m.Cost(sp, m.MinOrg(sp)), min_cost);
  }
}

TEST_F(Example51Test, PrefixSubpathPrefersNIX) {
  // Figure 8's pattern: the query-heavy prefix Per.owns.man is cheapest
  // under NIX (single-probe queries for 0.65 of the query mass).
  EXPECT_EQ(rec_->matrix.MinOrg(Subpath{1, 2}), IndexOrg::kNIX);
}

TEST_F(Example51Test, NoneOrganizationNeverWinsWhenEnabled) {
  // With scans costing thousands of pages, kNone must not displace real
  // indexes anywhere on this workload.
  AdvisorOptions opts;
  opts.orgs = {IndexOrg::kMX, IndexOrg::kMIX, IndexOrg::kNIX, IndexOrg::kNone};
  const Recommendation rec =
      AdviseIndexConfiguration(setup_.schema, setup_.path, setup_.catalog,
                               setup_.load, opts)
          .value();
  for (const IndexedSubpath& part : rec.result.config.parts()) {
    EXPECT_NE(part.org, IndexOrg::kNone);
  }
  EXPECT_DOUBLE_EQ(rec.result.cost, rec_->result.cost);
}

TEST_F(Example51Test, ScaledSetupKeepsTheShape) {
  // The physical simulator runs the same shape at 1/10 scale; the chosen
  // split must survive scaling.
  const PaperSetup scaled = MakeExample51Setup(10);
  const Recommendation rec =
      AdviseIndexConfiguration(scaled.schema, scaled.path, scaled.catalog,
                               scaled.load)
          .value();
  ASSERT_EQ(rec.result.config.degree(), 2);
  EXPECT_EQ(rec.result.config.parts()[0].subpath, (Subpath{1, 2}));
  EXPECT_EQ(rec.result.config.parts()[0].org, IndexOrg::kNIX);
}

// ------------------------------------------------------------- edge cases

TEST(AdvisorTest, SingleClassPath) {
  PaperSetup setup = MakeExample51Setup();
  const Path path =
      Path::Create(setup.schema, setup.division, {"name"}).value();
  const Recommendation rec =
      AdviseIndexConfiguration(setup.schema, path, setup.catalog, setup.load)
          .value();
  EXPECT_EQ(rec.result.config.degree(), 1);
  EXPECT_GT(rec.result.cost, 0);
}

TEST(AdvisorTest, QueryOnlyWorkloadPicksNIXEverywhere) {
  PaperSetup setup = MakeExample51Setup();
  LoadDistribution query_only;
  query_only.Set(setup.person, 1.0, 0.0, 0.0);
  const Recommendation rec =
      AdviseIndexConfiguration(setup.schema, setup.path, setup.catalog,
                               query_only)
          .value();
  // All query load w.r.t. the path root: one NIX over the whole path is
  // unbeatable (single probe per query, no maintenance).
  EXPECT_EQ(rec.result.config.degree(), 1);
  EXPECT_EQ(rec.result.config.parts()[0].org, IndexOrg::kNIX);
}

TEST(AdvisorTest, UpdateOnlyWorkloadAvoidsNIXOnLongSubpaths) {
  PaperSetup setup = MakeExample51Setup();
  LoadDistribution update_only;
  update_only.Set(setup.person, 0.0, 1.0, 1.0);
  update_only.Set(setup.vehicle, 0.0, 1.0, 1.0);
  update_only.Set(setup.company, 0.0, 1.0, 1.0);
  update_only.Set(setup.division, 0.0, 1.0, 1.0);
  const Recommendation rec =
      AdviseIndexConfiguration(setup.schema, setup.path, setup.catalog,
                               update_only)
          .value();
  for (const IndexedSubpath& part : rec.result.config.parts()) {
    if (part.subpath.length() > 1) {
      EXPECT_NE(part.org, IndexOrg::kNIX) << part.subpath.start;
    }
  }
}

}  // namespace
}  // namespace pathix
