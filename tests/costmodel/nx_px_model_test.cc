// Tests of the Section 6 extension organizations: nested index (NX) and
// path index (PX) as additional selection candidates.

#include <gtest/gtest.h>

#include <cmath>

#include "core/advisor.h"
#include "costmodel/nix_model.h"
#include "costmodel/nx_model.h"
#include "costmodel/px_model.h"
#include "datagen/paper_schema.h"
#include "exec/database.h"

namespace pathix {
namespace {

class NxPxModelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    setup_ = MakeExample51Setup();
    ctx_ = std::make_unique<PathContext>(
        PathContext::Build(setup_.schema, setup_.path, setup_.catalog,
                           setup_.load)
            .value());
  }

  PaperSetup setup_;
  std::unique_ptr<PathContext> ctx_;
};

TEST_F(NxPxModelTest, NXAnswersOnlyStartingClassQueries) {
  const NXCostModel nx(*ctx_, 1, 4);
  EXPECT_TRUE(std::isfinite(nx.QueryCost(1, 0)));
  EXPECT_TRUE(std::isinf(nx.QueryCost(2, 0)));
  EXPECT_TRUE(std::isinf(nx.QueryCost(3, 0)));
  EXPECT_TRUE(std::isinf(nx.QueryCost(4, 0)));
}

TEST_F(NxPxModelTest, NXBeatsNIXForRootQueries) {
  // Smaller records (starting-class oids only) -> cheaper probes.
  const NXCostModel nx(*ctx_, 1, 4);
  const NIXCostModel nix(*ctx_, 1, 4);
  EXPECT_LE(nx.QueryCost(1, 0), nix.QueryCost(1, 0) + 1e-9);
}

TEST_F(NxPxModelTest, NXInteriorMaintenancePaysTheScan) {
  const NXCostModel nx(*ctx_, 1, 4);
  // Interior updates must locate starting objects: the 200k-person segment
  // scan dwarfs the root-level maintenance by well over an order of
  // magnitude.
  EXPECT_GT(nx.DeleteCost(2, 0), 30 * nx.DeleteCost(1, 0));
}

TEST_F(NxPxModelTest, PXAnswersEveryClass) {
  const PXCostModel px(*ctx_, 1, 4);
  for (int l = 1; l <= 4; ++l) {
    EXPECT_TRUE(std::isfinite(px.QueryCost(l, 0))) << l;
  }
}

TEST_F(NxPxModelTest, PXStorageDominatesEveryOtherOrganization) {
  const PXCostModel px(*ctx_, 1, 4);
  for (IndexOrg org : kPaperOrgs) {
    const std::unique_ptr<OrgCostModel> other =
        MakeOrgCostModel(org, *ctx_, 1, 4);
    EXPECT_GT(px.StorageBytes(), other->StorageBytes()) << ToString(org);
  }
}

TEST_F(NxPxModelTest, FactoryAndToStringCoverTheExtensions) {
  EXPECT_STREQ(ToString(IndexOrg::kNX), "NX");
  EXPECT_STREQ(ToString(IndexOrg::kPX), "PX");
  EXPECT_NE(MakeOrgCostModel(IndexOrg::kNX, *ctx_, 1, 4), nullptr);
  EXPECT_NE(MakeOrgCostModel(IndexOrg::kPX, *ctx_, 2, 3), nullptr);
}

TEST_F(NxPxModelTest, AdvisorWithExtendedColumnsStillValid) {
  AdvisorOptions opts;
  opts.orgs = {IndexOrg::kMX, IndexOrg::kMIX, IndexOrg::kNIX, IndexOrg::kNX,
               IndexOrg::kPX};
  const Recommendation rec =
      AdviseIndexConfiguration(setup_.schema, setup_.path, setup_.catalog,
                               setup_.load, opts)
          .value();
  EXPECT_TRUE(rec.result.config.Validate(4).ok());
  EXPECT_TRUE(std::isfinite(rec.result.cost));
  // Figure 7's workload queries interior classes, so NX can never cover a
  // subpath containing them with load; the chosen configuration's cost can
  // only improve on the 3-organization optimum.
  const Recommendation base =
      AdviseIndexConfiguration(setup_.schema, setup_.path, setup_.catalog,
                               setup_.load)
          .value();
  EXPECT_LE(rec.result.cost, base.result.cost + 1e-9);
}

TEST_F(NxPxModelTest, NXWinsRootOnlyReadWorkloads) {
  LoadDistribution root_reads;
  root_reads.Set(setup_.person, 1.0, 0.0, 0.0);
  const PathContext ctx = PathContext::Build(setup_.schema, setup_.path,
                                             setup_.catalog, root_reads)
                              .value();
  const CostMatrix m = CostMatrix::Build(
      ctx, {IndexOrg::kMX, IndexOrg::kMIX, IndexOrg::kNIX, IndexOrg::kNX});
  // NX ties or beats every organization on a root-read-only load (with
  // page-granular costs it can tie NIX's partial reads exactly).
  const Subpath whole{1, 4};
  EXPECT_LE(m.Cost(whole, IndexOrg::kNX), m.MinCost(whole) + 1e-9);
  EXPECT_LT(m.Cost(whole, IndexOrg::kNX), m.Cost(whole, IndexOrg::kMX));
  EXPECT_LT(m.Cost(whole, IndexOrg::kNX), m.Cost(whole, IndexOrg::kMIX));
}

TEST_F(NxPxModelTest, InfiniteEntriesNeverWinRows) {
  const CostMatrix m = CostMatrix::Build(
      *ctx_, {IndexOrg::kMX, IndexOrg::kMIX, IndexOrg::kNIX, IndexOrg::kNX,
              IndexOrg::kPX});
  for (const Subpath& sp : m.subpaths()) {
    EXPECT_TRUE(std::isfinite(m.MinCost(sp))) << ToString(sp);
  }
}

TEST_F(NxPxModelTest, PhysicalLayerRejectsModelOnlyOrgs) {
  SimDatabase db(setup_.schema, PhysicalParams{});
  CheckOk(db.RegisterPath("people", setup_.path));
  const Status s = db.ConfigureIndexes(
      "people", IndexConfiguration({{Subpath{1, 4}, IndexOrg::kNX}}));
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST_F(NxPxModelTest, BoundaryCostsDefinedForBothExtensions) {
  const NXCostModel nx(*ctx_, 1, 2);
  const PXCostModel px(*ctx_, 1, 2);
  EXPECT_GT(nx.BoundaryDeleteCost(), 0);
  EXPECT_GT(px.BoundaryDeleteCost(), 0);
  const NXCostModel nx_full(*ctx_, 1, 4);
  EXPECT_DOUBLE_EQ(nx_full.BoundaryDeleteCost(), 0);
}

}  // namespace
}  // namespace pathix
