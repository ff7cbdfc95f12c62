// Dedicated tests of the NIX cost model's geometry and maintenance terms,
// parameterized over page sizes (the physical knob of PhysicalParams).

#include "costmodel/nix_model.h"

#include <gtest/gtest.h>

#include "costmodel/mix_model.h"
#include "datagen/paper_schema.h"

namespace pathix {
namespace {

class NIXModelTest : public ::testing::TestWithParam<double> {
 protected:
  void SetUp() override {
    setup_ = MakeExample51Setup();
    setup_.catalog.mutable_params()->page_size = GetParam();
    ctx_ = std::make_unique<PathContext>(
        PathContext::Build(setup_.schema, setup_.path, setup_.catalog,
                           setup_.load)
            .value());
  }

  PaperSetup setup_;
  std::unique_ptr<PathContext> ctx_;
};

TEST_P(NIXModelTest, PrimaryKeyedByEndingDistinct) {
  const NIXCostModel nix(*ctx_, 1, 4);
  EXPECT_DOUBLE_EQ(nix.primary().num_records(),
                   ctx_->DistinctKeysLevel(4));
}

TEST_P(NIXModelTest, SubpathPrimaryKeyedByBoundaryOids) {
  // NIX on [1,2] is keyed by Company oids: 1000 of them.
  const NIXCostModel nix(*ctx_, 1, 2);
  EXPECT_DOUBLE_EQ(nix.primary().num_records(), 1000);
}

TEST_P(NIXModelTest, AuxCoversNonRootObjects) {
  const NIXCostModel full(*ctx_, 1, 4);
  ASSERT_TRUE(full.has_aux());
  EXPECT_DOUBLE_EQ(full.aux().num_records(), 22000);  // Veh+Bus+Truck+Comp+Div
  const NIXCostModel prefix(*ctx_, 1, 2);
  ASSERT_TRUE(prefix.has_aux());
  EXPECT_DOUBLE_EQ(prefix.aux().num_records(), 20000);  // vehicle hierarchy
}

TEST_P(NIXModelTest, PartialReadNeverExceedsFullRecord) {
  const NIXCostModel nix(*ctx_, 1, 4);
  for (int l = 1; l <= 4; ++l) {
    const double q = nix.QueryCost(l, 0);
    EXPECT_GE(q, nix.primary().height() - 1);
    EXPECT_LE(q, nix.primary().height() - 1 + nix.primary().record_pages());
  }
}

TEST_P(NIXModelTest, DeepClassSlicesCostMoreToRead) {
  const NIXCostModel nix(*ctx_, 1, 4);
  // Person's slice (560 oids/key) dominates Division's (1 oid/key).
  EXPECT_GE(nix.QueryCost(1, 0), nix.QueryCost(4, 0));
}

TEST_P(NIXModelTest, DeletionDominatesInsertion) {
  const NIXCostModel nix(*ctx_, 1, 4);
  for (int l = 1; l <= 4; ++l) {
    for (int j = 0; j < ctx_->nc(l); ++j) {
      EXPECT_GE(nix.DeleteCost(l, j), nix.InsertCost(l, j) * 0.99)
          << "l=" << l << " j=" << j;
    }
  }
}

TEST_P(NIXModelTest, MidPathDeletionPaysParentPropagation) {
  const NIXCostModel nix(*ctx_, 1, 4);
  // Deleting a Company propagates through vehicle and person layers;
  // deleting a Person (the root) does not propagate upward.
  const double comp_extra =
      nix.DeleteCost(3, 0) - nix.InsertCost(3, 0);
  const double person_extra =
      nix.DeleteCost(1, 0) - nix.InsertCost(1, 0);
  EXPECT_GT(comp_extra, 0);
  // Person's delete/insert difference comes only from pmd vs pmi.
  EXPECT_GE(person_extra, 0);
}

TEST_P(NIXModelTest, BoundaryCostOnlyOnOidEndings) {
  const NIXCostModel mid(*ctx_, 1, 2);
  EXPECT_GT(mid.BoundaryDeleteCost(), 0);
  const NIXCostModel full(*ctx_, 1, 4);
  EXPECT_DOUBLE_EQ(full.BoundaryDeleteCost(), 0);
}

TEST_P(NIXModelTest, BoundaryCostIncludesDelpointBeyondRecordRemoval) {
  const NIXCostModel mid(*ctx_, 1, 2);
  const double record_removal =
      CMLWithPm(mid.primary(), mid.primary().record_pages());
  EXPECT_GT(mid.BoundaryDeleteCost(), record_removal);
}

TEST_P(NIXModelTest, LengthOneHasNoAuxAndMatchesMIXClosely) {
  const NIXCostModel nix(*ctx_, 3, 3);
  const MIXCostModel mix(*ctx_, 3, 3);
  EXPECT_FALSE(nix.has_aux());
  EXPECT_NEAR(nix.QueryCost(3, 0), mix.QueryCost(3, 0),
              1.0 + 0.1 * mix.QueryCost(3, 0));
}

TEST_P(NIXModelTest, StorageIncludesBothTrees) {
  const NIXCostModel nix(*ctx_, 1, 4);
  double primary_pages = 0;
  for (const BTreeLevelInfo& lvl : nix.primary().levels()) {
    primary_pages += lvl.pages;
  }
  EXPECT_GT(nix.StorageBytes(),
            primary_pages * ctx_->params().page_size * 0.99);
}

INSTANTIATE_TEST_SUITE_P(PageSizes, NIXModelTest,
                         ::testing::Values(512.0, 1024.0, 2048.0, 4096.0,
                                           8192.0),
                         [](const ::testing::TestParamInfo<double>& param) {
                           return "p" + std::to_string(
                                            static_cast<int>(param.param));
                         });

}  // namespace
}  // namespace pathix
