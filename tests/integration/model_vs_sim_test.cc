// Integration test: the analytic cost model's predictions agree with the
// page-level simulator within tolerance bands, and — decisive for the
// selection algorithm — rank the organizations identically (the light-weight
// in-suite version of bench_validation).

#include <gtest/gtest.h>

#include "costmodel/org_model.h"
#include "datagen/generator.h"
#include "datagen/paper_schema.h"
#include "exec/analyze.h"
#include "exec/database.h"

namespace pathix {
namespace {

constexpr int kDistinct = 40;
constexpr char kPeople[] = "people";

struct Instance {
  Instance() : setup(MakeExample51Setup()), db(setup.schema, PhysicalParams{}) {
    CheckOk(db.RegisterPath(kPeople, setup.path));
    PathDataGenerator gen(31415);
    gen.Populate(&db, setup.path,
                 {
                     {setup.division, 40, kDistinct, 1.0},
                     {setup.company, 40, 0, 3.0},
                     {setup.vehicle, 300, 0, 2.0},
                     {setup.bus, 150, 0, 2.0},
                     {setup.truck, 150, 0, 2.0},
                     {setup.person, 5000, 0, 1.0},
                 });
    catalog = CollectStatistics(db.store(), setup.schema, setup.path,
                                PhysicalParams{});
  }

  double MeasuredQueryCost(ClassId target) {
    double total = 0;
    const int n = 20;
    for (int i = 0; i < n; ++i) {
      db.pager().ResetStats();
      CheckOk(
          db.Query(kPeople, Key::FromString(EndingValue(i % kDistinct)), target)
              .status());
      total += static_cast<double>(db.pager().stats().total());
    }
    return total / n;
  }

  PaperSetup setup;
  SimDatabase db;
  Catalog catalog;
};

class ModelVsSimTest : public ::testing::TestWithParam<IndexOrg> {};

TEST_P(ModelVsSimTest, QueryPredictionsWithinTolerance) {
  const IndexOrg org = GetParam();
  Instance inst;
  CheckOk(inst.db.ConfigureIndexes(
      kPeople, IndexConfiguration({{Subpath{1, 4}, org}})));
  LoadDistribution load;
  const PathContext ctx = PathContext::Build(inst.setup.schema,
                                             inst.setup.path, inst.catalog,
                                             load)
                              .value();
  const std::unique_ptr<OrgCostModel> model =
      MakeOrgCostModel(org, ctx, 1, 4);

  const struct {
    int level;
    ClassId cls;
  } probes[] = {{1, inst.setup.person},
                {2, inst.setup.vehicle},
                {4, inst.setup.division}};
  for (const auto& p : probes) {
    const double predicted = model->QueryCost(p.level, 0);
    const double measured = inst.MeasuredQueryCost(p.cls);
    // Within a factor of 3 in both directions.
    EXPECT_LE(predicted, measured * 3 + 3)
        << ToString(org) << " level " << p.level;
    EXPECT_LE(measured, predicted * 3 + 3)
        << ToString(org) << " level " << p.level;
  }
}

INSTANTIATE_TEST_SUITE_P(Orgs, ModelVsSimTest,
                         ::testing::Values(IndexOrg::kMX, IndexOrg::kMIX,
                                           IndexOrg::kNIX),
                         [](const ::testing::TestParamInfo<IndexOrg>& param_info) {
                           return ToString(param_info.param);
                         });

TEST(ModelVsSimRankingTest, DeepQueryRankingAgrees) {
  double measured[3];
  double predicted[3];
  const IndexOrg orgs[] = {IndexOrg::kMX, IndexOrg::kMIX, IndexOrg::kNIX};
  for (int i = 0; i < 3; ++i) {
    Instance inst;
    CheckOk(inst.db.ConfigureIndexes(
        kPeople, IndexConfiguration({{Subpath{1, 4}, orgs[i]}})));
    LoadDistribution load;
    const PathContext ctx = PathContext::Build(inst.setup.schema,
                                               inst.setup.path, inst.catalog,
                                               load)
                                .value();
    predicted[i] = MakeOrgCostModel(orgs[i], ctx, 1, 4)->QueryCost(1, 0);
    measured[i] = inst.MeasuredQueryCost(inst.setup.person);
  }
  // NIX must be the cheapest deep-query organization on both sides — the
  // paper's central premise.
  EXPECT_LT(predicted[2], predicted[0]);
  EXPECT_LT(predicted[2], predicted[1]);
  EXPECT_LT(measured[2], measured[0]);
  EXPECT_LT(measured[2], measured[1]);
}

TEST(ModelVsSimRankingTest, NIXMaintenanceCostlierThanMXInBoth) {
  double measured[2];
  double predicted[2];
  const IndexOrg orgs[] = {IndexOrg::kMX, IndexOrg::kNIX};
  for (int i = 0; i < 2; ++i) {
    Instance inst;
    CheckOk(inst.db.ConfigureIndexes(
        kPeople, IndexConfiguration({{Subpath{1, 4}, orgs[i]}})));
    LoadDistribution load;
    const PathContext ctx = PathContext::Build(inst.setup.schema,
                                               inst.setup.path, inst.catalog,
                                               load)
                                .value();
    predicted[i] = MakeOrgCostModel(orgs[i], ctx, 1, 4)->DeleteCost(2, 0);
    // Measure: delete 20 vehicles.
    std::vector<Oid> victims = inst.db.store().PeekAll(inst.setup.vehicle);
    double total = 0;
    for (int k = 0; k < 20; ++k) {
      inst.db.pager().ResetStats();
      CheckOk(inst.db.Delete(victims[static_cast<std::size_t>(k) * 7]));
      total += static_cast<double>(inst.db.pager().stats().total());
    }
    measured[i] = total / 20;
  }
  EXPECT_GT(predicted[1], predicted[0]);
  EXPECT_GT(measured[1], measured[0]);
}

}  // namespace
}  // namespace pathix
