// The workload advisor facade (advisor/workload_advisor.h): its greedy and
// independent baselines come from the joint solver's greedy seed, and the
// distinct indexes it reports (joint.chosen) share by structure, never
// across differently rooted heads.

#include "advisor/workload_advisor.h"

#include <gtest/gtest.h>

#include "datagen/paper_schema.h"

namespace pathix {
namespace {

class WorkloadAdvisorTest : public ::testing::Test {
 protected:
  void SetUp() override { setup_ = MakeExample51Setup(); }
  PaperSetup setup_;
};

TEST_F(WorkloadAdvisorTest, EmptyInputRejected) {
  EXPECT_FALSE(AdviseWorkload(setup_.schema, setup_.catalog, {}).ok());
}

TEST_F(WorkloadAdvisorTest, OnePathBaselinesEqualThePaperAdvisor) {
  const WorkloadRecommendation rec =
      AdviseWorkload(setup_.schema, setup_.catalog,
                     {{"", setup_.path, setup_.load}})
          .value();
  const Recommendation single =
      AdviseIndexConfiguration(setup_.schema, setup_.path, setup_.catalog,
                               setup_.load)
          .value();
  EXPECT_EQ(rec.total_cost_greedy, rec.joint.greedy_cost);
  EXPECT_NEAR(rec.total_cost_joint, single.result.cost, 1e-9);
  EXPECT_NEAR(rec.total_cost_greedy, single.result.cost, 1e-9);
  EXPECT_NEAR(rec.total_cost_independent, single.result.cost, 1e-9);
  ASSERT_EQ(rec.joint.greedy_per_path.size(), 1u);
  EXPECT_NEAR(rec.joint.greedy_per_path[0].standalone_cost,
              single.result.cost, 1e-9);
  // The paper's (Company.divs.name, MX) is the pool's per-level split.
  EXPECT_EQ(rec.joint.per_path[0].config.ToString(setup_.schema, setup_.path),
            "{(Person.owns.man, NIX), (Company.divs, MX), (Division.name, MX)}");
}

TEST_F(WorkloadAdvisorTest, IdenticalPathsShareEveryChosenIndex) {
  const WorkloadRecommendation rec =
      AdviseWorkload(setup_.schema, setup_.catalog,
                     {{"", setup_.path, setup_.load},
                      {"", setup_.path, setup_.load}})
          .value();
  ASSERT_FALSE(rec.joint.chosen.empty());
  for (const ChosenIndex& c : rec.joint.chosen) {
    EXPECT_EQ(c.path_indexes, (std::vector<int>{0, 1}));
  }
  // Twice the retrieval share, one maintenance charge.
  EXPECT_LT(rec.total_cost_greedy, rec.total_cost_independent - 1e-9);
  EXPECT_LE(rec.total_cost_joint, rec.total_cost_greedy + 1e-9);
}

TEST_F(WorkloadAdvisorTest, SubclassTypedHeadsNeverShareAnIndex) {
  // Vehicle.man... and Bus.man... navigate the same inherited attribute but
  // are rooted at different classes: a shared index can only lie on the
  // common Company tail.
  LoadDistribution vehicle_load;
  vehicle_load.Set(setup_.vehicle, 0.4, 0.1, 0.1);
  vehicle_load.Set(setup_.division, 0.2, 0.1, 0.1);
  LoadDistribution bus_load;
  bus_load.Set(setup_.bus, 0.4, 0.1, 0.1);
  bus_load.Set(setup_.division, 0.2, 0.1, 0.1);
  const Path vehicle_path =
      Path::Create(setup_.schema, setup_.vehicle, {"man", "divs", "name"})
          .value();
  const Path bus_path =
      Path::Create(setup_.schema, setup_.bus, {"man", "divs", "name"})
          .value();

  const WorkloadRecommendation rec =
      AdviseWorkload(setup_.schema, setup_.catalog,
                     {{"", vehicle_path, vehicle_load},
                      {"", bus_path, bus_load}})
          .value();
  for (const ChosenIndex& c : rec.joint.chosen) {
    if (c.path_indexes.size() < 2) continue;
    const CandidateEntry& e =
        rec.pool.entries()[static_cast<std::size_t>(c.entry_id)];
    EXPECT_NE(e.key.classes.front(), setup_.vehicle) << e.label;
    EXPECT_NE(e.key.classes.front(), setup_.bus) << e.label;
  }
}

}  // namespace
}  // namespace pathix
