#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "advisor/workload_advisor.h"

/// \file joint_property_test.cc
/// \brief Randomized-workload properties of the joint optimizer (the
/// companion of tests/core/optimizer_property_test.cc one layer up):
///
///  - joint <= greedy <= independent on any unbudgeted workload of
///    overlapping paths (the greedy seed's sharing can only remove
///    duplicated maintenance; the joint optimizer searches a superset of
///    the seed's solutions), and the reported greedy total is the seed's;
///  - branch-and-bound and exhaustive enumeration agree on the optimal
///    total (exhaustive is ground truth);
///  - the reported total matches re-derived shared accounting, and every
///    chosen configuration is a valid cover of its path.

namespace pathix {
namespace {

/// A random reference chain C0 -> ... -> C_depth ending in an atomic
/// attribute, with random statistics, plus suffix paths with random loads —
/// suffixes of one chain overlap maximally, which stresses the sharing
/// accounting.
struct RandomWorkload {
  Schema schema;
  Catalog catalog;
  std::vector<PathWorkload> paths;
};

RandomWorkload MakeRandomWorkload(std::uint32_t seed, int depth,
                                  int num_paths) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> objects(500, 100000);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_int_distribution<int> nin(1, 3);
  std::uniform_int_distribution<int> start_level(0, depth - 1);

  RandomWorkload w;
  std::vector<ClassId> classes;
  for (int i = 0; i <= depth; ++i) {
    const ClassId cls = w.schema.AddClass("C" + std::to_string(i)).value();
    classes.push_back(cls);
    const double n = objects(rng);
    const double d = std::max(1.0, n * (0.1 + 0.9 * unit(rng)));
    w.catalog.SetClassStats(cls, ClassStats{n, d, double(nin(rng)), 64});
  }
  for (int i = 0; i < depth; ++i) {
    EXPECT_TRUE(w.schema
                    .AddReferenceAttribute(
                        classes[static_cast<std::size_t>(i)],
                        "a" + std::to_string(i),
                        classes[static_cast<std::size_t>(i + 1)],
                        /*multi_valued=*/unit(rng) < 0.5)
                    .ok());
  }
  EXPECT_TRUE(w.schema
                  .AddAtomicAttribute(classes.back(), "name",
                                      AtomicType::kString)
                  .ok());

  for (int p = 0; p < num_paths; ++p) {
    const int start = p == 0 ? 0 : start_level(rng);  // always one full path
    std::vector<std::string> attrs;
    for (int i = start; i < depth; ++i) {
      attrs.push_back("a" + std::to_string(i));
    }
    attrs.push_back("name");
    PathWorkload pw;
    pw.path = Path::Create(w.schema,
                           classes[static_cast<std::size_t>(start)], attrs)
                  .value();
    for (int i = start; i <= depth; ++i) {
      pw.load.Set(classes[static_cast<std::size_t>(i)], unit(rng),
                  unit(rng) * 0.5, unit(rng) * 0.5);
    }
    w.paths.push_back(std::move(pw));
  }
  return w;
}

TEST(JointPropertyTest, JointLeqGreedyLeqIndependent) {
  AdvisorOptions with_none;
  with_none.orgs = {IndexOrg::kMX, IndexOrg::kMIX, IndexOrg::kNIX,
                    IndexOrg::kNone};
  for (const AdvisorOptions& options : {AdvisorOptions{}, with_none}) {
    for (std::uint32_t seed = 1; seed <= 15; ++seed) {
      const RandomWorkload w = MakeRandomWorkload(seed, /*depth=*/3,
                                                  /*num_paths=*/3);
      const Result<WorkloadRecommendation> rec =
          AdviseWorkload(w.schema, w.catalog, w.paths, options);
      ASSERT_TRUE(rec.ok()) << "seed=" << seed << ": "
                            << rec.status().ToString();
      const WorkloadRecommendation& r = rec.value();
      EXPECT_EQ(r.total_cost_greedy, r.joint.greedy_cost) << "seed=" << seed;
      EXPECT_LE(r.total_cost_joint, r.total_cost_greedy + 1e-7)
          << "seed=" << seed;
      EXPECT_LE(r.total_cost_greedy, r.total_cost_independent + 1e-7)
          << "seed=" << seed;
      for (std::size_t i = 0; i < w.paths.size(); ++i) {
        EXPECT_TRUE(r.joint.per_path[i]
                        .config.Validate(w.paths[i].path.length())
                        .ok())
            << "seed=" << seed << " path=" << i;
      }
    }
  }
}

TEST(JointPropertyTest, BranchAndBoundMatchesExhaustive) {
  for (std::uint32_t seed = 100; seed <= 112; ++seed) {
    const RandomWorkload w = MakeRandomWorkload(seed, /*depth=*/2,
                                                /*num_paths=*/3);
    const CandidatePool pool =
        CandidatePool::Build(w.schema, w.catalog, w.paths).value();
    JointOptions ex_opts;
    ex_opts.algorithm = JointOptions::Algorithm::kExhaustive;
    JointOptions bb_opts;
    bb_opts.algorithm = JointOptions::Algorithm::kBranchAndBound;
    const JointSelectionResult ex =
        SelectJointConfiguration(pool, ex_opts).value();
    const JointSelectionResult bb =
        SelectJointConfiguration(pool, bb_opts).value();
    ASSERT_NEAR(ex.total_cost, bb.total_cost, 1e-7) << "seed=" << seed;
  }
}

TEST(JointPropertyTest, BudgetedSolutionsAreFeasibleAndMonotone) {
  for (std::uint32_t seed = 200; seed <= 208; ++seed) {
    const RandomWorkload w = MakeRandomWorkload(seed, /*depth=*/2,
                                                /*num_paths=*/2);
    AdvisorOptions options;
    options.orgs = {IndexOrg::kMX, IndexOrg::kMIX, IndexOrg::kNIX,
                    IndexOrg::kNone};
    const CandidatePool pool =
        CandidatePool::Build(w.schema, w.catalog, w.paths, options).value();
    const JointSelectionResult unconstrained =
        SelectJointConfiguration(pool).value();

    double previous_cost = unconstrained.total_cost;
    for (const double fraction : {0.75, 0.5, 0.25, 0.0}) {
      JointOptions opts;
      opts.storage_budget_bytes =
          unconstrained.total_storage_bytes * fraction;
      const Result<JointSelectionResult> r =
          SelectJointConfiguration(pool, opts);
      // NONE is a candidate, so a zero-storage assignment always exists.
      ASSERT_TRUE(r.ok()) << "seed=" << seed << ": "
                          << r.status().ToString();
      EXPECT_LE(r.value().total_storage_bytes,
                opts.storage_budget_bytes + 1e-6)
          << "seed=" << seed << " fraction=" << fraction;
      // Tightening the budget can only cost more.
      EXPECT_GE(r.value().total_cost, previous_cost - 1e-7)
          << "seed=" << seed << " fraction=" << fraction;
      previous_cost = r.value().total_cost;
    }
  }
}

}  // namespace
}  // namespace pathix
