// Satellite differential property: for random small configurations, the
// pager-measured build I/O of the physical registry agrees with the
// transition model's analytic estimate —
//  - the scan side EXACTLY (both read every segment page of every class in
//    each built part's scope, once);
//  - the write side within a documented factor (analytic StorageBytes of
//    the organization model vs the pages the built structures actually
//    occupy): factor 4, asymmetric reality of record rounding, node fill
//    and per-class tree overheads included.
// Failures log the generating seed so the offending configuration can be
// replayed.

#include <gtest/gtest.h>

#include <random>

#include "datagen/generator.h"
#include "datagen/paper_schema.h"
#include "exec/analyze.h"
#include "online/transition_cost.h"

namespace pathix {
namespace {

constexpr double kWriteFactor = 4.0;

/// A random configuration of the 4-level Example 5.1 path: random split
/// points, random organization per part.
IndexConfiguration RandomConfiguration(std::mt19937* rng) {
  const IndexOrg orgs[] = {IndexOrg::kMX, IndexOrg::kMIX, IndexOrg::kNIX,
                           IndexOrg::kNone};
  std::uniform_int_distribution<int> coin(0, 1);
  std::uniform_int_distribution<std::size_t> org(0, 3);
  std::vector<IndexedSubpath> parts;
  int start = 1;
  for (int l = 1; l <= 4; ++l) {
    const bool close = l == 4 || coin(*rng) == 1;
    if (close) {
      parts.push_back(IndexedSubpath{Subpath{start, l}, orgs[org(*rng)]});
      start = l + 1;
    }
  }
  return IndexConfiguration(parts);
}

TEST(BuildCostPropertyTest, MeasuredBuildIoTracksTheAnalyticEstimate) {
  for (const std::uint32_t seed : {11u, 42u, 271u, 828u, 1828u, 31415u}) {
    std::mt19937 rng(seed);
    const PaperSetup setup = MakeExample51Setup();
    SimDatabase db(setup.schema, PhysicalParams{});
    CheckOk(db.RegisterPath("people", setup.path));
    PathDataGenerator gen(seed);
    gen.Populate(&db, setup.path,
                 {
                     {setup.division, 40, 40, 1.0},
                     {setup.company, 40, 0, 3.0},
                     {setup.vehicle, 300, 0, 2.0},
                     {setup.bus, 150, 0, 2.0},
                     {setup.truck, 150, 0, 2.0},
                     {setup.person, 3000, 0, 1.0},
                 });
    const IndexConfiguration config = RandomConfiguration(&rng);

    // The analytic estimate first: nothing installed, everything built.
    const Catalog catalog = CollectStatistics(db.store(), setup.schema,
                                              setup.path, PhysicalParams{});
    const PathContext ctx =
        PathContext::Build(setup.schema, setup.path, catalog,
                           LoadDistribution{})
            .value();
    const TransitionCost analytic =
        EstimateJointTransitionCost({{&ctx, nullptr, &config}}, db.store());

    CheckOk(db.ConfigureIndexes("people", config));
    const AccessStats measured = db.registry().cumulative_build_io();

    SCOPED_TRACE("seed " + std::to_string(seed) + " config " +
                 config.ToString());
    EXPECT_DOUBLE_EQ(static_cast<double>(measured.reads),
                     analytic.scan_pages);
    if (analytic.write_pages == 0) {
      // All-kNone configurations materialize nothing on either side.
      EXPECT_EQ(measured.writes, 0u);
    } else {
      EXPECT_LE(static_cast<double>(measured.writes),
                analytic.write_pages * kWriteFactor);
      EXPECT_LE(analytic.write_pages,
                static_cast<double>(measured.writes) * kWriteFactor);
    }

    // The parts' own build_io sums to the registry's cumulative counter
    // (every part was fresh — nothing was adopted).
    AccessStats per_part;
    for (std::size_t i = 0; i < config.parts().size(); ++i) {
      per_part += db.physical("people").part(i)->index->build_io();
    }
    EXPECT_EQ(per_part, measured);
  }
}

TEST(BuildCostPropertyTest, AdoptedPartsAddNoBuildIo) {
  // A second path covering a structurally identical subpath adopts the live
  // structure: the registry's cumulative build I/O must not move.
  const PaperSetup setup = MakeExample51Setup();
  SimDatabase db(setup.schema, PhysicalParams{});
  PathDataGenerator gen(99);
  gen.Populate(&db, setup.path,
               {
                   {setup.division, 30, 15, 1.0},
                   {setup.company, 30, 0, 2.0},
                   {setup.vehicle, 60, 0, 1.5},
                   {setup.person, 400, 0, 1.5},
               });
  CheckOk(db.RegisterPath("a", setup.path));
  CheckOk(db.RegisterPath("b", setup.path));
  CheckOk(db.ConfigureIndexes(
      "a", IndexConfiguration({{Subpath{1, 4}, IndexOrg::kNIX}})));
  const AccessStats after_first = db.registry().cumulative_build_io();
  EXPECT_GT(after_first.total(), 0u);
  EXPECT_EQ(db.registry().parts_built(), 1u);

  CheckOk(db.ConfigureIndexes(
      "b", IndexConfiguration({{Subpath{1, 4}, IndexOrg::kNIX}})));
  EXPECT_EQ(db.registry().cumulative_build_io(), after_first);
  EXPECT_EQ(db.registry().parts_built(), 1u);
}

}  // namespace
}  // namespace pathix
