#include "advisor/candidate_pool.h"

#include <gtest/gtest.h>

#include <set>

#include "costmodel/subpath_cost.h"
#include "datagen/paper_schema.h"

namespace pathix {
namespace {

class CandidatePoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    setup_ = MakeExample51Setup();
    full_ = PathWorkload{"", setup_.path, setup_.load};

    LoadDistribution audit_load;
    audit_load.Set(setup_.company, 0.5, 0.05, 0.05);
    audit_load.Set(setup_.vehicle, 0.3, 0.0, 0.05);
    audit_load.Set(setup_.division, 0.15, 0.1, 0.05);
    audit_ = PathWorkload{
        "",
        Path::Create(setup_.schema, setup_.vehicle, {"man", "divs", "name"})
            .value(),
        audit_load};

    LoadDistribution div_load;
    div_load.Set(setup_.division, 0.8, 0.1, 0.1);
    divisions_ = PathWorkload{
        "",
        Path::Create(setup_.schema, setup_.company, {"divs", "name"}).value(),
        div_load};
  }

  PaperSetup setup_;
  PathWorkload full_;
  PathWorkload audit_;
  PathWorkload divisions_;
};

TEST_F(CandidatePoolTest, EmptyWorkloadRejected) {
  EXPECT_FALSE(CandidatePool::Build(setup_.schema, setup_.catalog, {}).ok());
}

TEST_F(CandidatePoolTest, SinglePathEnumeratesEverySubpathTimesOrg) {
  const CandidatePool pool =
      CandidatePool::Build(setup_.schema, setup_.catalog, {full_}).value();
  ASSERT_EQ(pool.num_paths(), 1);
  EXPECT_EQ(pool.path_length(0), 4);
  // The 4 one-level subpaths under the 3 default orgs, the 6 longer ones
  // under MIX and NIX only; no duplicates within one path.
  EXPECT_EQ(pool.entries().size(), 4u * 3u + 6u * 2u);
  for (const CandidateEntry& e : pool.entries()) {
    ASSERT_EQ(e.uses.size(), 1u);
    EXPECT_FALSE(e.shareable);
    EXPECT_GE(e.uses[0].query_prefix, 0);
    EXPECT_GE(e.uses[0].maintain, 0);
    EXPECT_GT(e.storage_bytes, 0);
  }
}

TEST_F(CandidatePoolTest, OverlappingPathsDeduplicateStructurally) {
  const CandidatePool pool =
      CandidatePool::Build(setup_.schema, setup_.catalog,
                           {full_, audit_, divisions_})
          .value();
  ASSERT_EQ(pool.num_paths(), 3);

  // Company.divs.name is levels [3,4] of the full path, [2,3] of the audit
  // path and [1,2] of the standalone division path: one entry, three uses.
  const int e_full = pool.EntryFor(0, Subpath{3, 4}, IndexOrg::kMIX);
  const int e_audit = pool.EntryFor(1, Subpath{2, 3}, IndexOrg::kMIX);
  const int e_div = pool.EntryFor(2, Subpath{1, 2}, IndexOrg::kMIX);
  EXPECT_EQ(e_full, e_audit);
  EXPECT_EQ(e_full, e_div);
  const CandidateEntry& entry =
      pool.entries()[static_cast<std::size_t>(e_full)];
  EXPECT_TRUE(entry.shareable);
  ASSERT_EQ(entry.uses.size(), 3u);
  std::set<int> users;
  for (const CandidateUse& use : entry.uses) users.insert(use.path_index);
  EXPECT_EQ(users, (std::set<int>{0, 1, 2}));

  // Same structure under a different organization is a different entry.
  EXPECT_NE(e_full, pool.EntryFor(0, Subpath{3, 4}, IndexOrg::kNIX));
  // The retrieval benefit is path-specific, per use.
  EXPECT_NE(entry.uses[0].query_prefix, entry.uses[2].query_prefix);
}

TEST_F(CandidatePoolTest, OverlappingPathsShareOnePerLevelMxEntry) {
  const CandidatePool pool =
      CandidatePool::Build(setup_.schema, setup_.catalog,
                           {full_, audit_, divisions_})
          .value();
  // Company.divs under MX is level 3 of the full path, level 2 of the audit
  // path and level 1 of the division path: one simple index, three uses.
  const int e_full = pool.EntryFor(0, Subpath{3, 3}, IndexOrg::kMX);
  ASSERT_GE(e_full, 0);
  EXPECT_EQ(pool.EntryFor(1, Subpath{2, 2}, IndexOrg::kMX), e_full);
  EXPECT_EQ(pool.EntryFor(2, Subpath{1, 1}, IndexOrg::kMX), e_full);
  const CandidateEntry& entry =
      pool.entries()[static_cast<std::size_t>(e_full)];
  EXPECT_TRUE(entry.shareable);
  EXPECT_EQ(entry.uses.size(), 3u);
  EXPECT_EQ(entry.label, "Company.divs (MX)");
}

TEST_F(CandidatePoolTest, NoMxOrNoneEntrySpansTwoLevels) {
  AdvisorOptions options;
  options.orgs = {IndexOrg::kMX,  IndexOrg::kMIX, IndexOrg::kNIX,
                  IndexOrg::kNX,  IndexOrg::kPX,  IndexOrg::kNone};
  const CandidatePool pool =
      CandidatePool::Build(setup_.schema, setup_.catalog,
                           {full_, audit_, divisions_}, options)
          .value();
  for (const CandidateEntry& e : pool.entries()) {
    if (e.key.org == IndexOrg::kMX || e.key.org == IndexOrg::kNone) {
      EXPECT_EQ(e.key.classes.size(), 1u) << e.label;
      for (const CandidateUse& use : e.uses) {
        EXPECT_EQ(use.subpath.length(), 1) << e.label;
      }
    }
  }
  // A multi-level MX or NONE block has no entry: its per-level split does.
  for (int p = 0; p < pool.num_paths(); ++p) {
    for (const Subpath& sp : EnumerateSubpaths(pool.path_length(p))) {
      for (const IndexOrg org : options.orgs) {
        const bool per_level_only =
            org == IndexOrg::kMX || org == IndexOrg::kNone;
        EXPECT_EQ(pool.EntryFor(p, sp, org) < 0,
                  per_level_only && sp.length() > 1)
            << "path " << p << " " << ToString(sp) << " " << ToString(org);
      }
    }
  }
}

TEST_F(CandidatePoolTest, SubclassTypedPathsStayDistinct) {
  // Bus.man.divs.name navigates the same attributes as Vehicle.man.divs.name
  // but is rooted at the subclass: structurally different indexes.
  LoadDistribution bus_load;
  bus_load.Set(setup_.bus, 0.4, 0.1, 0.1);
  bus_load.Set(setup_.division, 0.2, 0.1, 0.1);
  const PathWorkload bus{
      "",
      Path::Create(setup_.schema, setup_.bus, {"man", "divs", "name"})
          .value(),
      bus_load};

  const CandidatePool pool =
      CandidatePool::Build(setup_.schema, setup_.catalog, {audit_, bus})
          .value();
  // The heads differ (Vehicle.man vs Bus.man)...
  EXPECT_NE(pool.EntryFor(0, Subpath{1, 1}, IndexOrg::kMX),
            pool.EntryFor(1, Subpath{1, 1}, IndexOrg::kMX));
  EXPECT_NE(pool.EntryFor(0, Subpath{1, 2}, IndexOrg::kNIX),
            pool.EntryFor(1, Subpath{1, 2}, IndexOrg::kNIX));
  // ...while the Company.divs.name tail is physically identical.
  const int tail0 = pool.EntryFor(0, Subpath{2, 3}, IndexOrg::kMIX);
  const int tail1 = pool.EntryFor(1, Subpath{2, 3}, IndexOrg::kMIX);
  EXPECT_EQ(tail0, tail1);
  EXPECT_TRUE(pool.entries()[static_cast<std::size_t>(tail0)].shareable);
}

TEST_F(CandidatePoolTest, UsesMatchDirectCostModelEvaluation) {
  const CandidatePool pool =
      CandidatePool::Build(setup_.schema, setup_.catalog, {full_}).value();
  const PathContext ctx =
      PathContext::Build(setup_.schema, setup_.path, setup_.catalog,
                         setup_.load)
          .value();
  for (const Subpath& sp : EnumerateSubpaths(4)) {
    for (const IndexOrg org :
         {IndexOrg::kMX, IndexOrg::kMIX, IndexOrg::kNIX}) {
      if (pool.EntryFor(0, sp, org) < 0) continue;  // multi-level MX
      const CandidateUse& use = pool.UseFor(0, sp, org);
      const SubpathCost direct =
          ComputeSubpathCost(ctx, sp.start, sp.end, org);
      EXPECT_DOUBLE_EQ(use.query_prefix, direct.query + direct.prefix);
      EXPECT_DOUBLE_EQ(use.maintain, direct.maintain + direct.boundary);
    }
  }
}

TEST_F(CandidatePoolTest, EntryForUnknownOrgIsMinusOne) {
  const CandidatePool pool =
      CandidatePool::Build(setup_.schema, setup_.catalog, {full_}).value();
  EXPECT_EQ(pool.EntryFor(0, Subpath{1, 1}, IndexOrg::kPX), -1);
}

TEST_F(CandidatePoolTest, LabelsRenderButDoNotKey) {
  const CandidatePool pool =
      CandidatePool::Build(setup_.schema, setup_.catalog,
                           {full_, divisions_})
          .value();
  const int entry = pool.EntryFor(0, Subpath{3, 4}, IndexOrg::kMIX);
  EXPECT_EQ(pool.entries()[static_cast<std::size_t>(entry)].label,
            "Company.divs.name (MIX)");
}

}  // namespace
}  // namespace pathix
