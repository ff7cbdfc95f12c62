// The candidate-pool cache (advisor/candidate_pool.h): pools produced by
// a reused CandidatePoolBuilder must be *identical* to a fresh build on the
// same inputs, and every priced use must equal the uncached Cost_Matrix
// cell (CostMatrix::Build, the reference outside the builder) — the cache
// is a pure factorization, never an approximation — while Build calls with
// unchanged statistics reweigh the cached skeleton (cache_hits) instead of
// re-evaluating the organization models.

#include "advisor/candidate_pool.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <random>
#include <string>

#include "core/cost_matrix.h"
#include "datagen/paper_schema.h"

namespace pathix {
namespace {

const std::vector<IndexOrg> kAllOrgs = {IndexOrg::kMX,  IndexOrg::kMIX,
                                        IndexOrg::kNIX, IndexOrg::kNX,
                                        IndexOrg::kPX,  IndexOrg::kNone};

LoadDistribution RandomLoad(const PaperSetup& setup, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> weight(0.0, 1.0);
  LoadDistribution load;
  for (ClassId cls : setup.path.Scope(setup.schema)) {
    load.Set(cls, weight(rng), weight(rng), weight(rng));
  }
  return load;
}

std::string Fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Full serialization of a pool: every entry, every priced use, every
/// breakdown component — byte-equality here is pool identity.
std::string Dump(const CandidatePool& pool) {
  std::string out;
  out += "paths " + std::to_string(pool.num_paths());
  for (int p = 0; p < pool.num_paths(); ++p) {
    out += " " + std::to_string(pool.path_length(p));
  }
  out += "\n";
  for (const CandidateEntry& e : pool.entries()) {
    out += e.label + " storage " + Fmt(e.storage_bytes) +
           (e.shareable ? " shared" : "") + "\n";
    for (const CandidateUse& u : e.uses) {
      out += "  path " + std::to_string(u.path_index) + " [" +
             std::to_string(u.subpath.start) + "," +
             std::to_string(u.subpath.end) + "] qp " + Fmt(u.query_prefix) +
             " m " + Fmt(u.maintain) + " q " + Fmt(u.breakdown.query) +
             " p " + Fmt(u.breakdown.prefix) + " mm " +
             Fmt(u.breakdown.maintain) + " b " + Fmt(u.breakdown.boundary) +
             "\n";
    }
  }
  return out;
}

class PoolCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    setup_ = MakeExample51Setup();
    full_ = PathWorkload{"people", setup_.path, setup_.load};

    LoadDistribution audit_load;
    audit_load.Set(setup_.company, 0.5, 0.05, 0.05);
    audit_load.Set(setup_.vehicle, 0.3, 0.0, 0.05);
    audit_load.Set(setup_.division, 0.15, 0.1, 0.05);
    audit_ = PathWorkload{
        "audit",
        Path::Create(setup_.schema, setup_.vehicle, {"man", "divs", "name"})
            .value(),
        audit_load};
  }

  PaperSetup setup_;
  PathWorkload full_;
  PathWorkload audit_;
};

TEST_F(PoolCacheTest, MatchesUncachedCostMatrixAcrossRandomLoads) {
  CandidatePoolBuilder builder;
  AdvisorOptions options;
  options.orgs = kAllOrgs;
  for (std::uint32_t seed = 1; seed <= 8; ++seed) {
    const LoadDistribution load = RandomLoad(setup_, seed);
    const Result<CandidatePool> pool =
        builder.Build(setup_.schema, setup_.catalog,
                      {PathWorkload{"people", setup_.path, load}}, options);
    ASSERT_TRUE(pool.ok()) << pool.status().ToString();
    const PathContext ctx =
        PathContext::Build(setup_.schema, setup_.path, setup_.catalog, load)
            .value();
    const CostMatrix matrix = CostMatrix::Build(ctx, kAllOrgs);
    for (const Subpath& sp : matrix.subpaths()) {
      for (IndexOrg org : kAllOrgs) {
        // MX and NONE are pool candidates per level only.
        if ((org == IndexOrg::kMX || org == IndexOrg::kNone) &&
            sp.length() > 1) {
          EXPECT_EQ(pool.value().EntryFor(0, sp, org), -1);
          continue;
        }
        EXPECT_EQ(pool.value().UseFor(0, sp, org).breakdown.total(),
                  matrix.Cost(sp, org))
            << "seed " << seed << " " << ToString(sp) << " " << ToString(org);
      }
    }
  }
  // One miss (the first call), then pure reweighting.
  EXPECT_EQ(builder.model_rebuilds(), 1u);
  EXPECT_EQ(builder.cache_hits(), 7u);
}

TEST_F(PoolCacheTest, CachedPoolIdenticalToDirectBuild) {
  CandidatePoolBuilder builder;
  const std::vector<PathWorkload> workload = {full_, audit_};

  const Result<CandidatePool> direct =
      CandidatePool::Build(setup_.schema, setup_.catalog, workload);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  const Result<CandidatePool> first =
      builder.Build(setup_.schema, setup_.catalog, workload);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(builder.model_rebuilds(), 1u);
  EXPECT_EQ(builder.cache_hits(), 0u);
  EXPECT_EQ(Dump(direct.value()), Dump(first.value()));

  // Drifted loads, unchanged statistics: served from the skeleton, still
  // identical to a from-scratch build under the new loads.
  std::vector<PathWorkload> drifted = workload;
  drifted[0].load = LoadDistribution();
  drifted[0].load.Set(setup_.person, 0.1, 0.4, 0.3);
  drifted[0].load.Set(setup_.division, 0.05, 0.1, 0.05);
  const Result<CandidatePool> cached =
      builder.Build(setup_.schema, setup_.catalog, drifted);
  ASSERT_TRUE(cached.ok()) << cached.status().ToString();
  EXPECT_EQ(builder.model_rebuilds(), 1u);
  EXPECT_EQ(builder.cache_hits(), 1u);
  const Result<CandidatePool> drifted_direct =
      CandidatePool::Build(setup_.schema, setup_.catalog, drifted);
  ASSERT_TRUE(drifted_direct.ok());
  EXPECT_EQ(Dump(drifted_direct.value()), Dump(cached.value()));
  // The reweigh changed real prices (the drift was not a no-op).
  EXPECT_NE(Dump(first.value()), Dump(cached.value()));
}

TEST_F(PoolCacheTest, StatisticsChangeRebuildsModels) {
  CandidatePoolBuilder builder;
  const std::vector<PathWorkload> workload = {full_, audit_};
  ASSERT_TRUE(builder.Build(setup_.schema, setup_.catalog, workload).ok());
  ASSERT_TRUE(builder.Build(setup_.schema, setup_.catalog, workload).ok());
  EXPECT_EQ(builder.model_rebuilds(), 1u);
  EXPECT_EQ(builder.cache_hits(), 1u);

  // New statistics flip the fingerprint: the models re-evaluate and the
  // result matches a direct build against the new catalog.
  Catalog changed = setup_.catalog;
  ClassStats stats = changed.GetClassStats(setup_.division);
  stats.d = stats.d * 2 + 1;
  changed.SetClassStats(setup_.division, stats);
  const Result<CandidatePool> rebuilt =
      builder.Build(setup_.schema, changed, workload);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  EXPECT_EQ(builder.model_rebuilds(), 2u);
  EXPECT_EQ(builder.cache_hits(), 1u);
  const Result<CandidatePool> direct =
      CandidatePool::Build(setup_.schema, changed, workload);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(Dump(direct.value()), Dump(rebuilt.value()));
}

TEST_F(PoolCacheTest, PathSetChangeAndInvalidateRebuild) {
  CandidatePoolBuilder builder;
  ASSERT_TRUE(builder.Build(setup_.schema, setup_.catalog, {full_}).ok());
  // A different path set cannot reuse the skeleton.
  const Result<CandidatePool> two =
      builder.Build(setup_.schema, setup_.catalog, {full_, audit_});
  ASSERT_TRUE(two.ok());
  EXPECT_EQ(builder.model_rebuilds(), 2u);
  const Result<CandidatePool> direct =
      CandidatePool::Build(setup_.schema, setup_.catalog, {full_, audit_});
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(Dump(direct.value()), Dump(two.value()));

  // Invalidate drops the skeleton even with nothing changed.
  builder.Invalidate();
  ASSERT_TRUE(
      builder.Build(setup_.schema, setup_.catalog, {full_, audit_}).ok());
  EXPECT_EQ(builder.model_rebuilds(), 3u);
  EXPECT_EQ(builder.cache_hits(), 0u);
}

}  // namespace
}  // namespace pathix
