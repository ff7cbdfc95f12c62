#pragma once

#include <vector>

#include "core/cost_matrix.h"
#include "core/optimizer.h"
#include "costmodel/path_context.h"

/// \file advisor.h
/// \brief High-level facade: the full pipeline of Section 5 — build the
/// PathContext, the Cost_Matrix, run Opt_Ind_Con — plus the comparison
/// against the best single whole-path index that Example 5.1 reports.

namespace pathix {

/// Tuning knobs for the advisor.
struct AdvisorOptions {
  /// Candidate organizations (matrix columns). Adding organizations does not
  /// change the algorithm, as the paper notes in the abstract.
  std::vector<IndexOrg> orgs = {IndexOrg::kMX, IndexOrg::kMIX, IndexOrg::kNIX};
  bool capture_trace = false;
  /// Predicate shape against the ending attribute (range extension).
  QueryProfile query_profile;
};

/// Advisor output for one path.
struct Recommendation {
  CostMatrix matrix;
  OptimizeResult result;                  ///< the optimal configuration
  std::vector<SubpathCost> part_costs;    ///< breakdown per chosen subpath
  std::vector<double> part_storage_bytes; ///< estimated index bytes per part
  double total_storage_bytes = 0;

  /// Best organization when the whole path is covered by a single index
  /// (the baseline the paper compares against: "without index
  /// configurations the whole path would be indexed by one index type").
  IndexOrg whole_path_org = IndexOrg::kNIX;
  double whole_path_cost = 0;

  /// whole_path_cost / result.cost (Example 5.1's factor 2.7).
  double improvement_factor = 1;
};

/// Runs the full selection pipeline for one path.
Result<Recommendation> AdviseIndexConfiguration(
    const Schema& schema, const Path& path, const Catalog& catalog,
    const LoadDistribution& load, const AdvisorOptions& options = {});

/// As above but over an already-built context (avoids rebinding statistics
/// in parameter sweeps).
Recommendation AdviseIndexConfiguration(const PathContext& ctx,
                                        const AdvisorOptions& options = {});

}  // namespace pathix
